"""Dense symmetric-tensor kernels in numpy.

Tensors are dense float64 arrays of shape (n,)*d. ``power_opnorm`` runs the
shifted power iteration on a stack (b, n, ..., n) of them; ``certified_opnorm``
is the deterministic grid-and-refine search for one small tensor, the oracle
the power iteration is checked against. Each checks its input once; the
contractions underneath work on stacks.
"""

import warnings

import numpy as np

from ._util import substream

# power_opnorm runs this many floats of fold temporary (tensors x restarts x
# n^(d-1)) at a time, about 8 MB
_CHUNK_FLOATS = 1 << 20

# the certified search: a circle or sphere grid, then projected-gradient
# ascent from its best points
_GRID_CIRCLE = 4000
_GRID_SPHERE = 100_000
_REFINE_TOP = 10
_REFINE_ITERS = 200
_CERT_SEED = 74250919  # fixed so the certified search is bytewise reproducible


class UnsupportedSizeError(ValueError):
    """Certified search requested outside the supported range n<=4, d<=4."""


def _fold(tensors, points, keep):
    """Contract all but ``keep`` slots of tensors[i] with each row of points[i]:
    (b, n, ..., n) and (b, m, n) give (b, m, n^keep)."""
    b, m, n = points.shape
    out = points @ tensors.reshape(b, n, -1)
    for _ in range(tensors.ndim - 2 - keep):
        out = np.matmul(points[:, :, None, :], out.reshape(b, m, n, -1))[:, :, 0, :]
    return out


def _apply(tensors, points):
    if tensors.ndim == 2:
        return np.broadcast_to(tensors[:, None, :], points.shape).copy()
    return _fold(tensors, points, 1)


def power_opnorm(tensors, starts, shifts, tol=1e-10, max_iter=10000):
    """Largest fixed-point value of the shifted power map x -> T[x..x,.] + shift*x,
    for each tensor T of a stack (b, n, ..., n), with (b,) ``shifts`` and the
    (r, n) restart rows ``starts`` shared by every tensor; returns (b,).

    All restarts of one tensor run in lockstep until each of its form values
    T[x,...,x] moved by at most ``tol`` in one step; the tensor then leaves
    the active set, so its value does not depend on the rest of the stack.
    A tensor still moving after ``max_iter`` steps returns its last value,
    and one RuntimeWarning says how many did. The caller is responsible for
    the +/- sweep.
    """
    t = np.ascontiguousarray(tensors, dtype=np.float64)
    s = np.ascontiguousarray(starts, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError("starts must be a 2-D batch, got shape %r" % (s.shape,))
    if t.ndim < 2 or any(n != s.shape[1] for n in t.shape[1:]):
        raise ValueError("tensor shape %r does not match start dimension %d"
                         % (t.shape[1:], s.shape[1]))
    shifts = np.asarray(shifts, dtype=np.float64)
    if shifts.shape != t.shape[:1]:
        raise ValueError("need one shift per tensor, got %r" % (shifts.shape,))
    x0 = s / np.linalg.norm(s, axis=1, keepdims=True)
    chunk = max(1, _CHUNK_FLOATS // (s.shape[0] * s.shape[1] ** max(t.ndim - 2, 1)))
    out = np.empty(t.shape[0])
    stalled = 0
    for lo in range(0, t.shape[0], chunk):
        stalled += _power_chunk(out[lo:lo + chunk], t[lo:lo + chunk], x0,
                                shifts[lo:lo + chunk], tol, int(max_iter))
    if stalled:
        warnings.warn("power_opnorm: %d of %d tensors stopped at max_iter=%d "
                      "without converging" % (stalled, t.shape[0], max_iter),
                      RuntimeWarning, stacklevel=2)
    return out


def _power_chunk(out, t, x0, shifts, tol, max_iter):
    """Fill ``out`` with the values of the tensors ``t``; returns how many
    stopped at ``max_iter``."""
    active = np.arange(t.shape[0])
    shift = shifts[:, None, None]
    x = np.broadcast_to(x0, (t.shape[0],) + x0.shape).copy()
    w = _apply(t, x)
    vals = np.einsum("bij,bij->bi", x, w)
    for _ in range(max_iter):
        y = w + shift * x
        norms = np.linalg.norm(y, axis=2, keepdims=True)
        np.clip(norms, 1e-300, None, out=norms)
        x = y / norms
        w = _apply(t, x)
        new_vals = np.einsum("bij,bij->bi", x, w)
        done = np.all(np.abs(new_vals - vals) <= tol, axis=1)
        vals = new_vals
        if done.any():
            out[active[done]] = np.max(vals[done], axis=1)
            left = ~done
            active, t, shift, x, w, vals = (a[left] for a in (active, t, shift, x, w, vals))
            if not active.size:
                break
    out[active] = np.max(vals, axis=1)
    return active.size


def certified_opnorm(tensor):
    """sup over unit v of |T[v, ..., v]| for one symmetric tensor (n,)*d with
    n <= 4 and d <= 4; deterministic.

    T is evaluated on a fixed sphere grid, then projected-gradient ascent
    starts from the _REFINE_TOP grid points of largest |T[v, ..., v]|. Every
    value it keeps is taken at a unit vector.
    """
    t = np.ascontiguousarray(np.asarray(tensor, dtype=np.float64)[None])
    if t.ndim < 2 or any(s != t.shape[1] for s in t.shape[1:]):
        raise ValueError("need one tensor of shape (n, ..., n), got %r" % (t.shape[1:],))
    n, d = t.shape[1], t.ndim - 1
    if n > 4 or d > 4:
        raise UnsupportedSizeError(
            "certified search supports n <= 4 and d <= 4, got n=%d, d=%d" % (n, d))
    grid = _sphere_grid(n)
    values = _fold(t, grid[None], 0)[0, :, 0]
    order = np.argsort(-np.abs(values), kind="stable")[:_REFINE_TOP]
    best = float(np.max(np.abs(values)))
    for i in order:
        best = max(best, _refine_on_sphere(t, grid[i], 1.0 if values[i] >= 0 else -1.0))
    return best


def _sphere_grid(n):
    """Deterministic near-uniform unit-sphere grid.

    n=2 uses an angular grid; n=3,4 use fixed-seed normalized gaussians with
    the +/- coordinate axes appended so axis-aligned maxima are hit exactly.
    """
    if n == 2:
        theta = 2.0 * np.pi * np.arange(_GRID_CIRCLE) / _GRID_CIRCLE
        return np.column_stack([np.cos(theta), np.sin(theta)])
    rng = substream(_CERT_SEED, n)
    pts = rng.standard_normal((_GRID_SPHERE, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    axes = np.vstack([np.eye(n), -np.eye(n)])
    return np.vstack([pts, axes])


def _refine_on_sphere(t, start, sign):
    """Projected-gradient ascent of sign*T[x,...,x] on the unit sphere, for the
    stack of one tensor ``t``; one point per contraction.

    Armijo backtracking line search; returns the final (nonnegative) value.
    """
    d = t.ndim - 1
    x = np.array(start, dtype=np.float64)
    x /= np.linalg.norm(x)
    val = sign * float(_fold(t, x[None, None], 0)[0, 0, 0])
    for _ in range(_REFINE_ITERS):
        grad = sign * d * _apply(t, x[None, None])[0, 0]
        pgrad = grad - np.dot(grad, x) * x
        gnorm = float(np.linalg.norm(pgrad))
        if gnorm <= 1e-12:
            break
        step = 1.0 / max(1.0, float(np.linalg.norm(grad)))
        improved = False
        while step > 1e-14:
            y = x + step * pgrad
            y /= np.linalg.norm(y)
            new_val = sign * float(_fold(t, y[None, None], 0)[0, 0, 0])
            if new_val >= val + 1e-4 * step * gnorm * gnorm:
                x, val = y, new_val
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return max(val, 0.0)
