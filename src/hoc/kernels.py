"""Dense symmetric-tensor kernels in numpy.

Tensors are dense float64 arrays of shape (n,)*d, points (m, n) batches;
``power_opnorm`` takes a stack (b, n, ..., n) of tensors. The public
functions check shapes once; the contractions underneath all work on stacks.
"""

import warnings

import numpy as np

# power_opnorm runs this many floats of fold temporary (tensors x restarts x
# n^(d-1)) at a time, about 8 MB
_CHUNK_FLOATS = 1 << 20


def _coerce(tensors, points):
    """Checked (b, n, ..., n) tensors and (m, n) points."""
    t = np.ascontiguousarray(tensors, dtype=np.float64)
    p = np.ascontiguousarray(points, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("points must be a 2-D batch, got shape %r" % (p.shape,))
    if t.ndim < 2 or any(s != p.shape[1] for s in t.shape[1:]):
        raise ValueError("tensor shape %r does not match point dimension %d"
                         % (t.shape[1:], p.shape[1]))
    return t, p


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


def diagonal_values(tensor, points):
    """T[v, ..., v] for each row v of ``points``. Returns shape (m,)."""
    t, p = _coerce(np.asarray(tensor)[None], points)
    if t.ndim == 2:
        return p @ t[0]
    return _fold(t, p[None], 0)[0, :, 0]


def diagonal_apply(tensor, points):
    """Gradient map T[v, ..., v, .] for each row v. Returns shape (m, n)."""
    t, p = _coerce(np.asarray(tensor)[None], points)
    return _apply(t, p[None])[0]


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
    t, s = _coerce(tensors, starts)
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
