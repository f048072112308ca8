"""Dense symmetric tensors: canonical layout, norms and operator-norm searches.

A symmetric order-d tensor on R^n is a dense float64 array of shape (n,)*d.
Its distinct values sit on the non-decreasing index tuples, each standing
for the multinomial number of permutations in its orbit; ``canonical_layout``
maps those canonical values to the dense array, so Hilbert-Schmidt norms
read from them agree with the fully expanded n^d array.

``op_norms`` gives sup |T[v, ..., v]| over unit v for each tensor of a
stack: closed forms at orders 1 and 2, and above them ``power_norms``, the
shifted symmetric power iteration (Kolda & Mayo 2011) on +T and -T with
random restarts, the whole stack at once. For symmetric forms the sup of the
multilinear form over separate unit vectors equals this diagonal sup, so
the iteration targets the right quantity. ``certified_opnorm`` is the
deterministic grid-and-refine search for one small tensor (n <= 4, d <= 4),
the oracle the power iteration is checked against.
"""

from __future__ import annotations

import itertools
import math
import warnings
from functools import lru_cache

import numpy as np

from ._util import substream

RESTARTS = 64
POWER_TOL = 1e-10
POWER_MAX_ITER = 10_000

# the certified search: a circle or sphere grid, then projected-gradient
# ascent from its best points
_GRID_CIRCLE = 4000
_GRID_SPHERE = 100_000
_REFINE_TOP = 10
_REFINE_ITERS = 200
_CERT_SEED = 74250919  # fixed so the certified search is bytewise reproducible


class UnsupportedSizeError(ValueError):
    """Certified search requested outside the supported range n<=4, d<=4."""


def multinomial(index):
    """Number of distinct permutations of an index tuple: len! / prod count!."""
    count = math.factorial(len(index))
    for i in set(index):
        count //= math.factorial(index.count(i))
    return count


@lru_cache(maxsize=None)
def canonical_layout(order, dim):
    """(canonical tuples in combinations_with_replacement order, slots): the
    read-only slots[j] is the canonical position of the j-th index of the
    dense C-ordered array, so ``values[..., slots]`` expands canonical values."""
    indices = tuple(itertools.combinations_with_replacement(range(dim), order))
    position = {idx: c for c, idx in enumerate(indices)}
    slots = np.array([position[tuple(sorted(idx))]
                      for idx in itertools.product(range(dim), repeat=order)], dtype=np.intp)
    slots.flags.writeable = False
    return indices, slots


def random_symmetric(seed, i):
    """Random symmetric tensor i of ``seed``: from substream (seed, i), a
    dim and then an order, each in 2..4, and one standard normal per
    canonical index, in canonical order."""
    rng = substream(seed, i)
    dim = int(rng.integers(2, 5))
    order = int(rng.integers(2, 5))
    indices, slots = canonical_layout(order, dim)
    return rng.standard_normal(len(indices))[slots].reshape((dim,) * order)


def hs_norms(values, order, dim):
    """Hilbert-Schmidt norms from canonical values (..., n_canonical), each
    square weighted by its multiplicity and summed in canonical order."""
    total = np.zeros(values.shape[:-1])
    for col, idx in enumerate(canonical_layout(order, dim)[0]):
        total += multinomial(idx) * values[..., col] * values[..., col]
    return np.sqrt(total)


def op_norms(stack):
    """sup |T[v, ..., v]| for each tensor of a dense stack (b, n, ..., n).

    Order 1 is the Euclidean norm, order 2 the largest |eigenvalue|, n = 1
    |T[0, ..., 0]|; higher orders are ``power_norms`` with seed 0.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.shape[1] == 1:
        return np.abs(stack.reshape(-1))
    if stack.ndim == 2:
        return np.linalg.norm(stack, axis=1)
    if stack.ndim == 3:
        return np.max(np.abs(np.linalg.eigvalsh(stack)), axis=1)
    return power_norms(stack, 0)


def power_norms(stack, seed):
    """sup |T[v, ..., v]| for each tensor of a dense float64 stack (b, n, ..., n)
    by the shifted power map x -> T[x, ..., x, .] + shift * x, with the HS
    norm as shift, on [+T; -T]; max(+T value, -T value, 0) per tensor. A
    value the iteration reached, so never above the true norm.

    The RESTARTS unit start rows, drawn from ``seed``, are shared by every
    tensor. All restarts of one tensor run in lockstep until each of its
    form values T[x, ..., x] moved by at most POWER_TOL in one step; the
    tensor then leaves the active set, so its value does not depend on the
    rest of the stack. A tensor still moving after POWER_MAX_ITER steps
    gives its last value, and one RuntimeWarning says how many did.
    """
    b, order, dim = stack.shape[0], stack.ndim - 1, stack.shape[1]
    canonical = np.array(canonical_layout(order, dim)[0]).T
    shifts = hs_norms(stack[(slice(None),) + tuple(canonical)], order, dim)
    t = np.concatenate([stack, -stack])
    shift = np.concatenate([shifts, shifts])[:, None, None]
    starts = substream(seed, order, dim).standard_normal((RESTARTS, dim))
    x = np.broadcast_to(starts / np.linalg.norm(starts, axis=1, keepdims=True),
                        (2 * b, RESTARTS, dim)).copy()
    best = np.empty(2 * b)
    active = np.arange(2 * b)
    w = _apply(t, x)
    vals = np.einsum("bij,bij->bi", x, w)
    for _ in range(POWER_MAX_ITER):
        y = w + shift * x
        norms = np.linalg.norm(y, axis=2, keepdims=True)
        np.clip(norms, 1e-300, None, out=norms)
        x = y / norms
        w = _apply(t, x)
        new_vals = np.einsum("bij,bij->bi", x, w)
        done = np.all(np.abs(new_vals - vals) <= POWER_TOL, axis=1)
        vals = new_vals
        if done.any():
            best[active[done]] = np.max(vals[done], axis=1)
            left = ~done
            active, t, shift, x, w, vals = (a[left] for a in (active, t, shift, x, w, vals))
            if not active.size:
                break
    best[active] = np.max(vals, axis=1)
    if active.size:
        warnings.warn("power_norms: %d of %d tensors stopped at max_iter=%d without "
                      "converging" % (np.unique(active % b).size, b, POWER_MAX_ITER),
                      RuntimeWarning, stacklevel=2)
    return np.maximum(np.maximum(best[:b], best[b:]), 0.0)


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
