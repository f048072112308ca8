"""Symmetric d-tensors with canonical-index storage and operator norms.

A symmetric order-d tensor on R^n is stored by its non-decreasing index
tuples, each carrying the multinomial multiplicity of its permutation orbit,
so Hilbert-Schmidt norms and contractions agree with the fully expanded n^d
array; ``canonical_layout`` maps one to the other. The dense array is still
materialized (and cached) for the numeric kernels; at desk scale (n <= 10,
d <= 4) this is cheap.

Two operator-norm modes are provided. The iterative mode runs a shifted
symmetric power iteration on +T and -T with random restarts; for symmetric
forms the sup of the multilinear form over separate unit vectors equals the
sup of |T[v,...,v]| on the diagonal, so this targets the right quantity.
The certified mode is a deterministic dense sphere grid followed by
projected-gradient refinement, available for n <= 4, d <= 4, and serves as
the oracle for the iterative mode. ``op_norms`` gives the norms of a whole
stack of dense tensors: closed forms at orders 1 and 2, and above them the
iterative mode's power iteration with the stack in one kernel call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from ._util import substream

RESTARTS = 64
POWER_TOL = 1e-10
POWER_MAX_ITER = 10_000

_GRID_CIRCLE = 4000
_GRID_SPHERE = 100_000
_REFINE_TOP = 10
_REFINE_ITERS = 200
_CERT_SEED = 74250919  # fixed so the certified search is bytewise reproducible


class UnsupportedSizeError(ValueError):
    """Certified search requested outside the supported range n<=4, d<=4."""


def _canonical(index):
    return tuple(sorted(int(i) for i in index))


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
    slots = np.array([position[_canonical(idx)]
                      for idx in itertools.product(range(dim), repeat=order)], dtype=np.intp)
    slots.flags.writeable = False
    return indices, slots


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
    |T[0, ..., 0]|; higher orders are the iterative mode with seed 0.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.shape[1] == 1:
        return np.abs(stack.reshape(-1))
    if stack.ndim == 2:
        return np.linalg.norm(stack, axis=1)
    if stack.ndim == 3:
        return np.max(np.abs(np.linalg.eigvalsh(stack)), axis=1)
    return _power_norms(stack, 0)


def _power_norms(stack, seed):
    """The iterative mode for each tensor of a dense stack: one kernel call on
    [+T; -T], shifted by the HS norm; max(+T value, -T value, 0) per tensor."""
    b, order, dim = stack.shape[0], stack.ndim - 1, stack.shape[1]
    canonical = np.array(canonical_layout(order, dim)[0]).T
    shifts = hs_norms(stack[(slice(None),) + tuple(canonical)], order, dim)
    rng = substream(seed, order, dim)
    best = kernels.power_opnorm(np.concatenate([stack, -stack]),
                                rng.standard_normal((RESTARTS, dim)),
                                np.concatenate([shifts, shifts]), POWER_TOL, POWER_MAX_ITER)
    return np.maximum(np.maximum(best[:b], best[b:]), 0.0)


@dataclass(frozen=True)
class SymTensor:
    """Immutable symmetric tensor of order ``order`` on R^``dim``.

    ``entries`` maps canonical (non-decreasing) index tuples to values; index
    tuples absent from the mapping are zero.
    """

    order: int
    dim: int
    entries: tuple

    def __post_init__(self):
        if self.order < 1 or self.dim < 1:
            raise ValueError("order and dim must be positive")
        seen = set()
        for idx, val in self.entries:
            if len(idx) != self.order:
                raise ValueError("index %r has wrong length for order %d" % (idx, self.order))
            if any(i < 0 or i >= self.dim for i in idx):
                raise ValueError("index %r out of range for dim %d" % (idx, self.dim))
            if tuple(idx) != _canonical(idx):
                raise ValueError("index %r is not non-decreasing" % (idx,))
            if idx in seen:
                raise ValueError("duplicate canonical index %r" % (idx,))
            seen.add(idx)
            if not math.isfinite(val):
                raise ValueError("non-finite entry at %r" % (idx,))

    @classmethod
    def from_entries(cls, order, dim, mapping):
        """Build from {index tuple: value}; indices are canonicalized."""
        canon = {}
        for idx, val in mapping.items():
            key = _canonical(idx)
            if key in canon and canon[key] != val:
                raise ValueError("conflicting values for permutations of %r" % (key,))
            canon[key] = float(val)
        items = tuple(sorted((k, v) for k, v in canon.items() if v != 0.0))
        return cls(order, dim, items)

    # -- dense views ------------------------------------------------------

    @cached_property
    def _canonical_values(self):
        lookup = dict(self.entries)
        return np.array([lookup.get(idx, 0.0)
                         for idx in canonical_layout(self.order, self.dim)[0]])

    @cached_property
    def dense(self):
        slots = canonical_layout(self.order, self.dim)[1]
        return self._canonical_values[slots].reshape((self.dim,) * self.order)

    # -- norms and contraction --------------------------------------------

    def contract(self, vectors):
        """Multilinear form value T[v_1, ..., v_d]."""
        if len(vectors) != self.order:
            raise ValueError("expected %d vectors, got %d" % (self.order, len(vectors)))
        out = self.dense
        for v in vectors:
            v = np.asarray(v, dtype=np.float64)
            if v.shape != (self.dim,):
                raise ValueError("vector of shape %r does not match dim %d" % (v.shape, self.dim))
            out = np.tensordot(out, v, axes=([0], [0]))
        return float(out)

    def hs_norm(self):
        """Euclidean norm of the expanded n^d array."""
        return float(hs_norms(self._canonical_values, self.order, self.dim))

    def max_abs_entry(self):
        return max((abs(val) for _, val in self.entries), default=0.0)

    # -- operator norm ----------------------------------------------------

    def op_norm(self, mode="iterative", seed=0):
        """sup over unit vectors of |T[v, ..., v]|.

        ``iterative``: shifted power iteration, 64 restarts on each of +T/-T.
        ``certified``: dense sphere grid + projected-gradient refinement,
        n <= 4 and d <= 4 only; deterministic, used as the oracle.
        """
        if mode not in ("iterative", "certified"):
            raise ValueError("unknown op_norm mode %r" % (mode,))
        if mode == "certified" and (self.dim > 4 or self.order > 4):
            raise UnsupportedSizeError(
                "certified mode supports n <= 4 and d <= 4, got n=%d, d=%d"
                % (self.dim, self.order))
        if not self.entries:
            return 0.0
        if self.dim == 1:
            return abs(self.entries[0][1])
        if mode == "iterative":
            return float(_power_norms(self.dense[None], seed)[0])
        dense = self.dense
        grid = _sphere_grid(self.dim)
        values = kernels.diagonal_values(dense, grid)
        order = np.argsort(-np.abs(values), kind="stable")[:_REFINE_TOP]
        best = float(np.max(np.abs(values)))
        for i in order:
            refined = _refine_on_sphere(dense, grid[i], 1.0 if values[i] >= 0 else -1.0)
            best = max(best, refined)
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


def _refine_on_sphere(dense, start, sign):
    """Projected-gradient ascent of sign*T[x,...,x] on the unit sphere.

    Armijo backtracking line search; returns the final (nonnegative) value.
    """
    d = dense.ndim
    x = np.array(start, dtype=np.float64)
    x /= np.linalg.norm(x)
    val = sign * float(kernels.diagonal_values(dense, x[None, :])[0])
    for _ in range(_REFINE_ITERS):
        grad = sign * d * kernels.diagonal_apply(dense, x[None, :])[0]
        pgrad = grad - np.dot(grad, x) * x
        gnorm = float(np.linalg.norm(pgrad))
        if gnorm <= 1e-12:
            break
        step = 1.0 / max(1.0, float(np.linalg.norm(grad)))
        improved = False
        while step > 1e-14:
            y = x + step * pgrad
            y /= np.linalg.norm(y)
            new_val = sign * float(kernels.diagonal_values(dense, y[None, :])[0])
            if new_val >= val + 1e-4 * step * gnorm * gnorm:
                x, val = y, new_val
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return max(val, 0.0)
