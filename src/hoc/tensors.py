"""Symmetric d-tensors with canonical-index storage and operator norms.

A symmetric order-d tensor on R^n is stored by its non-decreasing index
tuples, each carrying the multinomial multiplicity of its permutation orbit,
so Hilbert-Schmidt norms and contractions agree with the fully expanded n^d
array. The dense array is still materialized (and cached) for the numeric
kernels; at desk scale (n <= 10, d <= 4) this is cheap.

Two operator-norm modes are provided. The iterative mode runs a shifted
symmetric power iteration on +T and -T with random restarts; for symmetric
forms the sup of the multilinear form over separate unit vectors equals the
sup of |T[v,...,v]| on the diagonal, so this targets the right quantity.
The certified mode is a deterministic dense sphere grid followed by
projected-gradient refinement, available for n <= 4, d <= 4, and serves as
the oracle for the iterative mode.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels

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

    @classmethod
    def zeros(cls, order, dim):
        return cls(order, dim, ())

    @classmethod
    def from_dense(cls, array, rtol=1e-8):
        """Build from a dense (n,)*d array; rejects non-symmetric input."""
        arr = np.asarray(array, dtype=np.float64)
        d = arr.ndim
        if d < 1 or len(set(arr.shape)) > 1:
            raise ValueError("dense input must have equal axis lengths")
        n = arr.shape[0]
        scale = float(np.max(np.abs(arr))) if arr.size else 0.0
        tol = rtol * max(scale, 1.0)
        for a in range(d - 1):
            axes = list(range(d))
            axes[a], axes[a + 1] = axes[a + 1], axes[a]
            if float(np.max(np.abs(arr - np.transpose(arr, axes)))) > tol:
                raise ValueError("dense input is not symmetric (axes %d,%d differ)" % (a, a + 1))
        mapping = {}
        for idx in itertools.combinations_with_replacement(range(n), d):
            val = float(arr[idx])
            if val != 0.0:
                mapping[idx] = val
        return cls(d, n, tuple(sorted(mapping.items())))

    # -- basic queries ----------------------------------------------------

    def value_at(self, index):
        """Entry value; invariant under permutations of the index tuple."""
        key = _canonical(index)
        if len(key) != self.order or any(i < 0 or i >= self.dim for i in key):
            raise ValueError("index %r invalid for order %d, dim %d" % (index, self.order, self.dim))
        return self._lookup.get(key, 0.0)

    @cached_property
    def _lookup(self):
        return dict(self.entries)

    def multiplicity(self, index):
        """Number of distinct permutations of the index tuple."""
        return multinomial(_canonical(index))

    @cached_property
    def dense(self):
        arr = np.zeros((self.dim,) * self.order)
        for idx, val in self.entries:
            for perm in set(itertools.permutations(idx)):
                arr[perm] = val
        return arr

    def scaled(self, factor):
        return SymTensor(self.order, self.dim,
                         tuple((idx, factor * val) for idx, val in self.entries))

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
        return math.sqrt(sum(self.multiplicity(idx) * val * val for idx, val in self.entries))

    def max_abs_entry(self):
        return max((abs(val) for _, val in self.entries), default=0.0)

    # -- operator norm ----------------------------------------------------

    def op_norm(self, mode="iterative", seed=0):
        """sup over unit vectors of |T[v, ..., v]|.

        ``iterative``: shifted power iteration, 64 restarts on each of +T/-T.
        ``certified``: dense sphere grid + projected-gradient refinement,
        n <= 4 and d <= 4 only; deterministic, used as the oracle.
        """
        if mode == "iterative":
            return self._op_norm_iterative(seed)
        if mode == "certified":
            return self._op_norm_certified()
        raise ValueError("unknown op_norm mode %r" % (mode,))

    def _op_norm_iterative(self, seed):
        if not self.entries:
            return 0.0
        if self.dim == 1:
            return abs(self.entries[0][1])
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(self.order, self.dim))))
        starts = rng.standard_normal((RESTARTS, self.dim))
        shift = self.hs_norm()
        dense = self.dense
        best_pos = kernels.power_opnorm(dense, starts, shift, POWER_TOL, POWER_MAX_ITER)
        best_neg = kernels.power_opnorm(-dense, starts, shift, POWER_TOL, POWER_MAX_ITER)
        return max(best_pos, best_neg, 0.0)

    def _op_norm_certified(self):
        if self.dim > 4 or self.order > 4:
            raise UnsupportedSizeError(
                "certified mode supports n <= 4 and d <= 4, got n=%d, d=%d"
                % (self.dim, self.order))
        if not self.entries:
            return 0.0
        if self.dim == 1:
            return abs(self.entries[0][1])
        dense = self.dense
        grid = _sphere_grid(self.dim)
        values = kernels.diagonal_values(dense, grid)
        order = np.argsort(-np.abs(values), kind="stable")[:_REFINE_TOP]
        best = float(np.max(np.abs(values)))
        for i in order:
            refined = _refine_on_sphere(dense, grid[i], 1.0 if values[i] >= 0 else -1.0)
            best = max(best, refined)
        return best

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        return {
            "order": self.order,
            "dim": self.dim,
            "entries": [{"index": list(idx), "value": val} for idx, val in self.entries],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data):
        mapping = {}
        for item in data["entries"]:
            idx = tuple(item["index"])
            if list(idx) != sorted(idx):
                raise ValueError("serialized index %r must be non-decreasing" % (idx,))
            mapping[idx] = float(item["value"])
        return cls.from_entries(int(data["order"]), int(data["dim"]), mapping)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def _sphere_grid(n):
    """Deterministic near-uniform unit-sphere grid.

    n=2 uses an angular grid; n=3,4 use fixed-seed normalized gaussians with
    the +/- coordinate axes appended so axis-aligned maxima are hit exactly.
    """
    if n == 2:
        theta = 2.0 * np.pi * np.arange(_GRID_CIRCLE) / _GRID_CIRCLE
        return np.column_stack([np.cos(theta), np.sin(theta)])
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(_CERT_SEED, spawn_key=(n,))))
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
