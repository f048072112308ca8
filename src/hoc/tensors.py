"""Dense symmetric tensors: canonical layout and norms.

A symmetric order-d tensor on R^n is a dense float64 array of shape (n,)*d.
Its distinct values sit on the non-decreasing index tuples, each standing
for the multinomial number of permutations in its orbit; ``canonical_layout``
maps those canonical values to the dense array, so Hilbert-Schmidt norms
read from them agree with the fully expanded n^d array.

``op_norms`` gives sup |T[v, ..., v]| over unit v for each tensor of a
stack: closed forms at orders 1 and 2, and above them ``power_norms``, a
shifted symmetric power iteration on +T and -T with random restarts, the
whole stack in one kernel call. For symmetric forms the sup of the
multilinear form over separate unit vectors equals this diagonal sup, so
the iteration targets the right quantity. ``kernels.certified_opnorm`` is
its deterministic oracle for n <= 4, d <= 4.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from . import kernels
from ._util import substream

RESTARTS = 64
POWER_TOL = 1e-10
POWER_MAX_ITER = 10_000


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
    """sup |T[v, ..., v]| for each tensor of a dense stack (b, n, ..., n) by the
    shifted power iteration, RESTARTS restarts drawn from ``seed``: one kernel
    call on [+T; -T], shifted by the HS norm; max(+T value, -T value, 0) per
    tensor. A value the iteration reached, so never above the true norm."""
    b, order, dim = stack.shape[0], stack.ndim - 1, stack.shape[1]
    canonical = np.array(canonical_layout(order, dim)[0]).T
    shifts = hs_norms(stack[(slice(None),) + tuple(canonical)], order, dim)
    rng = substream(seed, order, dim)
    best = kernels.power_opnorm(np.concatenate([stack, -stack]),
                                rng.standard_normal((RESTARTS, dim)),
                                np.concatenate([shifts, shifts]), POWER_TOL, POWER_MAX_ITER)
    return np.maximum(np.maximum(best[:b], best[b:]), 0.0)
