"""Dense symmetric tensors: canonical layout, norms, and both op-norm searches."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoc import UnsupportedSizeError
from hoc._util import substream
from hoc.kernels import certified_opnorm
from hoc.tensors import canonical_layout, hs_norms, multinomial, power_norms


def random_sym(order, dim, seed, scale=1.0):
    """Dense symmetric tensor with one normal draw per canonical index."""
    indices, slots = canonical_layout(order, dim)
    values = scale * np.random.default_rng(seed).standard_normal(len(indices))
    return values[slots].reshape((dim,) * order)


def canonical_values(tensor):
    return np.array([tensor[idx] for idx in canonical_layout(tensor.ndim, tensor.shape[0])[0]])


def hs_norm(tensor):
    return float(hs_norms(canonical_values(tensor), tensor.ndim, tensor.shape[0]))


def iterative(tensor, seed=0):
    return float(power_norms(tensor[None], seed)[0])


def test_multiplicity_multinomial():
    assert multinomial((0, 0, 0, 0)) == 1
    assert multinomial((0, 0, 1, 1)) == 6      # 4!/(2!2!)
    assert multinomial((0, 1, 1, 2)) == 12     # 4!/(1!2!1!)
    assert multinomial((0, 1, 2, 2)) == 12


def test_hs_norm_counts_permutations():
    # single off-diagonal a_{12}=1 in a symmetric matrix has HS norm sqrt(2)
    values = np.zeros(3)
    values[canonical_layout(2, 2)[0].index((0, 1))] = 1.0
    assert hs_norms(values, 2, 2) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    # order 3, entry (0,1,2) appears 6 times
    values = np.zeros(10)
    values[canonical_layout(3, 3)[0].index((0, 1, 2))] = 2.0
    assert hs_norms(values, 3, 3) == pytest.approx(math.sqrt(6 * 4.0), rel=1e-15)


def test_hs_norm_matches_dense_frobenius():
    for seed, (order, dim) in enumerate([(2, 4), (3, 3), (4, 2)]):
        t = random_sym(order, dim, 100 + seed)
        assert hs_norm(t) == pytest.approx(float(np.linalg.norm(t.ravel())), rel=1e-12)


def test_dense_round_trip():
    indices, slots = canonical_layout(3, 4)
    values = np.random.default_rng(7).standard_normal(len(indices))
    t = values[slots].reshape((4,) * 3)
    # the canonical entries of the dense array are the values it was built from
    assert np.array_equal(canonical_values(t), values)
    # every permutation of an index reads the same dense entry
    for idx in indices:
        for perm in itertools.permutations(idx):
            assert t[perm] == t[idx]


def test_one_vector_draw_is_one_draw_per_canonical_index():
    # the tensor-norm runner draws a tensor's canonical values as one vector:
    # the same numbers, in the same order, as one scalar draw per index
    n = len(canonical_layout(4, 4)[0])
    whole, single = substream(5, 1), substream(5, 1)
    assert np.array_equal(whole.standard_normal(n), [single.standard_normal() for _ in range(n)])
    assert whole.standard_normal() == single.standard_normal()


# -- operator norm -------------------------------------------------------------


def test_opnorm_matrix_vs_eigvalsh():
    for seed in range(5):
        t = random_sym(2, 5, 200 + seed)
        exact = float(np.max(np.abs(np.linalg.eigvalsh(t))))
        assert iterative(t) == pytest.approx(exact, rel=1e-8)


def test_opnorm_certified_vs_iterative():
    for order, dim in [(2, 2), (3, 3), (4, 2), (3, 4)]:
        t = random_sym(order, dim, order * 10 + dim)
        # certified is a grid+refine lower-bound construction; the iterative
        # power method converges to the true value from random restarts
        assert certified_opnorm(t) == pytest.approx(iterative(t), rel=1e-4)


def test_opnorm_certified_matrix_vs_eigvalsh():
    for dim in (2, 3, 4):
        t = random_sym(2, dim, 300 + dim)
        exact = float(np.max(np.abs(np.linalg.eigvalsh(t))))
        assert certified_opnorm(t) == pytest.approx(exact, rel=1e-6)
        assert certified_opnorm(t) <= exact * (1 + 1e-12)


def test_opnorm_certified_unsupported_size():
    with pytest.raises(UnsupportedSizeError):
        certified_opnorm(random_sym(3, 5, 42))
    with pytest.raises(UnsupportedSizeError):
        certified_opnorm(random_sym(5, 2, 42))


def test_opnorm_never_below_witness_points():
    # |T| >= |T(u,...,u)| for any unit u: cheap lower-bound sanity
    rng = np.random.default_rng(77)
    t = random_sym(3, 4, 5)
    nrm = iterative(t)
    for _ in range(50):
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        assert abs(np.einsum("ijk,i,j,k->", t, u, u, u)) <= nrm + 1e-9


def test_opnorm_diagonal_tensor():
    # diag(3, -1) as an order-4 tensor: norm is max |diagonal|
    t = np.zeros((2,) * 4)
    t[0, 0, 0, 0], t[1, 1, 1, 1] = 3.0, -1.0
    assert iterative(t) == pytest.approx(3.0, rel=1e-9)
    assert certified_opnorm(t) == pytest.approx(3.0, rel=1e-6)


def test_opnorm_iterative_deterministic():
    t = random_sym(3, 3, 13)
    assert iterative(t, seed=4) == iterative(t, seed=4)


# -- properties ----------------------------------------------------------------

sym_tensors = st.builds(
    random_sym,
    order=st.integers(2, 4),
    dim=st.integers(2, 4),
    seed=st.integers(0, 10**6),
)


@settings(max_examples=20, deadline=None)
@given(t=sym_tensors, c=st.floats(-4, 4, allow_nan=False))
def test_scaling_homogeneous(t, c):
    s = c * t
    assert hs_norm(s) == pytest.approx(abs(c) * hs_norm(t), abs=1e-12)
    assert np.max(np.abs(s)) == pytest.approx(abs(c) * np.max(np.abs(t)), abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(t=sym_tensors, seed=st.integers(0, 999))
def test_permutation_invariance(t, seed):
    """Relabeling coordinates preserves every basis-free quantity."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(t.shape[0])
    s = t
    for axis in range(t.ndim):
        s = np.take(s, perm, axis=axis)
    assert hs_norm(s) == pytest.approx(hs_norm(t), rel=1e-12)
    assert np.max(np.abs(s)) == pytest.approx(np.max(np.abs(t)), rel=1e-12)
    assert iterative(s) == pytest.approx(iterative(t), rel=1e-7)


@settings(max_examples=20, deadline=None)
@given(t=sym_tensors)
def test_norm_chain(t):
    # standard comparisons: max entry <= op norm <= HS norm
    assert np.max(np.abs(t)) <= iterative(t) + 1e-9
    assert iterative(t) <= hs_norm(t) + 1e-9
