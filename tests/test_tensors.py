"""Symmetric tensor container: canonicalization, norms, contraction, op-norm modes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoc.tensors import SymTensor, UnsupportedSizeError, canonical_layout, multinomial


def random_sym(order, dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    entries = {}
    for idx in itertools.combinations_with_replacement(range(dim), order):
        entries[idx] = scale * rng.standard_normal()
    return SymTensor.from_entries(order, dim, entries)


def test_entries_canonicalized():
    t = SymTensor.from_entries(2, 3, {(2, 0): 1.5})
    assert t.dense[0, 2] == 1.5
    assert t.dense[2, 0] == 1.5
    assert t.dense[1, 2] == 0.0
    # stored under the sorted key only
    assert dict(t.entries) == {(0, 2): 1.5}


def test_conflicting_permutations_rejected():
    with pytest.raises(ValueError):
        SymTensor.from_entries(2, 2, {(0, 1): 1.0, (1, 0): 2.0})


def test_consistent_permutations_collapse():
    t = SymTensor.from_entries(3, 2, {(0, 1, 1): 2.0, (1, 0, 1): 2.0})
    assert dict(t.entries) == {(0, 1, 1): 2.0}


def test_multiplicity_multinomial():
    assert multinomial((0, 0, 0, 0)) == 1
    assert multinomial((0, 0, 1, 1)) == 6      # 4!/(2!2!)
    assert multinomial((0, 1, 1, 2)) == 12     # 4!/(1!2!1!)
    assert multinomial((0, 1, 2, 2)) == 12


def test_hs_norm_counts_permutations():
    # single off-diagonal a_{12}=1 in a symmetric matrix has HS norm sqrt(2)
    t = SymTensor.from_entries(2, 2, {(0, 1): 1.0})
    assert t.hs_norm() == pytest.approx(math.sqrt(2.0), rel=1e-15)
    # order 3, entry (0,1,2) appears 6 times
    t3 = SymTensor.from_entries(3, 3, {(0, 1, 2): 2.0})
    assert t3.hs_norm() == pytest.approx(math.sqrt(6 * 4.0), rel=1e-15)


def test_hs_norm_matches_dense_frobenius():
    for seed, (order, dim) in enumerate([(2, 4), (3, 3), (4, 2)]):
        t = random_sym(order, dim, 100 + seed)
        assert t.hs_norm() == pytest.approx(
            float(np.linalg.norm(t.dense.ravel())), rel=1e-12)


def test_dense_round_trip():
    t = random_sym(3, 4, 7)
    indices = canonical_layout(3, 4)[0]
    back = SymTensor.from_entries(3, 4, {idx: t.dense[idx] for idx in indices})
    assert back == t
    # every permutation of an index reads the same dense entry
    for idx in indices:
        for perm in itertools.permutations(idx):
            assert t.dense[perm] == t.dense[idx]


def test_contract_matches_dense_einsum():
    rng = np.random.default_rng(3)
    t = random_sym(3, 3, 11)
    vecs = [rng.standard_normal(3) for _ in range(3)]
    want = np.einsum("ijk,i,j,k->", t.dense, *vecs)
    assert t.contract(vecs) == pytest.approx(float(want), rel=1e-12)


# -- operator norm -------------------------------------------------------------


def test_opnorm_matrix_vs_eigvalsh():
    for seed in range(5):
        t = random_sym(2, 5, 200 + seed)
        exact = float(np.max(np.abs(np.linalg.eigvalsh(t.dense))))
        assert t.op_norm("iterative") == pytest.approx(exact, rel=1e-8)


def test_opnorm_certified_vs_iterative():
    for order, dim in [(2, 2), (3, 3), (4, 2), (3, 4)]:
        t = random_sym(order, dim, order * 10 + dim)
        cert = t.op_norm("certified")
        it = t.op_norm("iterative")
        # certified is a grid+refine lower-bound construction; the iterative
        # power method converges to the true value from random restarts
        assert cert == pytest.approx(it, rel=1e-4)


def test_opnorm_certified_unsupported_size():
    t = random_sym(3, 5, 42)
    with pytest.raises(UnsupportedSizeError):
        t.op_norm("certified")


def test_opnorm_never_below_witness_points():
    # |T| >= |T(u,...,u)| for any unit u: cheap lower-bound sanity
    rng = np.random.default_rng(77)
    t = random_sym(3, 4, 5)
    nrm = t.op_norm("iterative")
    for _ in range(50):
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        assert abs(t.contract([u, u, u])) <= nrm + 1e-9


def test_opnorm_diagonal_tensor():
    # diag(3, -1) as an order-4 tensor: norm is max |diagonal|
    t = SymTensor.from_entries(4, 2, {(0, 0, 0, 0): 3.0, (1, 1, 1, 1): -1.0})
    assert t.op_norm("iterative") == pytest.approx(3.0, rel=1e-9)
    assert t.op_norm("certified") == pytest.approx(3.0, rel=1e-6)


def test_opnorm_iterative_deterministic():
    t = random_sym(3, 3, 13)
    assert t.op_norm("iterative", seed=4) == t.op_norm("iterative", seed=4)


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
    s = SymTensor(t.order, t.dim, tuple((idx, c * val) for idx, val in t.entries))
    assert s.hs_norm() == pytest.approx(abs(c) * t.hs_norm(), abs=1e-12)
    assert s.max_abs_entry() == pytest.approx(abs(c) * t.max_abs_entry(), abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(t=sym_tensors, seed=st.integers(0, 999))
def test_permutation_invariance(t, seed):
    """Relabeling coordinates preserves every basis-free quantity."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(t.dim)
    moved = t.dense
    for axis in range(t.order):
        moved = np.take(moved, perm, axis=axis)
    s = SymTensor.from_entries(t.order, t.dim, {idx: moved[idx] for idx in
                                                 canonical_layout(t.order, t.dim)[0]})
    assert s.hs_norm() == pytest.approx(t.hs_norm(), rel=1e-12)
    assert s.max_abs_entry() == pytest.approx(t.max_abs_entry(), rel=1e-12)
    assert s.op_norm("iterative") == pytest.approx(t.op_norm("iterative"), rel=1e-7)


@settings(max_examples=20, deadline=None)
@given(t=sym_tensors)
def test_norm_chain(t):
    # standard comparisons: max entry <= op norm <= HS norm
    assert t.max_abs_entry() <= t.op_norm("iterative") + 1e-9
    assert t.op_norm("iterative") <= t.hs_norm() + 1e-9
