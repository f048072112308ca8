"""Dense symmetric tensors: canonical layout, norms, contractions against
einsum, and both op-norm searches against eigh and each other."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoc import UnsupportedSizeError, tensors
from hoc._util import substream
from hoc.tensors import (_apply, _fold, canonical_layout, certified_opnorm, hs_norms,
                         multinomial, op_norms, power_norms)


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


def einsum_diagonal(tensor, points):
    d = tensor.ndim
    letters = "abcdef"[:d]
    spec = ",".join("z" + c for c in letters)
    return np.einsum(letters + "," + spec + "->z", tensor,
                     *([points] * d))


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


# -- contractions ----------------------------------------------------------------


def test_fold_matches_einsum():
    # T[v, ..., v] for each row v, the value every search evaluates
    for order in (1, 2, 3, 4, 5):
        t = random_sym(order, 4, order)
        pts = np.random.default_rng(50 + order).standard_normal((20, 4))
        want = einsum_diagonal(t, pts)
        got = _fold(t[None], pts[None], 0)[0, :, 0]
        assert np.allclose(got, want, rtol=1e-10)


def test_apply_matches_fd_of_form():
    # T[v,..,v,.] is (1/d) * gradient of v -> T[v..v] for symmetric T
    order, dim = 3, 3
    t = random_sym(order, dim, 9)
    pts = np.random.default_rng(1).standard_normal((5, dim))
    grad = _apply(t[None], pts[None])[0]
    h = 1e-6
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        num = (einsum_diagonal(t, pts + e) - einsum_diagonal(t, pts - e)) / (2 * h)
        assert np.allclose(order * grad[:, j], num, rtol=1e-5, atol=1e-7)


# -- operator norm -------------------------------------------------------------


def test_power_norms_matrix_sweep():
    # the +T sweep of the shifted power map finds the top eigenvalue and the
    # -T sweep minus the bottom one: on PSD and NSD matrices each alone gives
    # the spectral norm
    t = random_sym(2, 6, 31)
    eig = np.linalg.eigvalsh(t)
    psd = t - eig[0] * np.eye(6)  # spectrum 0 .. eig[-1] - eig[0]
    hi, lo, both = power_norms(np.stack([psd, -psd, t]), 2)
    assert hi == pytest.approx(float(eig[-1] - eig[0]), rel=1e-8)
    assert lo == pytest.approx(float(eig[-1] - eig[0]), rel=1e-8)
    assert both == pytest.approx(float(np.max(np.abs(eig))), rel=1e-8)


def test_power_norms_stack_matches_one_tensor_calls(monkeypatch):
    # each tensor stops on its own restarts, so its value is what it gives in a
    # stack of one, whatever else shares the stack
    for order in (1, 2, 3, 4):
        stack = np.stack([random_sym(order, 3, 10 * order + i) for i in range(6)]
                         + [np.zeros((3,) * order)])
        whole = power_norms(stack, 3)
        alone = [power_norms(stack[i:i + 1], 3)[0] for i in range(7)]
        assert np.array_equal(whole, alone)
        assert whole[-1] == 0.0
        if order > 1:
            # step counts differ: after 20 steps some tensors have stopped, some not
            monkeypatch.setattr(tensors, "POWER_MAX_ITER", 20)
            with pytest.warns(RuntimeWarning, match="stopped at max_iter=20"):
                early = power_norms(stack, 3)
            assert 0 < np.sum(early == whole) < 7
            monkeypatch.undo()


def test_power_norms_reports_max_iter_stops(monkeypatch):
    stack = np.stack([random_sym(3, 4, 5 + i) for i in range(3)] + [np.zeros((4,) * 3)])
    converged = power_norms(stack, 4)
    monkeypatch.setattr(tensors, "POWER_MAX_ITER", 1)
    with pytest.warns(RuntimeWarning) as record:
        capped = power_norms(stack, 4)
    # one warning for the whole stack; the zero tensor converges at once
    assert len(record) == 1
    assert "3 of 4 tensors stopped at max_iter=1" in str(record[0].message)
    assert capped[-1] == converged[-1] == 0.0
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        power_norms(stack, 4)


def test_shipped_tails_fixture_converges(monkeypatch):
    # the constant order-3 derivative of the largest shipped chaos: its
    # operator norm at the origin, as bounds.constant_top_op reads an
    # order-3 top, comes from the power iteration
    from hoc import fixtures
    from hoc.polynomials import MultilinearSpec, from_multilinear

    payload = fixtures.by_name("gaussian-chaos-n10-d3-tails").payload
    f = from_multilinear(MultilinearSpec.from_dict(payload["multilinear"]))
    calls = []
    original = tensors.power_norms
    monkeypatch.setattr(tensors, "power_norms",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norm = op_norms(f.derivative_dense(3, np.zeros((1, f.dim))))[0]
    assert calls and 0.0 < norm <= 1.0  # the coefficient tensor has unit HS norm



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


def test_certified_opnorm_shape_validation():
    with pytest.raises(ValueError):
        certified_opnorm(np.ones((3, 2)))                         # not (n, ..., n)
    with pytest.raises(ValueError):
        certified_opnorm(1.0)                                     # no axis


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
