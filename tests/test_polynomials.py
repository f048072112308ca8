"""Polynomial calculus against naive-evaluation and finite-difference oracles."""

import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoc.polynomials import (EVAL_BLOCK, MultilinearSpec, PolyFunction,
                             from_multilinear, opnorm_gradient_check)


def naive_eval(f, x):
    """Term-by-term evaluation, independent of the vectorized paths."""
    total = 0.0
    for exps, coeff in f.terms:
        v = coeff
        for xi, e in zip(x, exps):
            v *= xi ** e
        total += v
    return total


def random_poly(dim, max_degree, n_terms, seed):
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(n_terms):
        exps = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=dim))
        terms.append((exps, float(rng.standard_normal())))
    return PolyFunction.from_terms(dim, terms)


polys = st.builds(random_poly, dim=st.integers(1, 4), max_degree=st.integers(0, 3),
                  n_terms=st.integers(1, 6), seed=st.integers(0, 10**6))


def test_from_terms_merges_and_drops():
    f = PolyFunction.from_terms(2, [((1, 0), 2.0), ((1, 0), 3.0), ((0, 1), 0.0)])
    assert f.terms == (((1, 0), 5.0),)


def test_degree():
    f = PolyFunction.from_terms(2, [((2, 3), 1.0), ((4, 0), 1.0)])
    assert f.degree == 5
    assert PolyFunction.zero(3).degree == 0


@settings(max_examples=30, deadline=None)
@given(f=polys, seed=st.integers(0, 999))
def test_evaluate_matches_naive(f, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(f.dim)
    assert f.evaluate(x) == pytest.approx(naive_eval(f, x), rel=1e-12, abs=1e-12)
    # batch path agrees with per-point path
    pts = rng.standard_normal((7, f.dim))
    batch = f.evaluate(pts)
    for i in range(7):
        assert batch[i] == pytest.approx(naive_eval(f, pts[i]), rel=1e-12, abs=1e-12)


def test_algebra():
    rng = np.random.default_rng(5)
    f = random_poly(3, 3, 4, 1)
    g = random_poly(3, 2, 3, 2)
    x = rng.standard_normal(3)
    assert (f + g).evaluate(x) == pytest.approx(f.evaluate(x) + g.evaluate(x), rel=1e-12)
    assert (f * g).evaluate(x) == pytest.approx(f.evaluate(x) * g.evaluate(x), rel=1e-12)
    assert (f * 2.5).evaluate(x) == pytest.approx(2.5 * f.evaluate(x), rel=1e-12)
    assert f.shifted(-1.25).evaluate(x) == pytest.approx(f.evaluate(x) - 1.25, rel=1e-12)


def test_partial_explicit():
    # d/dx1 d/dx2 of x1^2 x2 is 2 x1
    f = PolyFunction.from_terms(2, [((2, 1), 1.0)])
    df = f.partial((1, 1))
    assert df.terms == (((1, 0), 2.0),)
    # differentiating past the exponent kills the term
    assert f.partial((3, 0)).terms == ()
    # each order's partials are worked out once and kept on the polynomial
    table = f._order_partials(2)
    assert f._order_partials(2) is table and table[(0, 1)] == df
    assert f.gradient == (f.partial((1, 0)), f.partial((0, 1)))


@settings(max_examples=25, deadline=None)
@given(f=polys, seed=st.integers(0, 999))
def test_gradient_matches_fd(f, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, size=f.dim)
    h = 1e-6
    for i, gi in enumerate(f.gradient):
        e = np.zeros(f.dim)
        e[i] = h
        fd = (naive_eval(f, x + e) - naive_eval(f, x - e)) / (2 * h)
        assert gi.evaluate(x) == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_gradient_batch_and_hessian_batch():
    f = random_poly(3, 3, 5, 21)
    pts = np.random.default_rng(0).standard_normal((11, 3))
    gb = f.derivative_dense(1, pts)
    hb = f.derivative_dense(2, pts)
    for r in range(11):
        for i in range(3):
            assert gb[r, i] == pytest.approx(f.gradient[i].evaluate(pts[r]), rel=1e-12)
        ht = f.derivative_tensor(2, pts[r])
        assert np.allclose(hb[r], ht.dense, rtol=1e-12)
    assert np.allclose(hb, np.swapaxes(hb, 1, 2))
    # one full evaluation block plus a partial one: rows match smaller batches bit for bit
    big = np.random.default_rng(1).standard_normal((EVAL_BLOCK + 3, 3))
    gb, hb = f.derivative_dense(1, big), f.derivative_dense(2, big)
    for batch, whole in ((partial(f.derivative_dense, 1), gb),
                         (partial(f.derivative_dense, 2), hb)):
        assert np.array_equal(whole[:EVAL_BLOCK], batch(big[:EVAL_BLOCK]))
        assert np.array_equal(whole[EVAL_BLOCK:], batch(big[EVAL_BLOCK:]))
    for r in range(EVAL_BLOCK, EVAL_BLOCK + 3):
        assert np.array_equal(hb[r], f.derivative_tensor(2, big[r]).dense)
    # orders 3 and 4: the dense stack is each point's SymTensor, row by row
    for k in (3, 4):
        stack = f.derivative_dense(k, pts)
        assert stack.shape == (11,) + (3,) * k
        for r in range(11):
            assert np.array_equal(stack[r], f.derivative_tensor(k, pts[r]).dense)


def test_derivative_tensor_fd_oracle():
    # order-2 and order-3 tensors vs central differences of the gradient
    f = random_poly(2, 3, 6, 33)
    x = np.array([0.3, -0.7])
    h = 1e-5
    hess = f.derivative_tensor(2, x).dense
    for i, j in itertools.product(range(2), repeat=2):
        ei = np.zeros(2); ei[i] = h
        fd = (f.gradient[j].evaluate(x + ei) - f.gradient[j].evaluate(x - ei)) / (2 * h)
        assert hess[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_derivative_tensor_constant_top():
    f = PolyFunction.from_terms(2, [((2, 1), 4.0), ((1, 0), 1.0)])  # degree 3
    t = f.derivative_tensor(3)  # constant, no point needed
    # d^3/dx1^2 dx2 of 4 x1^2 x2 = 8
    assert t.value_at((0, 0, 1)) == pytest.approx(8.0)
    assert f.derivative_tensor(4).hs_norm() == 0.0  # beyond the degree
    with pytest.raises(ValueError):
        f.derivative_tensor(2)  # non-constant order needs a point


def test_derivative_batch_matches_tensor():
    f = random_poly(3, 3, 6, 8)
    pts = np.random.default_rng(9).standard_normal((4, 3))
    indices, vals = f.derivative_batch(2, pts)
    for r in range(4):
        t = f.derivative_tensor(2, pts[r])
        for col, idx in enumerate(indices):
            assert vals[r, col] == pytest.approx(t.value_at(idx), rel=1e-12, abs=1e-12)


def test_expectation_gaussian_closed_form():
    def gmoment(i, k):
        # standard normal: odd moments 0, even are double factorials
        if k % 2:
            return 0.0
        return float(math.prod(range(k - 1, 0, -2)))

    f = PolyFunction.from_terms(2, [((4, 2), 3.0), ((1, 0), 7.0), ((0, 0), 1.0)])
    # E[3 x^4 y^2 + 7x + 1] = 3*3*1 + 0 + 1
    assert f.expectation(gmoment) == pytest.approx(10.0)
    # second moment via exact squaring vs hand expansion for f = x + y
    g = PolyFunction.from_terms(2, [((1, 0), 1.0), ((0, 1), 1.0)])
    assert g.second_moment(gmoment) == pytest.approx(2.0)


def test_expectation_infinite_moment():
    def heavy(i, k):
        return math.inf if k >= 2 else 0.0

    f = PolyFunction.from_terms(1, [((2,), -1.0)])
    assert f.expectation(heavy) == -math.inf


@settings(max_examples=20, deadline=None)
@given(f=polys)
def test_json_round_trip(f):
    assert PolyFunction.from_json(f.to_json()) == f


# -- multilinear specs -----------------------------------------------------------


def test_multilinear_rejects_repeats_and_disorder():
    with pytest.raises(ValueError):
        MultilinearSpec(3, 2, (((0, 0), 1.0),))
    with pytest.raises(ValueError):
        MultilinearSpec(3, 2, (((2, 1), 1.0),))
    with pytest.raises(ValueError):
        MultilinearSpec(2, 2, (((0, 5), 1.0),))


def test_from_multilinear_identities():
    spec = MultilinearSpec.from_coeffs(4, 3, {(0, 1, 2): 1.5, (1, 2, 3): -0.5,
                                              (0, 1, 3): 2.0})
    f, tensor = from_multilinear(spec)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = rng.standard_normal(4)
        # symmetrized tensor contracts to d! times the polynomial
        assert tensor.contract([x, x, x]) == pytest.approx(
            math.factorial(3) * f.evaluate(x), rel=1e-12)
    # the top derivative is the tensor itself
    assert f.derivative_tensor(3) == tensor
    # diagonal entries are zero by construction
    assert tensor.value_at((0, 0, 1)) == 0.0


def test_multilinear_json_round_trip():
    spec = MultilinearSpec.from_coeffs(3, 2, {(0, 1): 1.0, (1, 2): -2.0})
    assert MultilinearSpec.from_json(spec.to_json()) == spec


# -- opnorm gradient comparison -----------------------------------------------------


def test_opnorm_gradient_check_product_function():
    # f = x1 x2: |f'|_Op = |x|, its gradient has norm 1 everywhere off 0,
    # and |f''|_Op = 1. The comparison is tight here.
    f = PolyFunction.from_terms(2, [((1, 1), 1.0)])
    lhs, rhs = opnorm_gradient_check(f, 2, np.array([0.8, -0.6]))
    assert rhs == pytest.approx(1.0, rel=1e-12)
    assert lhs == pytest.approx(1.0, rel=1e-6)


def test_opnorm_gradient_check_requires_k2():
    f = PolyFunction.from_terms(2, [((1, 1), 1.0)])
    with pytest.raises(ValueError):
        opnorm_gradient_check(f, 1, np.zeros(2))


def test_opnorm_gradient_check_small_sweep():
    rng = np.random.default_rng(40)
    for q in range(6):
        f = random_poly(int(rng.integers(2, 4)), 3, 5, 300 + q)
        for _ in range(3):
            x = rng.uniform(-1, 1, size=f.dim)
            for k in (2, 3):
                lhs, rhs = opnorm_gradient_check(f, k, x)
                assert lhs <= rhs + 1e-3
