"""Polynomial calculus against naive-evaluation and finite-difference oracles."""

import itertools
import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoc import fixtures
from hoc.experiments import resolve
from hoc.polynomials import (EVAL_BLOCK, MultilinearSpec, PolyFunction,
                             from_multilinear, opnorm_gradient_check, partial_table)
from hoc.tensors import canonical_layout
import oracles
from oracles import expectation, mul, order_partials, shifted


def naive_eval(f, x):
    """Term-by-term evaluation, independent of the vectorized paths."""
    total = 0.0
    for exps, coeff in f.terms:
        v = coeff
        for xi, e in zip(x, exps):
            v *= xi ** e
        total += v
    return total


def dense_oracle(f, k, x):
    """The order-k derivative of f at the point x as a dense array, each slot
    its own mixed partial, independent of the batched paths."""
    out = np.empty((f.dim,) * k)
    for idx in itertools.product(range(f.dim), repeat=k):
        alpha = [0] * f.dim
        for i in idx:
            alpha[i] += 1
        out[idx] = oracles.partial(f, tuple(alpha)).evaluate(x)
    return out


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
    assert PolyFunction(3, ()).degree == 0


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


def term_loop(f, pts, out):
    """out += f at the rows of ``pts``, term by term: a fresh buffer per
    term, np.full(coeff), then one in-place product per factor."""
    for exps, coeff in f.terms:
        term = np.full(pts.shape[0], coeff)
        for i, e in enumerate(exps):
            if e == 1:
                term *= pts[:, i]
            elif e > 1:
                term *= pts[:, i] ** e
        out += term


def term_magnitudes(f, pts):
    """sum over the terms of |c x^alpha| at each row: the scale of the
    rounding error of any order of evaluation."""
    total = np.zeros(pts.shape[0])
    for exps, coeff in f.terms:
        total += np.abs(coeff * np.prod(pts ** np.array(exps), axis=1))
    return total


def test_adder_matches_the_grouped_twin_and_the_term_loop():
    # a constant, a leading power (x1^3 x2), a pure power, mixed terms and
    # two groups of more than one term (prefixes x1 and x2), evaluated
    # across an EVAL_BLOCK boundary: bit for bit the grouped twin, and
    # within rounding of the term loop
    f = PolyFunction.from_terms(3, {(0, 0, 0): 0.3, (3, 1, 0): -1.7, (0, 0, 4): 0.9,
                                    (1, 1, 1): 2.5, (0, 2, 1): -0.4, (1, 0, 0): 1.1,
                                    (2, 0, 0): 0.7, (1, 1, 0): -0.8, (1, 0, 1): 1.9,
                                    (0, 1, 1): 0.6, (0, 1, 2): -1.3})
    pts = np.random.default_rng(5).standard_normal((EVAL_BLOCK + 5, 3)) * 1.3
    values = f.evaluate(pts)
    assert np.array_equal(values, oracles.grouped_eval(f, pts))
    by_terms = np.zeros(pts.shape[0])
    term_loop(f, pts, by_terms)
    assert np.all(np.abs(values - by_terms) <= 1e-12 * term_magnitudes(f, pts))
    # column-major, a short block, and separate column arrays (the slot
    # pieces the sample stream hands over), through one adder
    add = f.adder()
    fortran, chunk = np.asfortranarray(pts), pts[:EVAL_BLOCK]
    for block, cols in ((fortran, fortran.T), (pts[:7], pts[:7].T),
                        (chunk, [np.ascontiguousarray(c) for c in chunk.T])):
        out = np.zeros(block.shape[0])
        add(cols, out)
        assert np.array_equal(out, oracles.grouped_eval(f, block))


@settings(max_examples=30, deadline=None)
@given(f=polys, seed=st.integers(0, 999))
def test_rows_keep_their_bits_at_every_batch_size(f, seed):
    pts = np.random.default_rng(seed).standard_normal((EVAL_BLOCK + 5, f.dim))
    whole = f.evaluate(pts)
    assert np.array_equal(f.evaluate(pts[:7]), whole[:7])
    for r in (0, 6, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 4):
        assert np.array_equal(f.evaluate(pts[r:r + 1]), whole[r:r + 1])
        assert f.evaluate(pts[r]) == whole[r]


def test_every_shipped_function_matches_naive_evaluation():
    kinds = ("certify", "tails", "multilinear", "weighted", "weighted-tail")
    names = [fx.name for fx in fixtures.inventory() if fx.kind in kinds]
    assert len(names) == 30
    for name in names:
        f = resolve({"kind": fixtures.by_name(name).kind, "seed": 0,
                     "fixture": name}).function
        pts = np.random.default_rng(3).standard_normal((40, f.dim))
        values = f.evaluate(pts)
        for row, value in zip(pts, values):
            assert value == pytest.approx(naive_eval(f, row), rel=1e-12, abs=1e-12), name


def test_algebra():
    rng = np.random.default_rng(5)
    f = random_poly(3, 3, 4, 1)
    g = random_poly(3, 2, 3, 2)
    x = rng.standard_normal(3)
    f_plus_g = PolyFunction.from_terms(3, f.terms + g.terms)
    assert f_plus_g.evaluate(x) == pytest.approx(f.evaluate(x) + g.evaluate(x), rel=1e-12)
    assert mul(f, g).evaluate(x) == pytest.approx(f.evaluate(x) * g.evaluate(x), rel=1e-12)
    assert shifted(f, -1.25).evaluate(x) == pytest.approx(f.evaluate(x) - 1.25, rel=1e-12)


def test_partial_explicit():
    # d/dx1 d/dx2 of x1^2 x2 is 2 x1
    f = PolyFunction.from_terms(2, [((2, 1), 1.0)])
    df = oracles.partial(f, (1, 1))
    assert df.terms == (((1, 0), 2.0),)
    # differentiating past the exponent kills the term
    assert oracles.partial(f, (3, 0)).terms == ()
    table = order_partials(f, 2)
    assert table[(0, 1)] == df
    assert tuple(order_partials(f, 1).values()) == (oracles.partial(f, (1, 0)),
                                                    oracles.partial(f, (0, 1)))
    # the package's partial table holds each order's partials, row by row
    exps, coeffs = f.term_arrays()
    for k in (1, 2):
        index, alpha, a_of, t_of, c = partial_table(exps, coeffs, k)
        for a, (idx, want) in enumerate(order_partials(f, k).items()):
            rows = a_of == a
            got = PolyFunction.from_terms(2, zip((exps[t_of[rows]] - alpha[a]).tolist(), c[rows]))
            assert tuple(index[a]) == idx and got == want


@settings(max_examples=25, deadline=None)
@given(f=polys, seed=st.integers(0, 999))
def test_gradient_matches_fd(f, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, size=f.dim)
    h = 1e-6
    for i, gi in enumerate(order_partials(f, 1).values()):
        e = np.zeros(f.dim)
        e[i] = h
        fd = (naive_eval(f, x + e) - naive_eval(f, x - e)) / (2 * h)
        assert gi.evaluate(x) == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_gradient_batch_and_hessian_batch():
    f = random_poly(3, 3, 5, 21)
    pts = np.random.default_rng(0).standard_normal((11, 3))
    gb = f.derivative_dense(1, pts)
    hb = f.derivative_dense(2, pts)
    gradient = list(order_partials(f, 1).values())
    for r in range(11):
        for i in range(3):
            assert gb[r, i] == pytest.approx(gradient[i].evaluate(pts[r]), rel=1e-12)
        assert np.allclose(hb[r], dense_oracle(f, 2, pts[r]), rtol=1e-12)
    assert np.allclose(hb, np.swapaxes(hb, 1, 2))
    # one full evaluation block plus a partial one: rows match smaller batches bit for bit
    big = np.random.default_rng(1).standard_normal((EVAL_BLOCK + 3, 3))
    gb, hb = f.derivative_dense(1, big), f.derivative_dense(2, big)
    for batch, whole in ((partial(f.derivative_dense, 1), gb),
                         (partial(f.derivative_dense, 2), hb)):
        assert np.array_equal(whole[:EVAL_BLOCK], batch(big[:EVAL_BLOCK]))
        assert np.array_equal(whole[EVAL_BLOCK:], batch(big[EVAL_BLOCK:]))
    for r in range(EVAL_BLOCK, EVAL_BLOCK + 3):
        assert np.array_equal(hb[r], dense_oracle(f, 2, big[r]))
    # orders 3 and 4: the dense stack is each point's partials, row by row
    for k in (3, 4):
        stack = f.derivative_dense(k, pts)
        assert stack.shape == (11,) + (3,) * k
        for r in range(11):
            assert np.array_equal(stack[r], dense_oracle(f, k, pts[r]))


def test_derivative_tensor_fd_oracle():
    # order-2 and order-3 tensors vs central differences of the gradient
    f = random_poly(2, 3, 6, 33)
    x = np.array([0.3, -0.7])
    h = 1e-5
    hess = f.derivative_dense(2, x[None, :])[0]
    gradient = list(order_partials(f, 1).values())
    for i, j in itertools.product(range(2), repeat=2):
        ei = np.zeros(2); ei[i] = h
        fd = (gradient[j].evaluate(x + ei) - gradient[j].evaluate(x - ei)) / (2 * h)
        assert hess[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_derivative_tensor_constant_top():
    f = PolyFunction.from_terms(2, [((2, 1), 4.0), ((1, 0), 1.0)])  # degree 3
    assert f.top_is_constant(3) and not f.top_is_constant(2)
    pts = np.random.default_rng(4).standard_normal((3, 2))
    top = f.derivative_dense(3, pts)
    # d^3/dx1^2 dx2 of 4 x1^2 x2 = 8, the same at every point
    assert np.all(top[:, 0, 0, 1] == 8.0)
    assert np.array_equal(top, np.broadcast_to(top[0], top.shape))
    assert not f.derivative_dense(4, pts).any()  # beyond the degree


def test_partial_table_matches_tensor():
    f = random_poly(3, 3, 6, 8)
    pts = np.random.default_rng(9).standard_normal((4, 3))
    # the table's partials come in canonical_layout order, which
    # derivative_dense reads
    for k in (1, 2, 3, 4):
        index = partial_table(*f.term_arrays(), k)[0]
        assert tuple(map(tuple, index.tolist())) == canonical_layout(k, 3)[0]
    indices = canonical_layout(2, 3)[0]
    vals = f.derivative_dense(2, pts)
    for r in range(4):
        dense = dense_oracle(f, 2, pts[r])
        for idx in indices:
            assert vals[(r,) + idx] == pytest.approx(dense[idx], rel=1e-12, abs=1e-12)


def test_expectation_gaussian_closed_form():
    def gmoment(i, k):
        # standard normal: odd moments 0, even are double factorials
        if k % 2:
            return 0.0
        return float(math.prod(range(k - 1, 0, -2)))

    f = PolyFunction.from_terms(2, [((4, 2), 3.0), ((1, 0), 7.0), ((0, 0), 1.0)])
    # E[3 x^4 y^2 + 7x + 1] = 3*3*1 + 0 + 1
    assert expectation(f, gmoment) == pytest.approx(10.0)
    # second moment via exact squaring vs hand expansion for f = x + y
    g = PolyFunction.from_terms(2, [((1, 0), 1.0), ((0, 1), 1.0)])
    assert expectation(mul(g, g), gmoment) == pytest.approx(2.0)


def test_expectation_infinite_moment():
    def heavy(i, k):
        return math.inf if k >= 2 else 0.0

    f = PolyFunction.from_terms(1, [((2,), -1.0)])
    assert expectation(f, heavy) == -math.inf


@settings(max_examples=20, deadline=None)
@given(f=polys)
def test_json_round_trip(f):
    # through JSON text, the way a config's function arrives
    assert PolyFunction.from_dict(json.loads(json.dumps(f.to_dict()))) == f


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
    f = from_multilinear(spec)
    indices, slots = canonical_layout(3, 4)
    coeffs = dict(spec.coeffs)
    tensor = np.array([coeffs.get(idx, 0.0) for idx in indices])[slots].reshape((4,) * 3)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = rng.standard_normal(4)
        # symmetrized tensor contracts to d! times the polynomial
        assert np.einsum("ijk,i,j,k->", tensor, x, x, x) == pytest.approx(
            math.factorial(3) * f.evaluate(x), rel=1e-12)
    # the top derivative is the tensor itself
    assert np.array_equal(f.derivative_dense(3, np.zeros((1, 4)))[0], tensor)
    # diagonal entries are zero by construction
    assert tensor[0, 0, 1] == 0.0


def test_multilinear_json_round_trip():
    spec = MultilinearSpec.from_coeffs(3, 2, {(0, 1): 1.0, (1, 2): -2.0})
    assert MultilinearSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


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
