"""Closed-form bound machinery: frozen values, hypothesis errors, scaling laws.

The frozen literals were computed by hand from the route formulas (see the
docstrings in hoc.bounds); freezing them here keeps later refactors honest.
"""

import math
from math import e, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoc import bounds as B
from hoc.measures import MeasureSpec
from hoc.polynomials import EVAL_BLOCK, MultilinearSpec, PolyFunction


def profile(d=2, sigma=1.0, norms2=(1.0,), top_inf=1.0, **kw):
    return B.DerivativeProfile(d, sigma, norms2, top_inf, **kw)


# -- universal constants ------------------------------------------------------------


def test_universal_constants():
    assert B.EXP_MOMENT_COEFF == pytest.approx(0.030656620097620192, rel=1e-15)
    assert B.EXP_MOMENT_COEFF == 1.0 / (12.0 * e)
    assert B.TAIL_PREFACTOR == e**2
    assert B.EXP_THRESHOLD == 2.0


def test_subexponential_constant():
    # gamma = 6 reproduces the exp-moment coefficient 1/(12e)
    assert B.subexponential_constant(6.0) == B.EXP_MOMENT_COEFF
    assert B.subexponential_constant(1.0) == pytest.approx(1.0 / (2.0 * e), rel=1e-15)
    with pytest.raises(ValueError):
        B.subexponential_constant(0.0)


# -- profiles --------------------------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        B.DerivativeProfile(0, 1.0, ())
    with pytest.raises(ValueError):
        B.DerivativeProfile(2, 0.0, (1.0,))
    with pytest.raises(ValueError):
        B.DerivativeProfile(3, 1.0, (1.0,))  # needs two ladder slots
    with pytest.raises(ValueError):
        B.DerivativeProfile(2, 1.0, (-1.0,))


def test_profile_scaled():
    p = profile(d=3, norms2=(4.0, 2.0), top_inf=8.0, top_hs=6.0,
                 top_p=lambda q: 8.0, norms2_se=(0.4, 0.2), top_hs_se=0.6)
    s = p.scaled(2.0)
    assert s.norms2 == (2.0, 1.0)
    assert s.top_inf == 4.0 and s.top_hs == 3.0
    assert s.top_p(5) == 4.0
    assert s.norms2_se == (0.2, 0.1) and s.top_hs_se == 0.3
    with pytest.raises(ValueError):
        p.scaled(0.0)


# -- moment bounds ----------------------------------------------------------------


def test_iterated_moment_bound_explicit():
    p = profile(d=2, sigma=1.0, norms2=(3.0,), top_inf=2.0)
    # (p/sqrt2)*3 + (p/sqrt2)^2*2 at p = 2
    want = sqrt(2.0) * 3.0 + 2.0 * 2.0
    assert B.iterated_moment_bound(p, 2) == pytest.approx(want, rel=1e-14)
    # a p-dependent top norm takes priority over the uniform one
    p2 = profile(d=2, sigma=1.0, norms2=(3.0,), top_inf=2.0, top_p=lambda q: q)
    assert B.iterated_moment_bound(p2, 2) == pytest.approx(sqrt(2.0) * 3.0 + 2.0 * 2.0)
    assert B.iterated_moment_bound(p2, 4) == pytest.approx(
        4.0 / sqrt(2.0) * 3.0 + (4.0 / sqrt(2.0)) ** 2 * 4.0)
    with pytest.raises(ValueError):
        B.iterated_moment_bound(p, 1.5)
    with pytest.raises(B.MissingNormError):
        B.iterated_moment_bound(profile(top_inf=None), 2)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 4), sigma=st.floats(0.5, 2.0), p=st.floats(2.0, 8.0))
def test_normalized_ladder_respects_cap(d, sigma, p):
    """With norms at the normalized reference values the closed form stays
    below 4 (sigma p / sqrt 2)^d."""
    prof = B.DerivativeProfile(d, sigma, tuple(sigma ** (d - k) for k in range(1, d)),
                               top_inf=1.0)
    assert B.iterated_moment_bound(prof, p) <= B.normalized_moment_cap(sigma, d, p) * (1 + 1e-12)


def test_gradient_moment_bound():
    assert B.gradient_moment_bound(1.0, 2, sqrt(2.0)) == pytest.approx(2.0, rel=1e-14)
    assert B.gradient_moment_bound(1.0, 2, sqrt(2.0), l2=1.0) == pytest.approx(3.0, rel=1e-14)
    with pytest.raises(ValueError):
        B.gradient_moment_bound(1.0, 0.5, 1.0)


def test_gradient_bound_sigma_tenth_fails():
    """The suite-wide negative control, in exact arithmetic: f = x1 x2 under
    the standard gaussian pair has ||f||_2 = 1 and ||grad f||_2 = sqrt(2), so
    the one-step bound dominates at sigma = 1 and collapses at sigma / 10."""
    l2_f = 1.0
    grad_l2 = sqrt(2.0)
    assert B.gradient_moment_bound(1.0, 2, grad_l2) >= l2_f
    assert B.gradient_moment_bound(0.1, 2, grad_l2) < l2_f


def test_moment_certificate_round_trip():
    p = profile(d=2, norms2=(3.0,), top_inf=2.0)
    cert = B.moment_certificate(p)
    assert cert.kind == "moment" and cert.route == "ladder-inf"
    assert cert.moment_bound(4) == pytest.approx(B.iterated_moment_bound(p, 4), rel=1e-14)
    with pytest.raises(B.MissingNormError):
        B.moment_certificate(profile(top_inf=None))


# -- exp-moment certificates ----------------------------------------------------


def test_exp_certificate_route_11_rescale():
    p = profile(d=3, sigma=0.8, norms2=(2.0, 0.5), top_inf=1.2,
                centered=True)
    cert = B.exp_moment_certificate(p)
    assert cert.route == "ladder-inf"
    # lambda = max(1, top_inf, norms2[k-1]/sigma^(d-k)) = 2.0 / 0.8^2
    assert cert.rescale_lambda == pytest.approx(3.125, rel=1e-12)
    rate, power, threshold = cert.exp_params()
    assert rate == pytest.approx(0.02621104148666797, rel=1e-12)
    assert power == pytest.approx(1.0 / 3.0)
    assert threshold == 2.0


def test_exp_certificate_route_12():
    p = profile(d=2, sigma=1.0, norms2=(0.9,), top_inf=0.3, top_hs=2.5,
                centered=True, derivs_centered=True)
    cert = B.exp_moment_certificate(p)
    assert cert.route == "ladder-hs"  # auto-selected when the HS route applies
    assert cert.rescale_lambda == pytest.approx(2.5)
    assert cert.exp_params()[0] == pytest.approx(0.01938894897419466, rel=1e-12)
    # explicit route override still works
    assert B.exp_moment_certificate(p, route="ladder-inf").route == "ladder-inf"


def test_exp_certificate_hypothesis_errors():
    with pytest.raises(B.MissingHypothesisError):
        B.exp_moment_certificate(profile(centered=False))
    with pytest.raises(B.MissingNormError):
        B.exp_moment_certificate(profile(top_inf=None, centered=True))
    off_center = profile(top_hs=1.0, centered=True, derivs_centered=False)
    with pytest.raises(B.MissingHypothesisError):
        B.exp_moment_certificate(off_center, route="ladder-hs")
    no_hs = profile(centered=True, derivs_centered=True, top_hs=None)
    with pytest.raises(B.MissingNormError):
        B.exp_moment_certificate(no_hs, route="ladder-hs")
    with pytest.raises(ValueError):
        B.exp_moment_certificate(profile(centered=True), route="2.7")


def test_exp_certificate_lambda_floor():
    # small norms do not push the rate above c / sigma
    p = profile(d=2, sigma=1.0, norms2=(1e-3,), top_inf=1e-3, centered=True)
    cert = B.exp_moment_certificate(p)
    assert cert.rescale_lambda == 1.0
    assert cert.exp_params()[0] == pytest.approx(B.EXP_MOMENT_COEFF)


# -- tail bounds -----------------------------------------------------------------


def test_tail_13_frozen_value():
    cert = B.tail_certificate(profile(centered=True))
    # d=2, sigma=1, norms=(1,), top=1 at t=100: eta = sqrt(2)*10
    assert cert.tail_bound(100.0) == pytest.approx(0.548098384102524, rel=1e-12)
    assert B.derivative_tail_bound(profile(centered=True), 100.0) == \
        cert.tail_bound(100.0)


def test_tail_requires_centered():
    with pytest.raises(B.MissingHypothesisError):
        B.tail_certificate(profile(centered=False))


def test_tail_caps_and_edges():
    cert = B.tail_certificate(profile(centered=True))
    assert cert.tail_bound(0.0) == 1.0
    assert cert.tail_bound(-3.0) == 1.0
    assert cert.tail_bound(1e-9) == 1.0  # prefactor region, capped
    grid = np.linspace(0.1, 400.0, 200)
    vals = cert.tail_bound(grid)
    assert isinstance(vals, np.ndarray) and vals.shape == grid.shape
    assert np.all(np.diff(vals) <= 1e-15)  # nonincreasing
    assert np.all((vals >= 0) & (vals <= 1))
    assert isinstance(cert.tail_bound(5.0), float)


def test_tail_rescale_shifts_argument():
    base = B.tail_certificate(profile(centered=True))
    scaled = B.Certificate("tail", "ladder-tail", dict(base.constants), rescale_lambda=2.0)
    for t in (5.0, 50.0, 200.0):
        assert scaled.tail_bound(t) == pytest.approx(base.tail_bound(t / 2.0), rel=1e-14)


def test_tail_zero_norm_terms_drop():
    # a zero ladder entry contributes no eta term instead of a zero division
    cert = B.tail_certificate(profile(norms2=(0.0,), centered=True))
    t = 123.0
    want = min(1.0, e**2 * math.exp(-sqrt(2.0) * sqrt(t) / (2.0 * e)))
    assert cert.tail_bound(t) == pytest.approx(want, rel=1e-12)


def test_tail_missing_top_is_trivial():
    cert = B.tail_certificate(profile(top_inf=None, centered=True))
    assert cert.tail_bound(1e6) == 1.0


def test_tail_zero_function():
    cert = B.tail_certificate(profile(norms2=(0.0,), top_inf=0.0, centered=True))
    assert cert.tail_bound(0.5) == 0.0
    assert cert.tail_bound(0.0) == 1.0


# -- weighted route ---------------------------------------------------------------


def test_weight_coefficient_frozen():
    # (2^((k-2)/2) p w)^k at k=2 is (p w)^2
    assert B.weight_term_coefficient(2, 3.0, 0.5) == pytest.approx(2.25, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 6), p=st.floats(1.0, 8.0), w=st.floats(0.01, 4.0))
def test_weight_coefficient_identity(k, p, w):
    """The reduced coefficient equals the unreduced iterated form
    2^C(k,2) (p w / sqrt 2)^k; both appear in the derivations."""
    a = B.weight_term_coefficient(k, p, w)
    b = B._weight_term_coefficient_iterated(k, p, w)
    assert a == pytest.approx(b, rel=1e-11)


def test_weighted_profile_validation():
    with pytest.raises(ValueError):
        B.WeightedProfile(2, 1.5, (0.5, 0.5), (1.0,))  # p < 2
    with pytest.raises(ValueError):
        B.WeightedProfile(2, 2.0, (0.5,), (1.0,))  # missing wnorm slot
    wp = B.WeightedProfile(2, 2.0, (0.5, None), (1.0,), top_mixed=1.0)
    with pytest.raises(B.MissingNormError):
        wp.wnorm(2)
    with pytest.raises(ValueError):
        wp.wnorm(3)


def test_weighted_moment_bounds_hand_value():
    wp = B.WeightedProfile(2, 2.0, (0.5, 0.3), (2.0,), top_mixed=1.5, top_2dp=1.0)
    bm, bp = B.weighted_moment_bounds(wp)
    ladder = (2.0 ** (-0.5) * 2.0 * 0.5) * 2.0
    assert bm == pytest.approx(ladder + 4.0 * 0.5 * 1.5, rel=1e-14)
    assert bp == pytest.approx(ladder + (2.0 * 0.3) ** 2 * 1.0, rel=1e-14)
    cert = B.weighted_moment_certificate(wp)
    assert cert.route == "weighted-ladder"
    assert cert.moment_bound(2.0) == pytest.approx(min(bm, bp), rel=1e-14)
    with pytest.raises(ValueError):
        cert.moment_bound(3.0)  # pinned to its p


def test_weighted_moment_bounds_partial_tops():
    wp = B.WeightedProfile(2, 2.0, (0.5, 0.3), (2.0,), top_mixed=None, top_2dp=1.0)
    bm, bp = B.weighted_moment_bounds(wp)
    assert bm is None and bp is not None
    with pytest.raises(B.MissingNormError):
        B.weighted_moment_bounds(B.WeightedProfile(2, 2.0, (0.5, 0.3), (2.0,)))


def test_weighted_tail_frozen_values():
    # capped inside the window
    assert B.weighted_tail_bound(1.0, 2.0, 2, 100.0) == 1.0
    # beyond the window the moment-Markov branch takes over
    assert B.weighted_tail_bound(1.0, 2.0, 2, 5000.0) == \
        pytest.approx(0.02188446509180685, rel=1e-12)
    assert B.weighted_tail_bound(1.0, 2.0, 2, 5000.0) == \
        pytest.approx(math.exp(2.0 / e) * (512.0 / 5000.0) ** 2, rel=1e-14)


def test_weighted_tail_window_continuity():
    cert = B.weighted_tail_certificate(1.0, 2.0, 2)
    w_end = cert.constants["window_end"]
    assert w_end == pytest.approx(3783.1967226524935, rel=1e-12)
    lo = cert.tail_bound(w_end * (1 - 1e-9))
    hi = cert.tail_bound(w_end * (1 + 1e-9))
    assert lo == pytest.approx(hi, rel=1e-6)  # the two branches meet at the window end


def test_weighted_tail_validation():
    with pytest.raises(ValueError):
        B.weighted_tail_certificate(0.5, 2.0, 2)  # below the 2^(-1/2) floor
    with pytest.raises(ValueError):
        B.weighted_tail_certificate(1.0, 1.5, 2)
    # the d=1 floor is 1; C=1 is admissible
    assert B.weighted_tail_certificate(1.0, 2.0, 1).constants["d"] == 1


def test_weighted_tail_rescale():
    base = B.weighted_tail_certificate(1.0, 2.0, 2)
    scaled = B.weighted_tail_certificate(1.0, 2.0, 2, rescale_lambda=3.0)
    assert scaled.tail_bound(9000.0) == pytest.approx(base.tail_bound(3000.0), rel=1e-14)


# -- multilinear route ---------------------------------------------------------------


def test_multilinear_certificates_rates():
    spec = MultilinearSpec.from_coeffs(4, 2, {(0, 1): 1.0, (2, 3): -1.0})
    certs = B.multilinear_certificates(spec, sigma=1.0, centered=True, unit_variance=True)
    # hs norm counts both permutations of each pair: sqrt(2*(1+1)) = 2
    assert certs["exp_hs"].constants["hs_norm"] == pytest.approx(2.0, rel=1e-14)
    assert certs["exp_hs"].exp_params()[0] == pytest.approx(
        B.EXP_MOMENT_COEFF / sqrt(2.0), rel=1e-12)
    # inf form: c / (sigma sqrt(n) amax^(1/d)) with n=4, amax=1
    assert certs["exp_inf"].exp_params()[0] == pytest.approx(
        B.EXP_MOMENT_COEFF / 2.0, rel=1e-12)
    assert set(certs) == {"exp_hs", "exp_inf", "tail_hs", "tail_inf"}


def test_multilinear_tails_need_unit_variance():
    spec = MultilinearSpec.from_coeffs(3, 2, {(0, 1): 1.0})
    certs = B.multilinear_certificates(spec, 1.0, centered=True, unit_variance=False)
    assert set(certs) == {"exp_hs", "exp_inf"}
    with pytest.raises(B.MissingHypothesisError):
        B.multilinear_certificates(spec, 1.0, centered=False, unit_variance=True)


def test_multilinear_tail_frozen_value():
    # single coefficient 1/sqrt(2) makes hs_norm exactly 1
    spec = MultilinearSpec.from_coeffs(2, 2, {(0, 1): 1.0 / sqrt(2.0)})
    certs = B.multilinear_certificates(spec, 1.0, centered=True, unit_variance=True)
    # arg = min(t/hs, sqrt(t)/sqrt(hs)) = 10 at t = 100
    assert certs["tail_hs"].tail_bound(100.0) == pytest.approx(0.548098384102524, rel=1e-12)
    inf_cert = certs["tail_inf"]
    amax = 1.0 / sqrt(2.0)
    arg = min(200.0 / (2.0 * amax), sqrt(200.0) / (sqrt(2.0) * sqrt(amax)))
    want = min(1.0, e**2 * math.exp(-sqrt(2.0) * arg / (2.0 * e)))
    assert inf_cert.tail_bound(200.0) == pytest.approx(want, rel=1e-12)


def test_rmt_tail_evaluator():
    cert = B.Certificate("tail", "wigner-lss", {"matrix_size": 100, "grad_l2": 1.0,
                                         "fpp_inf": 1.0, "sigma": sqrt(2.0)})
    # arg = min(t sqrt(N), sqrt(t) N^(1/4)) = sqrt(30)*100^0.25 at t=30
    want = min(1.0, e**2 * math.exp(-sqrt(30.0) * 100 ** 0.25 / (sqrt(2.0) * 2 * e)))
    assert cert.tail_bound(30.0) == pytest.approx(want, rel=1e-12)
    only_grad = B.Certificate("tail", "wigner-lss", {"matrix_size": 100, "grad_l2": 1.0,
                                              "fpp_inf": 0.0, "sigma": sqrt(2.0)})
    want2 = min(1.0, e**2 * math.exp(-2.0 * 10.0 / (sqrt(2.0) * 2 * e)))
    assert only_grad.tail_bound(2.0) == pytest.approx(want2, rel=1e-12)


# -- certificate container ---------------------------------------------------------


def test_certificate_kind_guards():
    tail = B.tail_certificate(profile(centered=True))
    with pytest.raises(ValueError):
        tail.exp_params()
    with pytest.raises(ValueError):
        tail.moment_bound(2)
    exp_cert = B.exp_moment_certificate(profile(centered=True))
    with pytest.raises(ValueError):
        exp_cert.tail_bound(1.0)
    with pytest.raises(ValueError):
        B.Certificate("spectral", "ladder-inf", {})


def test_certificate_json_round_trip():
    certs = [
        B.tail_certificate(profile(centered=True)),
        B.exp_moment_certificate(profile(centered=True)),
        B.weighted_tail_certificate(1.0, 2.0, 2, rescale_lambda=1.5),
    ]
    for cert in certs:
        again = B.Certificate.from_json(cert.to_json())
        assert again.kind == cert.kind and again.route == cert.route
        assert again.rescale_lambda == cert.rescale_lambda
        if cert.kind == "tail":
            assert again.tail_bound(7.0) == cert.tail_bound(7.0)
        else:
            assert again.exp_params() == cert.exp_params()
    # numpy values and NaN constants serialize to strict JSON (NaN as null)
    odd = B.Certificate("tail", "ladder-tail",
                        {"norms2": np.array([1.0, 2.0]), "gap": np.float64("nan")})
    text = odd.to_json()
    assert "NaN" not in text
    assert B.Certificate.from_json(text).constants == {"norms2": [1.0, 2.0], "gap": None}


def test_unknown_tail_route_rejected():
    cert = B.Certificate("tail", "9.9", {"d": 2})
    with pytest.raises(ValueError):
        cert.tail_bound(1.0)


# -- profile estimation -------------------------------------------------------------


def test_profile_from_function_bilinear():
    f = PolyFunction.from_terms(2, [((1, 1), 1.0)])
    spec = MeasureSpec.iid("gaussian", 2)
    prof = B.profile_from_function(f, spec, 2, m=20_000, seed=5)
    assert prof.order == 2 and prof.sigma == 1.0
    assert prof.centered and prof.derivs_centered
    # constant hessian: uniform norm exactly 1, HS norm exactly sqrt(2)
    assert prof.top_inf == pytest.approx(1.0, rel=1e-6)
    assert prof.top_inf_exact
    assert prof.top_hs == pytest.approx(sqrt(2.0), rel=1e-12)
    assert prof.top_hs_se == 0.0
    assert prof.top_p(6.0) == pytest.approx(prof.top_inf, rel=1e-12)
    # E |grad f|^2 = E x1^2 + x2^2 = 2
    assert prof.norms2[0] == pytest.approx(sqrt(2.0), abs=6 * prof.norms2_se[0])
    with pytest.raises(ValueError):
        B.profile_from_function(f, spec, 2, m=500)


def test_opnorm_values_blocked_match_whole_batch():
    f = PolyFunction.from_terms(3, {(2, 1, 0): 1.5, (0, 1, 2): -0.75, (1, 1, 1): 2.0,
                                    (3, 0, 0): 0.25})
    pts = np.random.default_rng(8).standard_normal((2 * EVAL_BLOCK + 5, 3))
    hess = np.max(np.abs(np.linalg.eigvalsh(f.derivative_dense(2, pts))), axis=1)
    assert np.array_equal(B._opnorm_values(f, 2, pts), hess)
    grad = np.linalg.norm(f.derivative_dense(1, pts), axis=1)
    assert np.array_equal(B._opnorm_values(f, 1, pts), grad)


def test_opnorm_values_order3_match_per_point_symtensor(monkeypatch):
    # the stacked power iteration gives each point what SymTensor.op_norm gives it
    f = PolyFunction.from_terms(3, {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0,
                                    (1, 1, 1): 1.0, (2, 1, 1): -0.5, (0, 0, 0): -9.0})
    pts = np.random.default_rng(12).standard_normal((50, 3))
    monkeypatch.setattr(B, "OPNORM_POINT_CAP", 40)
    monkeypatch.setattr(B, "_DENSE_BLOCK_FLOATS", 16 * 27)  # blocks of 16 points
    got = B._opnorm_values(f, 3, pts)
    want = [f.derivative_tensor(3, pt).op_norm("iterative") for pt in pts[:40]]
    assert np.array_equal(got, want)
