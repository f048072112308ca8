"""Closed-form bound machinery: frozen values, hypothesis errors, scaling laws.

The frozen literals were computed by hand from the route formulas (see the
docstrings in hoc.bounds); freezing them here keeps later refactors honest.
"""

import dataclasses
import json
import math
from math import e, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoc import bounds as B
from hoc import fixtures, measures
from hoc.measures import MeasureSpec
from hoc.polynomials import MultilinearSpec, PolyFunction, from_multilinear
from hoc._util import jsonable
from hoc.tensors import canonical_layout, hs_norms, multinomial, op_norms
from oracles import (certificate_from_dict, expectation, iid, mul, order_partials, partial,
                     sample, shifted)


def ladder(d=2, sigma=1.0, rungs=(1.0,), top=1.0):
    return B.Ladder(sigma, d, rungs, top)


def exp_cert(lad=None, top_inf=1.0, route="ladder-inf", top_inf_exact=True):
    return B.exp_moment_certificate(lad or ladder(), top_inf, route, top_inf_exact)


def ladder_tail(hs2=(1.0,), top_hs=1.0, sigma=1.0):
    return B.tail_certificate(B.Ladder(sigma, len(hs2) + 1, hs2, top_hs))


def to_json(cert):
    return json.dumps(jsonable(cert.to_dict()), sort_keys=True)


# -- universal constants ------------------------------------------------------------


def test_universal_constants():
    assert B.EXP_MOMENT_COEFF == pytest.approx(0.030656620097620192, rel=1e-15)
    assert B.EXP_MOMENT_COEFF == 1.0 / (12.0 * e)
    np.testing.assert_array_equal(B.MARKOV_P, np.geomspace(2.0, 4000.0, 4000))
    assert B.EXP_THRESHOLD == 2.0


# -- the ladder --------------------------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        ladder(d=0, rungs=())
    with pytest.raises(ValueError):
        ladder(sigma=0.0)
    with pytest.raises(ValueError):
        ladder(d=3)  # needs two ladder slots
    with pytest.raises(ValueError):
        ladder(rungs=(-1.0,))
    with pytest.raises(ValueError):
        ladder(top=-1.0)


# -- moment bounds ----------------------------------------------------------------


def test_iterated_moment_bound_explicit():
    lad = ladder(d=2, sigma=1.0, rungs=(3.0,), top=2.0)
    # (p/sqrt2)*3 + (p/sqrt2)^2*2 at p = 2
    want = sqrt(2.0) * 3.0 + 2.0 * 2.0
    assert lad.moment(2) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        lad.moment(1.5)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 4), sigma=st.floats(0.5, 2.0), p=st.floats(2.0, 8.0))
def test_normalized_ladder_respects_cap(d, sigma, p):
    """With norms at the normalized reference values the closed form stays
    below 4 (sigma p / sqrt 2)^d."""
    lad = ladder(d, sigma, tuple(sigma ** (d - k) for k in range(1, d)))
    assert lad.moment(p) <= 4.0 * (sigma * p / sqrt(2)) ** d * (1 + 1e-12)


def _log_gaussian_abs_moment(p):
    """log E|x|^p = log(2^(p/2) Gamma((p+1)/2) / sqrt(pi)) for x ~ N(0, 1)."""
    return 0.5 * p * math.log(2.0) + math.lgamma((p + 1) / 2.0) - 0.5 * math.log(math.pi)


def test_ladder_moment_dominates_gaussian_moments():
    # the truth, in logs: ||x||_p for f = x, and ||x1 x2||_p = ||x||_p^2 for
    # f = x1 x2, under the standard gaussian; each ladder is the exact HS one
    # and the one with the top's operator norm
    ps = np.unique(np.concatenate([np.arange(2, 101), np.geomspace(2.0, 4000.0, 400)]))
    for f, d, power in ((PolyFunction.from_terms(1, {(1,): 1.0}), 1, 1),
                        (PolyFunction.from_terms(2, {(1, 1): 1.0}), 2, 2)):
        mspec = iid("gaussian", f.dim)
        hs = B.Ladder(mspec.sigma(), d, *B.exact_hs_rungs(f, mspec, d))
        for lad in (hs, dataclasses.replace(hs, top=B.constant_top_op(f, d)[0])):
            for p in ps:
                log_norm = power * _log_gaussian_abs_moment(p) / p
                assert math.log(lad.moment(p)) >= log_norm, (d, lad, p)


def test_gradient_bound_sigma_tenth_fails():
    """The suite-wide negative control, in exact arithmetic: f = x1 x2 under
    the standard gaussian pair has ||f||_2 = 1 and ||grad f||_2 = sqrt(2), so
    the one-step bound (sigma p / sqrt 2) ||grad f||_p on ||f||_p dominates at
    sigma = 1 and collapses at sigma / 10."""
    l2_f = 1.0
    grad_l2 = sqrt(2.0)
    p = 2

    def bound(sigma):
        return sigma * p / sqrt(2) * grad_l2

    assert bound(1.0) >= l2_f
    assert bound(0.1) < l2_f


# -- exp-moment certificates ----------------------------------------------------


def test_exp_certificate_route_11_rescale():
    cert = exp_cert(ladder(d=3, sigma=0.8, rungs=(2.0, 0.5)), top_inf=1.2)
    assert cert.route == "ladder-inf"
    # lambda = max(1, top_inf, norms2[k-1]/sigma^(d-k)) = 2.0 / 0.8^2
    assert cert.rescale_lambda == pytest.approx(3.125, rel=1e-12)
    rate, power, threshold = cert.exp_params()
    assert rate == pytest.approx(0.02621104148666797, rel=1e-12)
    assert power == pytest.approx(1.0 / 3.0)
    assert threshold == 2.0


def test_exp_certificate_route_12():
    # resolve picks this route when the derivatives are centered
    # (test_cli.py::test_resolve_picks_the_certify_route)
    lad = ladder(d=2, sigma=1.0, rungs=(0.9,), top=2.5)
    cert = exp_cert(lad, top_inf=0.3, route="ladder-hs")
    assert cert.route == "ladder-hs"
    assert cert.rescale_lambda == pytest.approx(2.5)
    assert cert.exp_params()[0] == pytest.approx(0.01938894897419466, rel=1e-12)
    # explicit route override still works
    assert exp_cert(lad, top_inf=0.3, route="ladder-inf").route == "ladder-inf"


def test_exp_certificate_unknown_route():
    with pytest.raises(ValueError):
        exp_cert(route="2.7")


def test_exp_certificate_lambda_floor():
    # small norms do not push the rate above c / sigma
    cert = exp_cert(ladder(d=2, sigma=1.0, rungs=(1e-3,)), top_inf=1e-3)
    assert cert.rescale_lambda == 1.0
    assert cert.exp_params()[0] == pytest.approx(B.EXP_MOMENT_COEFF)


# -- tail bounds -----------------------------------------------------------------


def _markov(sigma, rungs, top, ts):
    """min over p of (M(p) / t)^p on 4000 log-spaced p in [2, 4000], capped
    at 1, with M(p) = sum_k (sigma p / sqrt 2)^k n_k written out in plain
    powers: the reference the log-space Ladder.tail is held to."""
    p = np.geomspace(2.0, 4000.0, 4000)
    base = sigma * p / sqrt(2.0)
    m = sum(base**k * nk for k, nk in enumerate((*rungs, top), start=1))
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return np.minimum(1.0, np.min((m / np.asarray(ts, dtype=float)[..., None]) ** p,
                                      axis=-1))


def test_tail_13_frozen_value():
    cert = ladder_tail()
    # d=2, sigma=1, norms=(1,), top=1 at t=100: M(p) = p/sqrt2 + p^2/2 and
    # (M(p)/100)^p is least near p = 5.13, at 1.06e-4
    assert cert.tail_bound(100.0) == pytest.approx(1.056737360120448e-4, rel=1e-12)
    assert cert.tail_bound(100.0) == pytest.approx(_markov(1.0, (1.0,), 1.0, 100.0),
                                                   rel=1e-12)
    assert ladder_tail().tail_bound(100.0) == cert.tail_bound(100.0)
    assert set(cert.constants) == {"sigma", "d", "hs2", "top_hs"}


def test_tail_needs_one_rung_per_order():
    with pytest.raises(ValueError, match="rung"):
        B.tail_certificate(B.Ladder(1.0, 3, (1.0,), 1.0))


def test_tail_caps_and_edges():
    cert = ladder_tail()
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
    base = ladder_tail()
    scaled = B.Certificate("tail", "ladder-tail", dict(base.constants), rescale_lambda=2.0)
    for t in (5.0, 50.0, 200.0):
        assert scaled.tail_bound(t) == pytest.approx(base.tail_bound(t / 2.0), rel=1e-14)


def test_tail_zero_norm_terms_drop():
    # a zero ladder entry adds nothing to M(p): M(p) = p^2 / 2
    cert = ladder_tail(hs2=(0.0,))
    assert cert.tail_bound(123.0) == pytest.approx(_markov(1.0, (0.0,), 1.0, 123.0), rel=1e-12)


def test_tail_zero_function():
    cert = ladder_tail(hs2=(0.0,), top_hs=0.0)
    assert cert.tail_bound(0.5) == 0.0
    assert cert.tail_bound(0.0) == 1.0


# -- the Markov tail ----------------------------------------------------------------


@pytest.mark.parametrize("lad", [ladder(), ladder(d=1, rungs=(), top=1.0),
                                 ladder(d=3, sigma=2.0, rungs=(0.5, 3.0), top=0.1),
                                 ladder(sigma=0.2, rungs=(1.0,), top=10.0),
                                 ladder(rungs=(0.0,), top=0.0)])
def test_markov_tail_never_rises_with_t(lad):
    # exactly, uncapped, on a log grid and on 300 consecutive floats
    for ts in (np.geomspace(1e-4, 1e8, 500),
               np.cumsum(np.full(300, np.spacing(37.0))) + 37.0):
        assert np.all(np.diff(lad.tail(ts)) <= 0.0)


def test_markov_tail_dominates_exact_gaussian_tails():
    # P(|x| >= t) = erfc(t / sqrt 2), and x1 x2 has density K0(|s|) / pi, so
    # P(|x1 x2| >= t) = 1 - (2/pi) int_0^t K0 (as in tests/test_verify.py);
    # each ladder is the exact HS one and the one with the top's operator norm
    from scipy.special import iti0k0

    ts = np.geomspace(0.05, 40.0, 200)
    for f, d, exact in ((PolyFunction.from_terms(1, {(1,): 1.0}), 1,
                         lambda t: math.erfc(t / sqrt(2.0))),
                        (PolyFunction.from_terms(2, {(1, 1): 1.0}), 2,
                         lambda t: 1.0 - 2.0 / math.pi * float(iti0k0(t)[1]))):
        mspec = iid("gaussian", f.dim)
        hs = B.Ladder(mspec.sigma(), d, *B.exact_hs_rungs(f, mspec, d))
        for lad in (hs, dataclasses.replace(hs, top=B.constant_top_op(f, d)[0])):
            bounds = lad.tail(ts)
            assert bounds[-1] < 0.05  # the grid reaches well under the cap
            for t, bound in zip(ts, bounds):
                assert bound >= exact(t), (d, lad, t)


def test_markov_tail_is_never_above_the_e2_curve():
    # the curve Markov replaced, e^2 exp(-eta / (d e)) with eta the least of
    # sqrt 2 t^(1/k) / (sigma n_k^(1/k)) over the nonzero rungs n_1..n_d,
    # capped at 1, on the 12 tails ladders at their shipped grids and on 400
    # log-spaced t in [0.05, 2000]
    below_one = 0
    for name, f, mspec, d in _chaos_tails():
        ts = np.concatenate([fixtures.by_name(name).payload["t_grid"],
                             np.geomspace(0.05, 2000.0, 400)])
        sigma, (hs2, top_hs) = mspec.sigma(), B.exact_hs_rungs(f, mspec, d)
        eta = np.min([sqrt(2.0) * ts ** (1.0 / k) / (sigma * nk ** (1.0 / k))
                      for k, nk in enumerate((*hs2, top_hs), start=1) if nk > 0], axis=0)
        old = np.minimum(1.0, e**2 * np.exp(-eta / (d * e)))
        new = B.tail_certificate(B.Ladder(sigma, d, hs2, top_hs)).tail_bound(ts)
        assert np.all(new <= old), name
        below_one += np.count_nonzero(old < 1.0)
    assert below_one > 0


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
    b = 2.0 ** math.comb(k, 2) * (p * w / sqrt(2)) ** k
    assert a == pytest.approx(b, rel=1e-11)


def test_weighted_moment_bounds_validation():
    with pytest.raises(ValueError):
        B.weighted_moment_bounds(1.5, (0.5, 0.5), (1.0,), 1.0, 1.0)  # p < 2
    with pytest.raises(ValueError):
        B.weighted_moment_bounds(2.0, (0.5,), (1.0,), 1.0, 1.0)  # missing wnorm slot


def test_weighted_moment_bounds_hand_value():
    bm, bp = B.weighted_moment_bounds(2.0, (0.5, 0.3), (2.0,), 1.5, 1.0)
    ladder = (2.0 ** (-0.5) * 2.0 * 0.5) * 2.0
    assert bm == pytest.approx(ladder + 4.0 * 0.5 * 1.5, rel=1e-14)
    assert bp == pytest.approx(ladder + (2.0 * 0.3) ** 2 * 1.0, rel=1e-14)


def test_weighted_tail_frozen_values():
    # capped inside the window
    assert B.weighted_tail_certificate(1.0, 2.0, 2).tail_bound(100.0) == 1.0
    # beyond the window the moment-Markov branch takes over
    assert B.weighted_tail_certificate(1.0, 2.0, 2).tail_bound(5000.0) == \
        pytest.approx(0.02188446509180685, rel=1e-12)
    assert B.weighted_tail_certificate(1.0, 2.0, 2).tail_bound(5000.0) == \
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
    certs = B.multilinear_certificates(spec, sigma=1.0, unit_variance=True)
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
    certs = B.multilinear_certificates(spec, 1.0, unit_variance=False)
    assert set(certs) == {"exp_hs", "exp_inf"}


def test_multilinear_norms_equal_the_coefficient_tensor():
    # the constants read off the coefficient list, against the norms of the
    # symmetrized tensor's canonical values, on every shipped chaos spec
    specs = [MultilinearSpec.from_dict(fx.payload["multilinear"])
             for fx in fixtures.inventory() if "multilinear" in fx.payload]
    assert len(specs) == 24
    for spec in specs:
        certs = B.multilinear_certificates(spec, 1.0, unit_variance=False)
        coeffs = dict(spec.coeffs)
        values = np.array([coeffs.get(idx, 0.0)
                           for idx in canonical_layout(spec.order, spec.dim)[0]])
        assert certs["exp_hs"].constants["hs_norm"] == hs_norms(values, spec.order, spec.dim)
        assert certs["exp_inf"].constants["max_entry"] == np.max(np.abs(values))


def test_multilinear_tail_frozen_value():
    # single coefficient 1/sqrt(2) makes hs_norm exactly 1, so the rungs of
    # f = x1 x2 / sqrt 2 are n_1 = 1/sqrt(1!) and n_2 = 1
    spec = MultilinearSpec.from_coeffs(2, 2, {(0, 1): 1.0 / sqrt(2.0)})
    certs = B.multilinear_certificates(spec, 1.0, unit_variance=True)
    assert certs["tail_hs"].tail_bound(100.0) == pytest.approx(1.056737360120448e-4, rel=1e-12)
    # inf form: a = n^(d/2) max_entry = 2 / sqrt 2 = sqrt 2 for both rungs
    want = _markov(1.0, (sqrt(2.0),), sqrt(2.0), 200.0)
    assert certs["tail_inf"].tail_bound(200.0) == pytest.approx(want, rel=1e-12)


def test_rmt_tail_evaluator():
    cert = B.Certificate("tail", "wigner-lss", {"matrix_size": 100, "grad_l2": 1.0,
                                         "fpp_inf": 1.0, "sigma": sqrt(2.0)})
    # sigma_N = sqrt 2 sqrt(2/100) = 0.2, n_1 = grad_l2 = 1, top = sqrt(100) fpp_inf
    assert cert.tail_bound(3.0) == pytest.approx(_markov(0.2, (1.0,), 10.0, 3.0), rel=1e-12)
    assert 0.0 < cert.tail_bound(3.0) < 1.0
    only_grad = B.Certificate("tail", "wigner-lss", {"matrix_size": 100, "grad_l2": 1.0,
                                              "fpp_inf": 0.0, "sigma": sqrt(2.0)})
    assert only_grad.tail_bound(2.0) == pytest.approx(_markov(0.2, (1.0,), 0.0, 2.0),
                                                      rel=1e-12)


# -- the one ladder evaluator against Markov written out per route ----------------
# Each route's rungs are derived by hand here, so the ladder mapping in
# hoc.bounds._ladder is checked, not just re-derived.


def _ref_multilinear_hs(c, ts):
    a, d = c["hs_norm"], c["d"]
    return _markov(c["sigma"], [a / sqrt(math.factorial(d - k)) for k in range(1, d)], a, ts)


def _ref_multilinear_inf(c, ts):
    n, d = c["dim_n"], c["d"]
    return _ref_multilinear_hs({"sigma": c["sigma"], "d": d,
                                "hs_norm": n ** (d / 2.0) * c["max_entry"]}, ts)


def _ref_wigner_lss(c, ts):
    n = c["matrix_size"]
    return _markov(c["sigma"] * sqrt(2.0 / n), (c["grad_l2"],), sqrt(n) * c["fpp_inf"], ts)


def _ladder_cases():
    cases = []
    sigmas = (0.5, 1.0, 2.0)
    for d in (1, 2, 3, 4):
        for norm in (0.0, 0.02, 0.7, 3.0):
            sigma = sigmas[len(cases) % 3]
            cases.append(("multilinear-hs", {"sigma": sigma, "d": d, "hs_norm": norm}))
            cases.append(("multilinear-inf", {"sigma": sigma, "d": d, "dim_n": d + 1,
                                              "max_entry": norm}))
    for n in (2, 50, 400):
        for g2, fpp in ((1.0, 1.0), (0.0, 0.5), (3.0, 0.0), (0.0, 0.0), (1e-3, 40.0)):
            # no "d": the wigner-lss ladder is order 2 by construction
            cases.append(("wigner-lss", {"sigma": sigmas[len(cases) % 3], "matrix_size": n,
                                         "grad_l2": g2, "fpp_inf": fpp}))
    return cases


_LADDER_REFS = {"multilinear-hs": _ref_multilinear_hs,
                "multilinear-inf": _ref_multilinear_inf,
                "wigner-lss": _ref_wigner_lss}


@pytest.mark.parametrize("route,consts", _ladder_cases(),
                         ids=lambda v: v if isinstance(v, str) else
                         "-".join("%s=%g" % kv for kv in sorted(v.items())))
def test_route_ladder_matches_closed_form(route, consts):
    ts = np.geomspace(1e-3, 1e12, 61)
    want = _LADDER_REFS[route](consts, ts)
    got = B.Certificate("tail", route, consts).tail_bound(ts)
    # the log-space exponent p log(M/t) carries about p |log(M/t)| ulp, so
    # plain powers agree to 1e-10; atol only forgives results near underflow
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-300)
    assert want.min() < 1e-3  # the grid reaches well past the cap at 1


# -- certificate container ---------------------------------------------------------


def test_certificate_kind_guards():
    tail = ladder_tail()
    with pytest.raises(ValueError):
        tail.exp_params()
    with pytest.raises(ValueError):
        exp_cert().tail_bound(1.0)
    with pytest.raises(ValueError):
        B.Certificate("spectral", "ladder-inf", {})


def test_certificate_json_round_trip():
    certs = [
        ladder_tail(),
        exp_cert(),
        B.weighted_tail_certificate(1.0, 2.0, 2, rescale_lambda=1.5),
    ]
    for cert in certs:
        # the way report.json stores a certificate, and the way back
        again = certificate_from_dict(json.loads(to_json(cert)))
        assert again.kind == cert.kind and again.route == cert.route
        assert again.rescale_lambda == cert.rescale_lambda
        if cert.kind == "tail":
            assert again.tail_bound(7.0) == cert.tail_bound(7.0)
        else:
            assert again.exp_params() == cert.exp_params()
    # numpy values and NaN constants serialize to strict JSON (NaN as null)
    odd = B.Certificate("tail", "ladder-tail",
                        {"norms2": np.array([1.0, 2.0]), "gap": np.float64("nan")})
    text = to_json(odd)
    assert "NaN" not in text
    assert certificate_from_dict(json.loads(text)).constants == {"norms2": [1.0, 2.0],
                                                                   "gap": None}


def test_unknown_tail_route_rejected():
    cert = B.Certificate("tail", "9.9", {"d": 2})
    with pytest.raises(ValueError):
        cert.tail_bound(1.0)


# -- exact Hilbert-Schmidt rungs ----------------------------------------------------


def _chaos_tails():
    """(name, f, measure, d) for every shipped chaos tails fixture."""
    out = []
    for fx in fixtures.inventory():
        if fx.kind == "tails":
            f = from_multilinear(MultilinearSpec.from_dict(fx.payload["multilinear"]))
            out.append((fx.name, f, MeasureSpec.from_dict(fx.payload["measure"]),
                        f.degree))
    return out


def test_exact_hs_rungs_of_unit_hs_chaos():
    # a unit-HS coefficient tensor on unit-variance centered coordinates:
    # E |f^(k)|_HS^2 = d!/(d-k)! * sum of squared coefficients = 1/(d-k)!
    chaos = _chaos_tails()
    assert len(chaos) == 12 and {m.coords[0].dist for _, _, m, _ in chaos} == \
        {"gaussian", "laplace"}
    for name, f, mspec, d in chaos:
        hs2, top_hs = B.exact_hs_rungs(f, mspec, d)
        want = [1.0 / sqrt(math.factorial(d - k)) for k in range(1, d + 1)]
        assert len(hs2) == d - 1, name
        assert list(hs2) + [top_hs] == pytest.approx(want, rel=0, abs=1e-12), name


def test_multilinear_ladders_are_the_exact_hs_rungs():
    # the closed-form rungs a / sqrt((d-k)!) of the multilinear-hs route, on
    # the 12 shipped chaos (spec, measure) pairs, against the exact rungs of
    # the same polynomial: the multilinear tails read a real derivative ladder
    pairs = [(fx.name, MultilinearSpec.from_dict(fx.payload["multilinear"]),
              MeasureSpec.from_dict(fx.payload["measure"]))
             for fx in fixtures.inventory() if fx.kind == "multilinear"]
    assert len(pairs) == 12
    for name, spec, mspec in pairs:
        cert = B.multilinear_certificates(spec, mspec.sigma(), unit_variance=True)["tail_hs"]
        lad = B._ladder(cert.route, cert.constants)
        hs2, top_hs = B.exact_hs_rungs(from_multilinear(spec), mspec, spec.order)
        np.testing.assert_allclose((*lad.rungs, lad.top), (*hs2, top_hs),
                                   rtol=1e-15, atol=0, err_msg=name)


def test_exact_hs_rungs_count_repeated_indices():
    # f = x1^2 x2: E|grad|^2 = E 4 x1^2 x2^2 + E x1^4 = 7; the Hessian
    # (2 x2, 2 x1; 2 x1, 0) gives 4 + 2 * 4 = 12; the constant third
    # derivative has entry 2 at the 3 permutations of (0, 0, 1): 12
    f = PolyFunction.from_terms(2, {(2, 1): 1.0})
    hs2, top_hs = B.exact_hs_rungs(f, iid("gaussian", 2), 3)
    assert hs2 == pytest.approx((sqrt(7.0), sqrt(12.0)), rel=1e-15)
    assert top_hs == pytest.approx(sqrt(12.0), rel=1e-15)


def _algebra_rungs(f, mspec, d):
    """exact_hs_rungs by PolyFunction algebra, one canonical partial at a
    time: the reference its numpy pass must match bit for bit."""
    rungs = []
    for k in range(1, d + 1):
        total = 0.0
        for idx, poly in order_partials(f, k).items():
            total += multinomial(idx) * expectation(mul(poly, poly), mspec.moment)
        rungs.append(sqrt(total))
    return tuple(rungs[:-1]), rungs[-1]


def _random_poly(rng, dim, degree, n_terms):
    """Up to n_terms terms of degree <= ``degree``, with signed coefficients
    spread over six decades; the exponents pile up on a coordinate often."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * dim
        for i in rng.integers(0, dim, int(rng.integers(0, degree + 1))):
            exps[i] += 1
        terms[tuple(exps)] = float(rng.uniform(-3.0, 3.0) * 10.0 ** rng.integers(-3, 4))
    return PolyFunction.from_terms(dim, terms)


@pytest.mark.parametrize("law, params", [("gaussian", {}), ("uniform01", {}),
                                         ("exponential", {"scale": 0.7}),
                                         ("laplace", {"scale": 1.3})])
def test_exact_hs_rungs_match_the_algebra_bit_for_bit(law, params):
    # uniform01 and exponential have nonzero odd moments; an exponent >= 2
    # on one coordinate makes the falling factorial of a partial more than 1
    rng = np.random.default_rng(sum(map(ord, law)))
    polys = [_random_poly(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                          int(rng.integers(1, 13))) for _ in range(60)]
    assert any(max(p) >= 3 for f in polys for p, _ in f.terms)
    assert any(c < 0 for f in polys for _, c in f.terms)
    for f in polys:
        mspec = iid(law, f.dim, **params)
        for d in range(1, max(f.degree, 1) + 1):
            assert B.exact_hs_rungs(f, mspec, d) == _algebra_rungs(f, mspec, d), (f.terms, d)


def test_exact_hs_rungs_match_the_algebra_past_int64_codes(monkeypatch):
    # (2 deg + 1)^dim > 2^63 here, so the exponent codes are Python ints;
    # a pair block of 5 makes each order several numpy runs
    rng = np.random.default_rng(30)
    dim, degree = 30, 3
    assert (2 * degree + 1) ** dim > 2 ** 63
    laws = [("gaussian", {}), ("uniform01", {}), ("exponential", {"scale": 0.7}),
            ("laplace", {"scale": 1.3})]
    mspec = MeasureSpec(dim, tuple(measures.CoordinateDist.make(law, **params)
                                   for law, params in (laws[i % 4] for i in range(dim))))
    f = _random_poly(rng, dim, degree, 40)
    assert f.degree == degree
    want = _algebra_rungs(f, mspec, degree)
    assert B.exact_hs_rungs(f, mspec, degree) == want
    monkeypatch.setattr(B, "_PAIR_BLOCK", 5)
    assert B.exact_hs_rungs(f, mspec, degree) == want


def _algebra_centering(f, mspec, d):
    """bounds.centering by PolyFunction algebra: the expectation of f and of
    each canonical partial of order 1..d-1, each 0 within 1e-12 times
    max(1, the expectation of the same terms with |coefficient| and
    |E X^p|)."""
    partials = [poly for k in range(1, d) for poly in order_partials(f, k).values()]
    polys = [f] + partials
    means = [expectation(poly, mspec.moment) for poly in polys]
    scales = [expectation(PolyFunction(p.dim, tuple((e, abs(c)) for e, c in p.terms)),
                          lambda i, k: abs(mspec.moment(i, k))) for p in polys]
    zero = [math.isfinite(v) and abs(v) <= 1e-12 * max(1.0, s) for v, s in zip(means, scales)]
    return means[0] if math.isfinite(means[0]) else math.inf, zero[0], all(zero[1:])


@pytest.mark.parametrize("law, params", [("gaussian", {}), ("uniform01", {}),
                                         ("exponential", {"scale": 0.7}),
                                         ("laplace", {"scale": 1.3})])
def test_centering_matches_the_algebra_bit_for_bit(law, params):
    # each random f and f - E f: the centered copies pass the E f test, and
    # under the symmetric laws some of their partials are centered too
    rng = np.random.default_rng(sum(map(ord, law)) + 1)
    polys = [_random_poly(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                          int(rng.integers(1, 13))) for _ in range(60)]
    seen = set()
    for f in polys:
        mspec = iid(law, f.dim, **params)
        for g in (f, shifted(f, -expectation(f, mspec.moment))):
            for d in range(1, max(g.degree, 1) + 1):
                got = B.centering(g, mspec, d)
                assert got == _algebra_centering(g, mspec, d), (g.terms, d)
                seen.add(got[1:])
    assert seen >= {(False, False), (True, False), (True, True)}


def test_centering_is_relative_to_the_size_of_the_terms_means():
    # E X^38 = 37!! is rounded at every step of its product and float(37!!)
    # once, so x^38 - float(37!!) reads E f = -2^20, 1.3e-16 of either term;
    # an error of 1e-11 of the terms is not rounding
    big = float(math.prod(range(1, 38, 2)))
    mspec = iid("gaussian", 1)
    f = PolyFunction.from_terms(1, {(38,): 1.0, (0,): -big})
    assert B.centering(f, mspec, 1) == (-1048576.0, True, True)
    assert not B.centering(shifted(f, -1e-11 * big), mspec, 1)[1]
    # below a scale of 1 the test stays absolute
    assert B.centering(PolyFunction.from_terms(1, {(0,): 1e-12}), mspec, 1)[1]
    assert not B.centering(PolyFunction.from_terms(1, {(0,): 2e-12}), mspec, 1)[1]
    # a partial's mean is scaled by its own terms: the gradient of
    # x^39 / 39 - float(37!!) x is x^38 - float(37!!)
    g = PolyFunction.from_terms(1, {(39,): 1.0 / 39, (1,): -big})
    assert B.centering(g, mspec, 2) == (0.0, True, True)


def test_centering_reads_a_divergent_moment_as_inf():
    # student beta = 9: E |X|^p diverges from p = 17 on, so none of these f
    # is integrable; x1^18 - x2^18 would give inf - inf = NaN, and x1 x2^17
    # 0 * inf = NaN, where the algebra's expectation stops at the zero E x1
    # and reads 0
    mspec = iid("student", 2, beta=9.0)
    for terms in ({(18, 0): 1.0}, {(18, 0): 1.0, (0, 18): -1.0}, {(17, 1): 1.0},
                  {(1, 17): 1.0}):
        f = PolyFunction.from_terms(2, terms)
        assert B.centering(f, mspec, 2) == (math.inf, False, False), terms


def test_exact_hs_rungs_read_a_divergent_moment_as_inf():
    # student beta = 9: E X^p diverges from p = 2 beta - 1 = 17 on. The
    # gradient 10 x^9 - 9 x^8 squares to x^18, so n_1 is inf (E g^2 >= 0);
    # the second derivative squares to degree 16, so n_2 is finite
    f = PolyFunction.from_terms(1, {(10,): 1.0, (9,): -1.0})
    mspec = iid("student", 1, beta=9.0)
    hs2, top_hs = B.exact_hs_rungs(f, mspec, 2)
    assert hs2 == (math.inf,)
    assert top_hs == _algebra_rungs(partial(f, (1,)), mspec, 1)[1] > 0.0


def _sampled_opnorm_rungs(f, mspec, d, m, seed):
    """(L2 norm, SE) of the pointwise operator norm of f^(k), k = 1..d-1, at
    m ``sample`` points: the Monte Carlo oracle for the exact rungs."""
    pts = sample(mspec, m, seed)
    out = []
    for k in range(1, d):
        sq = op_norms(f.derivative_dense(k, pts)) ** 2
        est = sqrt(float(np.mean(sq)))
        out.append((est, float(np.std(sq, ddof=1)) / sqrt(m) / (2.0 * est)))
    return out


def test_exact_hs_rungs_dominate_the_sampled_profile():
    # |T|_op <= |T|_HS pointwise, so each exact rung sits above the sampled
    # operator-norm rung up to its sampling error; at order 1 the two norms
    # coincide, so there the exact rung must also agree with the sample
    payload = fixtures.by_name("gauss-bilinear-exp-opnorm").payload
    quadratic = PolyFunction.from_dict(payload["function"])
    bilinear = ("gauss-bilinear-exp-opnorm", quadratic,
                MeasureSpec.from_dict(payload["measure"]), quadratic.degree)
    for name, f, mspec, d in _chaos_tails() + [bilinear]:
        hs2, top_hs = B.exact_hs_rungs(f, mspec, d)
        for k, (est, se) in enumerate(_sampled_opnorm_rungs(f, mspec, d, 10_000, 11), 1):
            assert hs2[k - 1] >= est - 5.0 * se, (name, k)
            if k == 1:
                assert abs(hs2[0] - est) <= 5.0 * se, name
        assert top_hs >= B.constant_top_op(f, d)[0], name


# -- exact ladders -----------------------------------------------------------------


def test_exact_ladder_bilinear():
    # f = x1 x2 under the standard gaussian pair: E |grad f|^2 = E x1^2 + x2^2
    # = 2, the constant Hessian ((0, 1), (1, 0)) has operator norm 1 and HS
    # norm sqrt(2)
    f = PolyFunction.from_terms(2, [((1, 1), 1.0)])
    mspec = iid("gaussian", 2)
    lad = B.Ladder(mspec.sigma(), 2, *B.exact_hs_rungs(f, mspec, 2))
    top_inf, top_inf_exact = B.constant_top_op(f, 2)
    assert lad.d == 2 and lad.sigma == 1.0
    assert lad.rungs == pytest.approx((sqrt(2.0),), rel=1e-15)
    assert top_inf == pytest.approx(1.0, rel=1e-15)
    assert lad.top == pytest.approx(sqrt(2.0), rel=1e-15)
    assert B.centering(f, mspec, 2)[1:] == (True, True) and top_inf_exact


@pytest.mark.parametrize("fixture, d", [("gauss-bilinear-exp-hs", 2),
                                        ("gauss-bilinear-exp-hs", 3),
                                        ("gaussian-chaos-n3-d3-tails", 3)])
def test_profile_constant_orders_are_one_origin_row(fixture, d):
    # a constant derivative is its value at the origin: its exact rung is the
    # HS norm of that one row, and the top's operator norm is op_norms of it
    # (d = 3 on the bilinear form makes order 2 a constant rung below a zero top)
    payload = fixtures.by_name(fixture).payload
    if "multilinear" in payload:
        f = from_multilinear(MultilinearSpec.from_dict(payload["multilinear"]))
    else:
        f = PolyFunction.from_dict(payload["function"])
    hs2, top_hs = B.exact_hs_rungs(f, MeasureSpec.from_dict(payload["measure"]), d)
    top_inf, top_inf_exact = B.constant_top_op(f, d)
    origin = np.zeros((1, f.dim))
    constant = [k for k in range(1, d + 1) if f.top_is_constant(k)]
    assert d in constant
    for k in constant:
        canonical = tuple(np.array(canonical_layout(k, f.dim)[0]).T)
        row = f.derivative_dense(k, origin)[(slice(None),) + canonical]
        want_hs = float(hs_norms(row, k, f.dim)[0])
        if k < d:
            assert hs2[k - 1] == pytest.approx(want_hs, rel=1e-12, abs=1e-15)
        else:
            assert top_hs == pytest.approx(want_hs, rel=1e-12, abs=1e-15)
    assert top_inf == float(op_norms(f.derivative_dense(d, origin))[0])
    assert top_inf_exact == (d <= 2 or f.dim == 1)


def test_constant_top_op_flags_a_power_iteration_top():
    # a constant order-3 top on R^3 gets its operator norm from power
    # iteration, a lower estimate, so it is flagged inexact; in one
    # dimension the norm is exact, and a top that is not constant is refused
    f = PolyFunction.from_terms(3, {(1, 1, 1): 1.0})
    top_inf, top_inf_exact = B.constant_top_op(f, 3)
    assert not top_inf_exact and top_inf > 0
    assert B.constant_top_op(PolyFunction.from_terms(1, {(3,): 1.0}), 3)[1]
    with pytest.raises(ValueError):
        B.constant_top_op(f, 2)
