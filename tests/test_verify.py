"""Empirical estimators and domination reports.

Wilson reference values are frozen from an independent derivation (the score
interval endpoints are the roots of (1+z^2/m)p^2 - (2phat+z^2/m)p + phat^2).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoc import bounds as B
from hoc import verify as V
from oracles import certificate_from_dict, relative_domination


def test_wilson_frozen_values():
    assert V.wilson_interval(8, 10) == (
        pytest.approx(0.4901624715366418, rel=1e-12),
        pytest.approx(0.9433178485456248, rel=1e-12))
    lo, hi = V.wilson_interval(0, 100)
    assert lo == 0.0
    assert hi == pytest.approx(0.03699349820698568, rel=1e-12)
    lo, hi = V.wilson_interval(100, 100)
    assert lo == pytest.approx(0.9630065017930145, rel=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)
    lo, hi = V.wilson_interval(1, 1000)
    assert lo == pytest.approx(0.00017654637062607803, rel=1e-10)
    assert hi == pytest.approx(0.0056425585979579355, rel=1e-10)


def test_wilson_matches_quadratic_roots():
    # endpoints solve (phat - p)^2 = z^2 p (1-p) / m
    for k, m in [(3, 17), (250, 1000), (999, 1000)]:
        lo, hi = V.wilson_interval(k, m)
        z, ph = V.Z95, k / m
        roots = np.roots([1 + z * z / m, -(2 * ph + z * z / m), ph * ph])
        assert sorted(np.real(roots)) == [pytest.approx(lo, rel=1e-10),
                                          pytest.approx(hi, rel=1e-10)]


@settings(max_examples=50, deadline=None)
@given(m=st.integers(1, 5000), frac=st.floats(0, 1))
def test_wilson_properties(m, frac):
    k = int(round(frac * m))
    lo, hi = V.wilson_interval(k, m)
    assert 0.0 <= lo <= k / m <= hi <= 1.0
    if k > 0:
        assert lo > 0.0
    if k < m:
        assert hi < 1.0


def test_wilson_validation():
    with pytest.raises(ValueError):
        V.wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        V.wilson_interval(5, 4)
    with pytest.raises(ValueError):
        V.wilson_interval(0, 0)


def test_empirical_lp_exact_cases():
    est, se = V.empirical_lp(np.full(100, -3.0), 2)
    assert est == pytest.approx(3.0, rel=1e-15)
    assert se == 0.0
    est, se = V.empirical_lp(np.zeros(10), 4)
    assert est == 0.0 and se == 0.0
    # two-point distribution: mean(|v|^2) = (a^2+b^2)/2 exactly
    v = np.array([1.0, 2.0] * 500)
    est, _ = V.empirical_lp(v, 2)
    assert est == pytest.approx(math.sqrt(2.5), rel=1e-14)
    with pytest.raises(ValueError):
        V.empirical_lp(np.array([1.0]), 2)
    with pytest.raises(ValueError):
        V.empirical_lp(v, 0.0)


def test_empirical_lp_se_vs_bootstrap():
    """The delta-method SE should agree with a bootstrap on the same sample."""
    rng = np.random.default_rng(2024)
    v = rng.standard_normal(2000)
    p = 3.0
    est, se = V.empirical_lp(v, p)
    boots = []
    for _ in range(400):
        res = rng.choice(v, size=v.size, replace=True)
        boots.append(V.empirical_lp(res, p)[0])
    boot_se = float(np.std(boots, ddof=1))
    assert se == pytest.approx(boot_se, rel=0.3)


def test_empirical_lp_order_insensitive():
    rng = np.random.default_rng(8)
    v = rng.standard_exponential(5000)
    a = V.empirical_lp(v, 2)[0]
    b = V.empirical_lp(v[::-1].copy(), 2)[0]
    assert a == b  # exact equality: compensated summation


def test_empirical_tail_counts():
    v = np.arange(1.0, 1001.0)  # |v| >= t counts are exact
    grid = [0.5, 500.5, 1000.5]
    assert V.tail_counts(v, grid).tolist() == [1000, 500, 0]
    rows = V.check_tail_certificate(centered_tail_cert(), 1000, V.tail_counts(v, grid), grid).rows
    assert [r.empirical for r in rows] == [1.0, 0.5, 0.0]
    lo, hi = V.wilson_interval(500, 1000)
    assert rows[1].extra["ci_low"] == pytest.approx(lo, rel=1e-14)
    assert rows[1].extra["ci_high"] == pytest.approx(hi, rel=1e-14)
    # boundary convention: values equal to t count as exceedances
    assert V.tail_counts(v, [1000.0]).tolist() == [1]
    with pytest.raises(ValueError):
        V.check_tail_certificate(centered_tail_cert(), 999, V.tail_counts(np.ones(999), [1.0]),
                                 [1.0])
    with pytest.raises(ValueError, match="one count per t"):
        V.check_tail_certificate(centered_tail_cert(), 1000, V.tail_counts(v, grid), grid[:2])


def sorted_tail_counts(values, t_grid):
    """The count of a sort and searchsorted(side="left"), as tails once took it."""
    v = np.sort(np.abs(np.asarray(values, dtype=np.float64)).ravel())
    return [v.size - int(np.searchsorted(v, t, side="left")) for t in t_grid]


def test_tail_counts_match_a_sorted_count():
    rng = np.random.default_rng(24)
    v = rng.standard_normal(5000) * 2.0
    v[:40] = 1.5  # ties exactly at a grid point, from both signs
    v[40:80] = -1.5
    v[80:90] = np.inf
    v[90:95] = -np.inf
    v[95:105] = np.nan  # NaN is not < t, so it counts as reaching every t
    rng.shuffle(v)
    grid = [2.0, 0.0, 1.5, -1.0, 1.5, 6.0, 1e300]  # unsorted, a repeated t, t <= 0
    counts = V.tail_counts(v, grid)
    assert counts.dtype == np.int64
    assert counts.tolist() == sorted_tail_counts(v, grid)
    assert counts[2] == counts[4] >= 80 + 15 + 10
    assert counts[-1] == 15 + 10  # only +-inf and NaN reach 1e300
    assert V.tail_counts(v.reshape(50, 100), grid).tolist() == counts.tolist()
    # the counts of a split array add up to the counts of the whole
    parts = np.array_split(v, [1, 999, 999, 4096])
    assert sum(V.tail_counts(part, grid) for part in parts).tolist() == counts.tolist()


def test_empirical_exp_moment_constant():
    v = np.full(100_000, 2.0)
    est = V.empirical_exp_moment(v, 0.5, 1.0)
    assert est.value == pytest.approx(math.exp(1.0), rel=1e-14)
    assert est.se <= 1e-15  # ulp-level noise from np.std on a constant array
    assert est.stable


def test_empirical_exp_moment_and_lp_leave_their_input():
    # both work in place on their own |v| copy, with the bits of the fresh
    # temporaries they once built
    rng = np.random.default_rng(3)
    v = rng.standard_normal(100_000)
    kept = v.copy()
    for a, r in [(0.37, 0.5), (0.0307, 1.0 / 3.0), (0.2, 2)]:
        est = V.empirical_exp_moment(v, a, r)
        assert est.value == V._mean(np.exp(a * np.abs(kept) ** r))
    for p in (2, 3.5):
        powered = np.abs(kept) ** p
        est, _ = V.empirical_lp(v, p)
        assert est == V._mean(powered) ** (1.0 / p)
    assert np.array_equal(v, kept)


@pytest.mark.parametrize("values", [
    np.random.default_rng(8).standard_normal(1001),
    np.exp(3.0 * np.random.default_rng(9).standard_normal(70_001)),
    np.full(129, 2.0), np.array([1.0, 1.0 + 2.0**-52]), np.array([0.0, 5e-324, 1e308]),
    np.array([1.0, np.inf, 2.0]), np.array([np.nan, 1.0, 3.0])])
def test_sample_std_keeps_the_bits_of_numpy_std(values):
    # in place, in the steps numpy's std takes: the same float, nan included
    with np.errstate(over="ignore", invalid="ignore"):  # 1e308 squared; inf - inf
        want = float(np.std(values, ddof=1))
        got = V._sample_std(values.copy())
    assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)


def test_empirical_exp_moment_min_samples():
    v = np.ones(5000)
    with pytest.raises(ValueError):
        V.empirical_exp_moment(v, 1.0, 1.0)
    est = V.empirical_exp_moment(v, 1.0, 1.0, min_samples=5000)
    assert est.value == pytest.approx(math.e, rel=1e-14)


def test_empirical_exp_moment_instability_flag():
    # one enormous outlier in the second half splits the halves
    v = np.zeros(100_000)
    v[-1] = 40.0
    est = V.empirical_exp_moment(v, 1.0, 1.0)
    assert not est.stable


def test_relative_domination():
    assert relative_domination(1.0, 0.0, 1.0, 0.0)
    assert not relative_domination(1.01, 0.0, 1.0, 0.0)
    # 5 * combined 1% relative SE buys about 5% headroom
    assert relative_domination(1.04, 0.01, 1.0, 0.0)
    assert not relative_domination(1.2, 0.01, 1.0, 0.01)
    assert relative_domination(-0.5, 0.0, 0.0, 0.0)  # degenerate rhs
    assert not relative_domination(0.5, 0.0, 0.0, 0.0)


# -- report objects ------------------------------------------------------------------


def centered_tail_cert():
    return B.tail_certificate(B.Ladder(1.0, 2, (1.0,), 1.0))


def test_check_tail_certificate_report():
    rng = np.random.default_rng(55)
    x = rng.standard_normal((50_000, 2))
    values = x[:, 0] * x[:, 1]
    cert = centered_tail_cert()
    report = V.check_tail_certificate(cert, values.size, V.tail_counts(values, [1.0, 2.0, 4.0]),
                                      [1.0, 2.0, 4.0])
    assert report.kind == "tail"
    assert report.slack_rule == V.TAIL_SLACK_RULE
    assert report.m == 50_000
    assert report.passed  # certified curve sits above gaussian-chaos tails
    for row in report.rows:
        assert row.passed == (row.bound >= row.extra["ci_low"])
        d = row.to_dict()
        assert d["ci_low"] == row.extra["ci_low"]  # extras flatten into the dict
    with pytest.raises(ValueError):
        V.check_tail_certificate(B.Certificate("expMoment", "ladder-inf", {"d": 2, "sigma": 1,
                                                                    "norms2": [1.0]}),
                                 values.size, V.tail_counts(values, [1.0]), [1.0])


def test_check_exp_certificate_report():
    cert = B.exp_moment_certificate(B.Ladder(1.0, 2, (1.5,), 1.0), 1.0, "ladder-inf", True)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((100_000, 2))
    values = x[:, 0] * x[:, 1]
    report = V.check_exp_certificate(cert, values)
    assert report.passed
    row = report.rows[0]
    assert row.bound == 2.0
    assert row.extra["rate"] == cert.exp_params()[0]
    # extra_se = extra_rel_se * estimate propagates in quadrature
    report2 = V.check_exp_certificate(cert, values, extra_rel_se=0.5)
    assert report2.rows[0].extra["extra_se"] == 0.5 * row.empirical
    assert report2.rows[0].extra["se"] == pytest.approx(
        math.sqrt(row.extra["mc_se"] ** 2 + (0.5 * row.empirical) ** 2), rel=1e-12)


def test_check_moment_bound_report():
    values = np.full(5000, 2.0)
    good = V.check_moment_bound(2.5, values, 2)
    assert good.passed and good.rows[0].label == "p=2"
    bad = V.check_moment_bound(1.9, values, 2)
    assert not bad.passed
    assert bad.rows[0].slack == 0.0  # constant sample has zero SE


def test_report_serialization():
    values = np.full(5000, 1.0)
    rep = V.check_moment_bound(2.0, values, 2)
    d = rep.to_dict()
    assert d["slack_rule"] == V.MOMENT_SLACK_RULE
    assert d["rows"][0]["p"] == 2
    assert d["passed"] is True


# -- an exact-tail oracle for the sampled side ------------------------------------------


def test_n2_chaos_tail_run_matches_the_exact_law(chaos_tail_runs):
    # f = a x1 x2 under the standard gaussian: x1 x2 has density K0(|s|)/pi,
    # so P(|f| >= t) = 1 - (2/pi) int_0^(t/|a|) K0, which iti0k0 gives in
    # closed form. This checks sampling, evaluation and tail_counts of the
    # criterion-5 run against the truth, not against its own Wilson band.
    from scipy.special import iti0k0

    from hoc.experiments import resolve

    (cfg, (_, _, report, _)), = [run for run in chaos_tail_runs
                                 if run[0]["fixture"] == "gaussian-chaos-n2-d2-tails"]
    (exponents, a), = resolve(cfg).function.terms
    assert exponents == (1, 1)
    m = report["samples"]
    rows = report["check"]["rows"]
    assert len(rows) == 12
    for row in rows:
        exact = 1.0 - 2.0 / math.pi * float(iti0k0(row["t"] / abs(a))[1])
        assert 0.0 < exact < 1.0
        z = (row["empirical"] - exact) / math.sqrt(exact * (1.0 - exact) / m)
        assert abs(z) <= 5.0, (row["t"], row["empirical"], exact, z)


def _imhof_tail(lams, t):
    """P(|sum_i lam_i (g_i^2 - 1)| >= t) for independent standard gaussians
    g_i, by Imhof's inversion of the characteristic function (Biometrika
    1961): P(sum_i lam_i g_i^2 > x) = 1/2 + (1/pi) int_0^inf
    sin(theta(u)) / (u rho(u)) du, theta(u) = sum_i arctan(lam_i u)/2 - x u/2,
    rho(u) = prod_i (1 + lam_i^2 u^2)^(1/4). Returns the tail and the summed
    quadrature error estimate."""
    from scipy.integrate import quad

    def upper(x):
        def integrand(u):
            theta = 0.5 * np.sum(np.arctan(lams * u)) - 0.5 * x * u
            rho = np.prod((1.0 + (lams * u) ** 2) ** 0.25)
            return math.sin(theta) / (u * rho)

        val, err = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-10, limit=500)
        return 0.5 + val / math.pi, err / math.pi

    shift = float(np.sum(lams))
    above, err_above = upper(shift + t)
    below, err_below = upper(shift - t)
    return above + 1.0 - below, err_above + err_below


def test_n10_chaos_tail_run_matches_the_exact_law(chaos_tail_runs):
    # f = x^T A x - tr A with A = f''/2 is sum_i lam_i (g_i^2 - 1) over the
    # eigenvalues lam of A, whose tail Imhof's integral gives; the run is
    # checked against it as the n = 2 run is against its closed form
    from hoc.experiments import resolve

    (cfg, (_, _, report, _)), = [run for run in chaos_tail_runs
                                 if run[0]["fixture"] == "gaussian-chaos-n10-d2-tails"]
    poly = resolve(cfg).function
    hessian = poly.derivative_dense(2, np.zeros((1, poly.dim)))[0]
    lams = np.linalg.eigvalsh(hessian / 2.0)
    x = np.random.default_rng(10).standard_normal((3, poly.dim))
    quad_form = np.einsum("mi,ij,mj->m", x, hessian / 2.0, x) - np.trace(hessian) / 2.0
    assert np.allclose(poly.evaluate(x), quad_form, rtol=1e-12, atol=1e-12)
    m = report["samples"]
    rows = report["check"]["rows"]
    assert len(rows) == 12
    for row in rows:
        exact, err = _imhof_tail(lams, row["t"])
        assert 0.0 < exact < 1.0 and err < 1e-3 * exact, (row["t"], exact, err)
        z = (row["empirical"] - exact) / math.sqrt(exact * (1.0 - exact) / m)
        assert abs(z) <= 5.0, (row["t"], row["empirical"], exact, z)


# -- sigma/10 (kappa/10) controls on the tail routes whose runners build none ---------


def _tenth_passes(cert_dict, check, constant="sigma"):
    """Whether the tail certificate ``cert_dict`` with ``constant`` / 10 still
    passes against the counts of the tail ``check`` it was checked with."""
    cert = certificate_from_dict(cert_dict)
    shrunk = B.Certificate("tail", cert.route, dict(cert.constants, **{
        constant: cert.constants[constant] / 10.0}))
    m, rows = check["m"], check["rows"]
    counts = [round(r["empirical"] * m) for r in rows]
    return V.check_tail_certificate(shrunk, m, counts, [r["t"] for r in rows]).passed


def test_multilinear_sigma_tenth_control_fails(chaos_multilinear_runs):
    (_, (_, code, report, _)), = [run for run in chaos_multilinear_runs
                                  if run[0]["fixture"] == "gaussian-chaos-n2-d2-multilinear"]
    assert code == 0
    for form in ("tail_hs", "tail_inf"):
        assert report["checks"][form]["passed"]
        assert not _tenth_passes(report["certificates"][form], report["checks"][form])


def test_wigner_sigma_tenth_control_fails(tmp_path):
    from hoc.experiments import run_config

    code, report = run_config({"kind": "rmt", "fixture": "wigner-gaussian-n50", "seed": 7},
                              str(tmp_path))
    assert code == 0 and report["tail_check"]["passed"]
    assert not _tenth_passes(report["certificates"]["tail"], report["tail_check"])



def test_weighted_tail_kappa_tenth_control_fails(weighted_runs):
    # the weighted-tail curve reads kappa through every weight norm of M_w(p)
    _, (_, code, report, _) = weighted_runs["student-weighted-tail-d1"]
    assert code == 0 and report["check"]["passed"]
    assert not _tenth_passes(report["certificate"], report["check"], "kappa")
