"""Acceptance gate: ten numbered criteria, one test and one printed line each.

Every test prints exactly one "criterion N: PASS/FAIL - ..." line with the
measured numbers (surfaced in the run summary via -rA), then asserts. The
expensive experiment runs are session fixtures in conftest so re-use and the
byte-identity criterion share the same artifacts. Tolerances are pinned here:
loosening one is a deliberate act with a visible diff, not a knob.

Criterion 5 asserts both halves: the real tail bound dominates at every
grid point of the 12 chaos fixtures, and the sigma/10 negative control is
caught crossing the empirical Wilson band on every one of them (the
closest control bound / ci_low is printed).
"""

import math
import time
from itertools import combinations_with_replacement

import numpy as np

from conftest import MASTER_SEED
from hoc import polynomials, verify
from oracles import expectation, iid, relative_domination, sample, shifted
from hoc._util import stage_seed, substream
from hoc.experiments import run_config

EXP_COEFF = 1.0 / (12.0 * math.e)


def _line(n, ok, detail):
    print("criterion %d: %s - %s" % (n, "PASS" if ok else "FAIL", detail))


# -- 1: certified grid bound vs power iteration on random symmetric tensors ----------

def test_criterion_1_tensor_norm_oracle(tensor_norm_run):
    out, code, report, secs = tensor_norm_run
    rows = (out / "tensor_norms.csv").read_text().strip().splitlines()
    ok = (code == 0 and report["passed"] and report["count"] == 50
          and len(rows) == 51
          and report["max_rel_diff"] <= 1e-4
          and report["max_rel_diff_eigh"] <= 1e-8
          and secs < 120.0)
    _line(1, ok,
          "50 tensors: iterative vs certified rel diff %.2e (tol 1e-4), "
          "d=2 vs eigendecomposition %.2e (tol 1e-8), %.1fs"
          % (report["max_rel_diff"], report["max_rel_diff_eigh"], secs))
    assert ok


# -- 2: variational spectral-gap solver vs known closed-form constants ---------------

def test_criterion_2_spectral_gap_oracle(oracle_run):
    out, code, report, secs = oracle_run
    res = report["results"]
    rel_uniform = abs(res["uniform01"]["lambda1"] - math.pi**2) / math.pi**2
    rel_gauss = abs(res["gaussian"]["sigma2"] - 1.0)
    rel_expo = abs(res["exponential"]["sigma2"] - 4.0) / 4.0
    stable = all(res[k]["stable"] for k in res)
    ok = (code == 0 and report["passed"] and stable
          and rel_uniform <= 1e-3 and rel_gauss <= 1e-3 and rel_expo <= 2e-2
          and secs < 60.0)
    _line(2, ok,
          "uniform01 lambda1 rel err %.2e (tol 1e-3), gaussian sigma2 err %.2e "
          "(tol 1e-3), exponential rel err %.2e (tol 2e-2), %.1fs"
          % (rel_uniform, rel_gauss, rel_expo, secs))
    assert ok


# -- 3: one-step gradient moment bound on random centered quadratics -----------------

def test_criterion_3_gradient_moment_domination():
    start = time.perf_counter()
    dists = ("gaussian", "uniform01", "exponential", "laplace")
    m = 100_000
    checks = 0
    fails = 0
    worst_ratio = 0.0  # max lhs/rhs over all checks; < 1 means real margin
    for qi in range(20):
        dim = 2 + qi % 3
        rng = substream(MASTER_SEED, 3, qi)
        terms = []
        for alpha in combinations_with_replacement(range(dim), 2):
            expo = [0] * dim
            for i in alpha:
                expo[i] += 1
            terms.append((tuple(expo), float(rng.standard_normal())))
        for i in range(dim):
            expo = [0] * dim
            expo[i] = 1
            terms.append((tuple(expo), float(rng.standard_normal())))
        base = polynomials.PolyFunction.from_terms(dim, terms)
        for mi, dist in enumerate(dists):
            mspec = iid(dist, dim)
            g = shifted(base, -expectation(base, mspec.moment))
            pts = sample(mspec, m, stage_seed(MASTER_SEED, 3, qi, mi))
            vals = g.evaluate(pts)
            grad_norms = np.linalg.norm(g.derivative_dense(1, pts), axis=1)
            sigma = mspec.sigma()
            for p in (2, 3, 4):
                lhs, lhs_se = verify.empirical_lp(vals, p)
                gl, gl_se = verify.empirical_lp(grad_norms, p)
                scale = sigma * p / math.sqrt(2.0)
                ok = relative_domination(lhs, lhs_se, scale * gl, scale * gl_se, slack=5.0)
                checks += 1
                fails += not ok
                worst_ratio = max(worst_ratio, lhs / (scale * gl))
    secs = time.perf_counter() - start
    ok = fails == 0 and checks == 240 and secs < 300.0
    _line(3, ok,
          "240 checks (20 quadratics x 4 measures x p in {2,3,4}, 1e5 samples): "
          "%d violations, worst lhs/rhs %.3f, %.1fs" % (fails, worst_ratio, secs))
    assert ok


# -- 4: exponential square-root moment of a bilinear form under the gaussian ---------

def test_criterion_4_bilinear_exp_moment(bilinear_run):
    cfg, (out, code, report, secs) = bilinear_run
    cert = report["certificate"]
    row = report["check"]["rows"][0]
    reported_c = cert["constants"]["c"]
    # direct recomputation of the criterion's quantity at rate exactly c,
    # independent of any rescaling the certificate may have applied
    x = substream(MASTER_SEED, 4).standard_normal((1_000_000, 2))
    direct = np.exp(EXP_COEFF * np.sqrt(np.abs(x[:, 0] * x[:, 1] / math.sqrt(2.0))))
    d_est = float(direct.mean())
    d_se = float(direct.std(ddof=1)) / math.sqrt(direct.size)
    ok = (code == 0 and report["passed"]
          and reported_c == EXP_COEFF
          and report["samples"] == 1_000_000
          and row["passed"] and row["empirical"] <= 2.0 + 3.0 * row["se"]
          and d_est <= 2.0 + 3.0 * d_se
          and secs < 60.0)
    _line(4, ok,
          "E exp(c sqrt|x1 x2/sqrt2|) = %.4f (+/- %.1e) <= 2, report c = %.12g "
          "= 1/(12e), direct recheck %.4f, %.1fs"
          % (row["empirical"], row["se"], reported_c, d_est, secs))
    assert ok


# -- 5: derivative-ladder tail domination + sigma/10 negative control ----------------

def test_criterion_5_chaos_tails_and_control(chaos_tail_runs):
    assert len(chaos_tail_runs) == 12
    total_secs = 0.0
    grid_points = 0
    control_hits = 0
    closest = math.inf  # min over everything of control bound / wilson ci_low
    for cfg, (out, code, report, secs) in chaos_tail_runs:
        total_secs += secs
        assert report["samples"] == 1_000_000
        assert report["check"]["passed"], "%s: tail bound crossed" % cfg["fixture"]
        rows = report["check"]["rows"]
        assert len(rows) == 12
        grid_points += sum(r["passed"] for r in rows)
        control = report["negative_control"]
        control_hits += bool(control["failed_somewhere"])
        for r in control["check"]["rows"]:
            if r["ci_low"] > 0.0:
                closest = min(closest, r["bound"] / r["ci_low"])
        # a run only exits 0 when domination holds AND the control trips
        assert (code == 0) == (report["check"]["passed"]
                               and control["failed_somewhere"])
    ok = grid_points == 144 and control_hits == 12 and total_secs < 600.0
    _line(5, ok,
          "domination %d/144 grid points, control failed on %d/12 fixtures "
          "(closest control bound/ci_low %.3g), 1e6 samples, %.0fs"
          % (grid_points, control_hits, closest, total_secs))
    assert ok


# -- 6: coefficient-tensor certificates, both norm forms -----------------------------

def test_criterion_6_multilinear_two_norm_forms(chaos_multilinear_runs):
    assert len(chaos_multilinear_runs) == 12
    total_secs = 0.0
    bad = []
    for cfg, (out, code, report, secs) in chaos_multilinear_runs:
        total_secs += secs
        good = (code == 0 and report["passed"]
                and report["unit_variance"] and report["centered"]
                and report["checks"]["tail_hs"]["passed"]
                and report["checks"]["tail_inf"]["passed"]
                and report["hs_vs_inf_consistent"])
        if not good:
            bad.append(cfg["fixture"])
    ok = not bad and total_secs < 600.0
    _line(6, ok,
          "12 fixtures: HS-form and sup-form tail bounds dominate, "
          "hs <= n^(d/2) max|entry| verified exactly, %.0fs%s"
          % (total_secs, "" if not bad else "; FAILED " + ",".join(bad)))
    assert ok


# -- 7: weighted moment and tail bounds under the heavy-tailed student measure -------

def test_criterion_7_weighted_bounds(weighted_runs):
    total_secs = 0.0
    fails = []
    for name in ("student-weighted-moments-d1", "student-weighted-moments-d2"):
        cfg, (out, code, report, secs) = weighted_runs[name]
        total_secs += secs
        for p in ("p=2", "p=4"):
            c = report["moment_checks"][p]
            both = (c["empirical"] <= c["bound_mixed"] + 5.0 * c["se"]
                    and c["empirical"] <= c["bound_plain"] + 5.0 * c["se"])
            if not (both and c["passed"]):
                fails.append("%s %s" % (name, p))
        if code != 0 or not report["passed"]:
            fails.append(name)
    for name in ("student-weighted-tail-d1", "student-weighted-tail-d2"):
        cfg, (out, code, report, secs) = weighted_runs[name]
        total_secs += secs
        window = report["window_end"]
        rows = report["check"]["rows"]
        inside = all(r["t"] <= window for r in rows)
        if not (code == 0 and report["passed"] and inside
                and all(r["passed"] for r in rows)):
            fails.append(name)
    ok = not fails and total_secs < 300.0
    _line(7, ok,
          "d=1,2 moment bounds (mixed and plain) dominate at p=2,4; Markov tail "
          "bounds on them dominate on full grids, every t in the window, %.0fs%s"
          % (total_secs, "" if not fails else "; FAILED " + ",".join(fails)))
    assert ok


# -- 8: recentered linear eigenvalue statistic of a Wigner matrix --------------------

def test_criterion_8_wigner_linear_statistic(rmt_run):
    cfg, (out, code, report, secs) = rmt_run
    row = report["exp_check"]["rows"][0]
    calib = report["calibration"]
    ok = (code == 0 and report["passed"]
          and report["matrix_size"] == 100 and report["draws"] == 2000
          and row["passed"]
          and row["empirical"] <= 2.0 + 3.0 * row["se"]
          and calib["extra_se"] > 0.0 and row["se"] >= row["mc_se"]
          and report["variance_reduced"]
          and report["var_s_tilde"] < report["var_s_n"]
          and secs < 600.0)
    _line(8, ok,
          "N=100, 2000 draws: E exp(rate sqrt|S~|) = %.4f <= 2 (se %.1e incl "
          "calibration %.1e), var %.3g -> %.3g recentered, %.0fs"
          % (row["empirical"], row["se"], calib["extra_se"],
             report["var_s_n"], report["var_s_tilde"], secs))
    assert ok


# -- 9: pointwise gradient-of-operator-norm inequality -------------------------------

def test_criterion_9_opnorm_gradient_inequality():
    start = time.perf_counter()
    worst = -math.inf
    for qi in range(10):
        dim = 2 + qi % 2
        rng = substream(MASTER_SEED, 9, qi)
        terms = []
        for order in (4, 3):
            for alpha in combinations_with_replacement(range(dim), order):
                expo = [0] * dim
                for i in alpha:
                    expo[i] += 1
                terms.append((tuple(expo), float(rng.standard_normal())))
        f = polynomials.PolyFunction.from_terms(dim, terms)
        pts = rng.uniform(-1.0, 1.0, size=(100, dim))
        for x in pts:
            lhs, rhs = polynomials.opnorm_gradient_check(f, 4, x)
            worst = max(worst, lhs - rhs)
    secs = time.perf_counter() - start
    ok = worst <= 1e-3 and secs < 60.0
    _line(9, ok,
          "1000 points x 10 random quartics: max lhs - rhs = %.2e (tol 1e-3), "
          "%.1fs" % (worst, secs))
    assert ok


# -- 10: byte-identical artifacts on re-run with the same master seed ----------------

def test_criterion_10_deterministic_reruns(tmp_path, bilinear_run,
                                           chaos_tail_runs, rmt_run):
    pairs = []
    cfg, (out0, _, _, _) = bilinear_run
    re_out = tmp_path / "re-bilinear"
    run_config(cfg, str(re_out))
    pairs.append((out0 / "exp_check.csv", re_out / "exp_check.csv"))
    for i, (cfg, (out0, _, _, _)) in enumerate(chaos_tail_runs):
        re_out = tmp_path / ("re-tails-%02d" % i)
        run_config(cfg, str(re_out))
        pairs.append((out0 / "tail_curve.csv", re_out / "tail_curve.csv"))
    cfg, (out0, _, _, _) = rmt_run
    re_out = tmp_path / "re-rmt"
    run_config(cfg, str(re_out))
    pairs.append((out0 / "draws.csv", re_out / "draws.csv"))
    pairs.append((out0 / "tail_curve.csv", re_out / "tail_curve.csv"))
    diffs = [a.name for a, b in pairs if a.read_bytes() != b.read_bytes()]
    ok = not diffs
    _line(10, ok,
          "%d CSV artifacts re-generated with the same master seed are "
          "byte-identical%s" % (len(pairs),
                                "" if ok else "; DIFFER: " + ",".join(diffs)))
    assert ok
