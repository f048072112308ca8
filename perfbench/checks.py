"""Correctness checks on a workload's artifacts, made apart from the program.

Each check returns a list of failure messages (empty when the artifacts are
right). The checks compare against computations of the benchmark's own
(numpy on its own draws, closed forms, polynomial roots) or against
properties the method must have; an unchanged copy of an earlier output is
never the reference. Every operation of a run writes byte-identical
artifacts (checked in run.py), so checking the last operation's artifacts
checks them all.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import os
from math import factorial, sqrt

import numpy as np

import workloads

Z95 = 1.959963984540054
# Two independent samples of one law: their 95% Wilson intervals miss each
# other at one of 12 grid points for about one seed in twenty. z = 5 intervals
# make a chance miss rarer than one in 10^6 runs, and still catch a tail
# fraction that is off by more than about 0.5% absolute at 10^6 samples.
Z_AGREE = 5.0
CHAOS_REF_SAMPLES = 1_000_000
_BLOCK = 65536


def wilson(k, m, z):
    phat = k / m
    denom = 1.0 + z * z / m
    center = (phat + z * z / (2 * m)) / denom
    half = z * sqrt(phat * (1 - phat) / m + z * z / (4 * m * m)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _close(a, b, rel, abs_tol=0.0):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- chaos-tails ------------------------------------------------------------------

def chaos_values(payload, m, rng):
    """|f| on m fresh gaussian draws, f = sum_{i<j<k} a_ijk x_i x_j x_k,
    computed as T[x, x, x] / 6 with the symmetrized coefficient tensor."""
    spec = payload["multilinear"]
    n, order = spec["dim"], spec["order"]
    if order != 3 or any(c["dist"] != "gaussian" or c.get("params")
                         for c in payload["measure"]["coords"]):
        raise ValueError("the reference covers standard gaussian order-3 chaos only")
    T = np.zeros((n, n, n))
    for c in spec["coeffs"]:
        i, j, k = c["index"]
        for p in ((i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
            T[p] = c["value"]
    flat = T.reshape(n, n * n)
    out = np.empty(m)
    for s in range(0, m, _BLOCK):
        x = rng.standard_normal((min(_BLOCK, m - s), n))
        y = (x @ flat).reshape(-1, n, n)
        out[s:s + x.shape[0]] = np.einsum("bij,bi,bj->b", y, x, x) / 6.0
    return np.abs(out)


def check_chaos(seed, art):
    from hoc import fixtures

    fails = []
    with open(os.path.join(art, "report.json")) as fh:
        report = json.load(fh)
    if report["exit_code"] != 0 or not report["passed"]:
        fails.append("run_config reported a failed check (exit %r)" % report["exit_code"])
    payload = fixtures.by_name(workloads.CHAOS_FIXTURE).payload
    grid = payload["t_grid"]
    rows = report["check"]["rows"]
    m = report["check"]["m"]
    if m != payload["samples"] or [r["t"] for r in rows] != grid:
        return fails + ["expected %d samples on the fixture's %d-point grid"
                        % (payload["samples"], len(grid))]
    csv_rows = _read_csv(os.path.join(art, "tail_curve.csv"))
    for row, crow in zip(rows, csv_rows):
        if any(float(crow[c]) != row[k] for c, k in
               (("t", "t"), ("bound", "bound"), ("empirical", "empirical"),
                ("ci_low", "ci_low"), ("ci_high", "ci_high"))):
            fails.append("tail_curve.csv differs from report.json at t=%g" % row["t"])
    rng = np.random.default_rng([seed, 0x70C4])
    ref = np.sort(chaos_values(payload, CHAOS_REF_SAMPLES, rng))
    prev = math.inf
    for row in rows:
        t, frac, bound = row["t"], row["empirical"], row["bound"]
        k = round(frac * m)
        lo, hi = wilson(k, m, Z95)
        if not (_close(lo, row["ci_low"], 1e-9, 1e-15)
                and _close(hi, row["ci_high"], 1e-9, 1e-15)):
            fails.append("t=%g: Wilson interval %r differs from the program's %r"
                         % (t, (lo, hi), (row["ci_low"], row["ci_high"])))
        k_ref = ref.size - int(np.searchsorted(ref, t, side="left"))
        a_lo, a_hi = wilson(k, m, Z_AGREE)
        b_lo, b_hi = wilson(k_ref, ref.size, Z_AGREE)
        if max(a_lo, b_lo) > min(a_hi, b_hi):
            fails.append("t=%g: tail fraction %.6f disagrees with the reference %.6f"
                         % (t, frac, k_ref / ref.size))
        if not (row["ci_low"] <= bound <= 1.0):
            fails.append("t=%g: bound %r outside [ci_low %r, 1]" % (t, bound, row["ci_low"]))
        if bound > prev:
            fails.append("t=%g: bound increases in t" % t)
        prev = bound
    return fails


# -- wigner-lss ---------------------------------------------------------------------

def check_wigner(seed, art):
    from hoc import fixtures

    fails = []
    with open(os.path.join(art, "report.json")) as fh:
        report = json.load(fh)
    payload = fixtures.by_name(workloads.WIGNER_FIXTURE).payload
    n = payload["matrix_size"]
    if report["exit_code"] != 0 or not report["passed"]:
        fails.append("run_config reported a failed check (exit %r)" % report["exit_code"])
    if payload["coeffs"] != [0.0, 0.0, 0.5] or payload["entry"]["dist"] != "gaussian":
        return fails + ["the checks below assume f = x^2/2 and gaussian entries"]
    if report["matrix_size"] != n or report["draws"] != payload["draws"]:
        return fails + ["expected N=%d and %d draws" % (n, payload["draws"])]
    row = report["exp_check"]["rows"][0]
    if not row["empirical"] <= 2.0 + 3.0 * row["se"]:
        fails.append("exp-moment estimate %r above 2 + 3 se" % row["empirical"])
    if not report["var_s_tilde"] < report["var_s_n"]:
        fails.append("recentering did not reduce the variance")
    rows = _read_csv(os.path.join(art, "draws.csv"))
    s_n = np.array([float(r["s_n"]) for r in rows])
    if s_n.size != payload["draws"]:
        fails.append("draws.csv has %d rows" % s_n.size)
    # sum_j f(lambda_j) = |M|_F^2 / 2 has mean N/2 and variance 1 - 1/(2N)
    var = float(np.var(s_n, ddof=1))
    if not _close(var, report["var_s_n"], 1e-12):
        fails.append("var_s_n %r differs from draws.csv (%r)" % (report["var_s_n"], var))
    dev = s_n - s_n.mean()
    m4 = float(np.mean(dev ** 4))
    se_var = sqrt(max(m4 - var * var * (s_n.size - 3) / (s_n.size - 1), 0.0) / s_n.size)
    want = 1.0 - 1.0 / (2 * n)
    if abs(var - want) > 5.0 * se_var:
        fails.append("var_s_n %.5f is not 1 - 1/(2N) = %.5f within 5 se (%.5f)"
                     % (var, want, se_var))
    # S_N = sum_j f(lambda_j) - (calibrated sum_j E f(lambda_j)), so its mean
    # tests the calibrated value against N/2, with the SE of both samples
    if abs(s_n.mean()) > 5.0 * sqrt(var / s_n.size + var / report["cal_draws"]):
        fails.append("mean S_N = %.5f: the calibrated sum E f(lambda_j) is not N/2"
                     % s_n.mean())
    # f' = x, so E sum_j f'(lambda_j)^2 = E |M|_F^2 = N
    cal = report["calibration"]
    if abs(cal["grad_l2"] ** 2 - n) > 5.0 * 2.0 * cal["grad_l2"] * cal["grad_l2_se"]:
        fails.append("calibrated E sum f'(lambda_j)^2 = %.5f is not N = %d within 5 se"
                     % (cal["grad_l2"] ** 2, n))
    return fails


# -- opnorm-gradient ------------------------------------------------------------------

def _quartic_part(terms):
    return [(e, c) for e, c in terms if sum(e) == 4]


def _form(p4, v):
    """p4 at each row of v."""
    out = np.zeros(v.shape[0])
    for e, c in p4:
        out += c * np.prod(v ** np.array(e), axis=1)
    return out


def circle_max(p4):
    """max over the unit circle of |p4|, from the critical points: the real
    roots of x dp/dy - y dp/dx at x = 1, plus the point x = 0."""
    c = np.zeros(5)  # p(1, t) = sum_k c[k] t^k
    for (a, b), coef in p4:
        c[b] += coef
    h = np.zeros(6)  # x p_y - y p_x at (1, t), ascending powers of t
    for k in range(5):
        if k:
            h[k - 1] += k * c[k]
        h[k + 1] -= (4 - k) * c[k]
    roots = np.roots(np.trim_zeros(h[::-1], "f")) if np.any(h) else np.array([])
    ts = np.real(roots)
    cand = np.vstack([np.column_stack([np.ones_like(ts), ts]), [[1.0, 0.0], [0.0, 1.0]]])
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    return float(np.max(np.abs(_form(p4, cand))))


def check_opnorm(seed, art):
    fails = []
    with open(os.path.join(art, "pairs.txt")) as fh:
        pairs = ast.literal_eval(fh.read())
    if len(pairs) != workloads.OPNORM_QUARTICS:
        return ["expected %d quartics, got %d" % (workloads.OPNORM_QUARTICS, len(pairs))]
    for qi, qpairs in enumerate(pairs):
        dim, terms, points = workloads.quartic_terms(workloads.CRITERION9_SEED, qi)
        p4 = _quartic_part(terms)
        # T = D^4 f is constant: T[v,v,v,v] = 24 p4(v), |T|_HS^2 = 24 sum alpha! c^2
        hs = sqrt(24.0 * sum(float(np.prod([factorial(a) for a in e])) * c * c
                             for e, c in p4))
        rng = np.random.default_rng([seed, 0x0B9, qi])
        v = rng.standard_normal((4096, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        lower = 24.0 * float(np.max(np.abs(_form(p4, v))))
        exact = 24.0 * circle_max(p4) if dim == 2 else None
        if len(qpairs) != len(points):
            fails.append("quartic %d: %d results for %d points" % (qi, len(qpairs), len(points)))
        for j, (lhs, rhs) in enumerate(qpairs):
            where = "quartic %d (dim %d), point %d" % (qi, dim, j)
            if not lhs <= rhs + 1e-3:
                fails.append("%s: lhs %r > rhs %r + 1e-3" % (where, lhs, rhs))
            if not lower * (1 - 1e-12) <= rhs <= hs * (1 + 1e-12):
                fails.append("%s: rhs %r outside [%r, HS %r]" % (where, rhs, lower, hs))
            if exact is not None and not _close(rhs, exact, 1e-7):
                fails.append("%s: rhs %r is not 24 max|p4| = %r" % (where, rhs, exact))
    return fails


CHECKS = {"chaos-tails": check_chaos, "wigner-lss": check_wigner,
          "opnorm-gradient": check_opnorm}
