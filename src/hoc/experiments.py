"""Experiment runner: config in, artifacts out.

Every experiment writes a ``report.json`` plus kind-specific CSVs into the
output directory; tail-style experiments also write an SVG view of the CSV
numbers. Exit codes: 0 all checks passed, 1 a domination/equivalence check
failed, 2 invalid config (nothing is written in that case), 3 the run
crashed (the CLI's code; an output directory the run created is removed).

Determinism: the master seed is the only entropy source. Stages (profile
estimation, evaluation sampling, calibration, negative controls) derive
their own integer seeds from it, so artifact bytes depend only on
(config, seed).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import shutil
from math import sqrt

import numpy as np

from . import bounds, fixtures, measures, rmt, svgplot, verify
from ._util import dump_json, stage_seed, substream, write_csv
from .polynomials import MultilinearSpec, PolyFunction, from_multilinear
from .tensors import SymTensor, op_norms

SCHEMA_VERSION = 1

KINDS = ("tensor-norm", "catalog-oracle", "certify", "tails", "multilinear",
         "weighted", "weighted-tail", "rmt")

# spawn-key ids for per-stage seeds
_STAGE_PROFILE = 1
_STAGE_EVAL = 2
_STAGE_CAL = 3
_STAGE_TENSORS = 4
_STAGE_WEIGHTS = 5

# the least value of each count or size a runner reads from the config or fixture
_COUNT_FLOORS = {"samples": 1, "profile_samples": bounds.MIN_PROFILE_SAMPLES,
                 "draws": 1, "cal_draws": rmt.MIN_CAL_DRAWS, "count": 1,
                 "matrix_size": 2, "d": 1}

# the fewest evaluation samples (draws for rmt) each kind's checks accept
_SAMPLE_FLOORS = {"certify": verify.MIN_EXP_SAMPLES, "multilinear": verify.MIN_EXP_SAMPLES,
                  "tails": verify.MIN_TAIL_SAMPLES, "weighted-tail": verify.MIN_TAIL_SAMPLES,
                  "rmt": verify.MIN_TAIL_SAMPLES,
                  "weighted": 2}  # verify.empirical_lp needs two values

# a runner raising one of these was asked for a certificate whose hypotheses
# the configured function or law does not meet: a config error, not a failed check
_HYPOTHESIS_ERRORS = (bounds.MissingHypothesisError, bounds.MissingNormError,
                      measures.UncertifiedConstantError)


class ConfigError(ValueError):
    """Invalid experiment config; carries an optional line/column location."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

    def location(self):
        if self.line is None:
            return ""
        return "line %d, column %d: " % (self.line, self.column)


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc.msg,
                          line=exc.lineno, column=exc.colno)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(cfg, field, types, what=""):
    if field not in cfg:
        raise ConfigError("missing required field %r%s" % (field, what))
    val = cfg[field]
    if not isinstance(val, types):
        raise ConfigError("field %r has the wrong type" % (field,))
    return val


def validate_config(cfg):
    if cfg.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError("unsupported schema version %r" % (cfg.get("schema"),))
    kind = _require(cfg, "kind", str)
    if kind not in KINDS:
        raise ConfigError("unknown experiment kind %r (choose from %s)"
                          % (kind, ", ".join(KINDS)))
    _check_count("seed", _require(cfg, "seed", int, " (a master seed is mandatory)"), 0)
    if "t_grid" in cfg:
        grid = cfg["t_grid"]
        if (not isinstance(grid, list) or len(grid) < 1
                or any(not isinstance(t, (int, float)) for t in grid)):
            raise ConfigError("t_grid must be a list of numbers")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("t_grid must be strictly increasing")
    if "fixture" in cfg:
        try:
            fixture = fixtures.by_name(cfg["fixture"])
        except KeyError as exc:
            raise ConfigError(str(exc.args[0]))
        if fixture.kind != kind:
            raise ConfigError("fixture %r has kind %r, config says %r"
                              % (fixture.name, fixture.kind, kind))
    elif kind not in ("tensor-norm", "catalog-oracle"):
        _validate_inline(cfg, kind)
    payload, _ = _merged_payload(cfg)
    for field, floor in _COUNT_FLOORS.items():
        if field in payload:
            _check_count(field, payload[field], floor)
    samples_field = "draws" if kind == "rmt" else "samples"
    if samples_field in payload:
        _check_count(samples_field, payload[samples_field], _SAMPLE_FLOORS.get(kind, 1))
    p_values = payload.get("p_values", [2])
    if not isinstance(p_values, list) or not p_values:
        raise ConfigError("p_values must be a non-empty list, got %r" % (p_values,))
    for p in p_values + [payload.get("p", 2)]:
        if not isinstance(p, (int, float)) or isinstance(p, bool) or not 2 <= p < math.inf:
            raise ConfigError("p and each of p_values must be a finite number >= 2, got %r"
                              % (p,))
    return cfg


def _check_count(field, value, floor):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError("%s must be an integer, got %r" % (field, value))
    if value < floor:
        raise ConfigError("%s must be at least %d, got %d" % (field, floor, value))


def _validate_inline(cfg, kind):
    if kind == "rmt":
        for field in ("matrix_size", "entry", "coeffs"):
            _require(cfg, field, (int, dict, list))
        return
    _require(cfg, "measure", dict)
    if kind == "multilinear":
        _require(cfg, "multilinear", dict)
    elif kind == "tails":
        if "multilinear" not in cfg:
            _require(cfg, "function", dict)
    else:
        _require(cfg, "function", dict)
    if kind != "multilinear":
        _require(cfg, "d", int)
    if kind in ("tails", "multilinear", "weighted-tail"):
        _require(cfg, "t_grid", list)


def _merged_payload(cfg):
    """Fixture payload (if any) overlaid with explicit config fields."""
    merged = {}
    fixture = None
    if "fixture" in cfg:
        fixture = fixtures.by_name(cfg["fixture"])
        merged.update(fixture.payload)
    merged.update({k: v for k, v in cfg.items()
                   if k not in ("schema", "kind", "fixture", "seed", "out")})
    return merged, fixture


def run_config(cfg, out_dir, seed_override=None, samples_override=None):
    """Run one experiment; returns (exit_code, report dict).

    Raises ConfigError for an invalid config, and for a certificate whose
    hypotheses the configured function or law does not meet. When the run
    raises, an output directory this call created is removed again.
    """
    cfg = validate_config(cfg)
    if seed_override is not None:
        _check_count("the seed override", seed_override, 0)
    if samples_override is not None:
        _check_count("the sample count override", samples_override,
                     _SAMPLE_FLOORS.get(cfg["kind"], 1))
    seed = int(seed_override if seed_override is not None else cfg["seed"])
    created = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    kind = cfg["kind"]
    runner = {"tensor-norm": _run_tensor_norm,
              "catalog-oracle": _run_catalog_oracle,
              "certify": _run_certify,
              "tails": _run_tails,
              "multilinear": _run_multilinear,
              "weighted": _run_weighted,
              "weighted-tail": _run_weighted,
              "rmt": _run_rmt}[kind]
    try:
        report = runner(cfg, out_dir, seed, samples_override)
    except Exception as exc:
        if created:
            shutil.rmtree(out_dir)
        if isinstance(exc, _HYPOTHESIS_ERRORS):
            raise ConfigError(str(exc)) from exc
        raise
    report.update({"schema": SCHEMA_VERSION, "kind": kind, "seed": seed,
                   "fixture": cfg.get("fixture")})
    report["exit_code"] = 0 if report["passed"] else 1
    dump_json(os.path.join(out_dir, "report.json"), report)
    return report["exit_code"], report


# -- tensor-norm ------------------------------------------------------------------

def _random_sym_tensor(rng, dim, order):
    entries = {}
    for idx in itertools.combinations_with_replacement(range(dim), order):
        entries[idx] = float(rng.standard_normal())
    return SymTensor.from_entries(order, dim, entries)


def _run_tensor_norm(cfg, out_dir, seed, samples_override):
    count = int(cfg.get("count", 50))
    rows = []
    max_rel = 0.0
    max_rel_eig = 0.0
    for i in range(count):
        rng = substream(stage_seed(seed, _STAGE_TENSORS), i)
        dim = int(rng.integers(2, 5))
        order = int(rng.integers(2, 5))
        tensor = _random_sym_tensor(rng, dim, order)
        certified = tensor.op_norm("certified")
        iterative = tensor.op_norm("iterative", seed=stage_seed(seed, _STAGE_TENSORS, i))
        rel = abs(iterative - certified) / max(certified, 1e-12)
        max_rel = max(max_rel, rel)
        eig = ""
        rel_eig = ""
        if order == 2:
            eig_val = float(op_norms(tensor.dense[None])[0])
            rel_eig = abs(iterative - eig_val) / max(eig_val, 1e-12)
            max_rel_eig = max(max_rel_eig, rel_eig)
            eig = eig_val
        rows.append((i, order, dim, iterative, certified, rel, eig, rel_eig))
    write_csv(os.path.join(out_dir, "tensor_norms.csv"),
              ["index", "order", "dim", "iterative", "certified", "rel_diff",
               "eigh", "rel_diff_eigh"], rows)
    passed = max_rel <= 1e-4 and max_rel_eig <= 1e-8
    return {"count": count, "max_rel_diff": max_rel,
            "max_rel_diff_eigh": max_rel_eig,
            "tolerances": {"certified": 1e-4, "eigh": 1e-8}, "passed": passed}


# -- catalog-oracle ----------------------------------------------------------------

def _run_catalog_oracle(cfg, out_dir, seed, samples_override):
    which = cfg.get("dist", "all")
    dists = [d for d in measures.ORACLE_DOMAINS] if which == "all" else [which]
    rows = []
    results = {}
    passed = True
    for dist in dists:
        if dist not in measures.ORACLE_DOMAINS:
            raise ConfigError("no oracle domain for distribution %r" % (dist,))
        coord = measures.CoordinateDist.make(dist, **cfg.get("params", {}))
        res = measures.catalog_oracle(coord)
        expected = measures.coordinate_sigma2(coord)
        rel = abs(res.sigma2 - expected) / expected
        ok = rel <= 1e-3 and res.stable
        passed = passed and ok
        results[dist] = {"sigma2": res.sigma2, "lambda1": res.lambda1,
                         "expected": expected, "rel_err": rel,
                         "stable": res.stable, "interval": list(res.interval),
                         "passed": ok}
        for grid, lam, s2 in res.ladder:
            rows.append((dist, grid, lam, s2, expected))
    write_csv(os.path.join(out_dir, "oracle_ladder.csv"),
              ["dist", "gridpoints", "lambda1", "sigma2", "expected_sigma2"], rows)
    return {"results": results, "tolerance": 1e-3, "passed": passed}


# -- shared builders ----------------------------------------------------------------

def _build_measure(payload):
    return measures.MeasureSpec.from_dict(payload["measure"])


def _build_function(payload):
    if "multilinear" in payload:
        spec = MultilinearSpec.from_dict(payload["multilinear"])
        f, _ = from_multilinear(spec)
        return f, spec
    return PolyFunction.from_dict(payload["function"]), None


def _sample_count(payload, samples_override, field="samples", default=1_000_000):
    """Evaluation sample count: the override when one is given, else the payload's."""
    if samples_override is not None:
        return int(samples_override)
    return int(payload.get(field, default))


def _eval_values(f, mspec, m, seed):
    """f at ``measures.sample(mspec, m, seed)``, evaluated block by block as
    the draws are made, so the (m, dim) point matrix never exists."""
    out = np.empty(m)
    start = 0
    for block in measures.sample_blocks(mspec, m, seed):
        out[start:start + block.shape[0]] = f.evaluate(block)
        start += block.shape[0]
    return out


# -- certify -------------------------------------------------------------------------

def _run_certify(cfg, out_dir, seed, samples_override):
    payload, fixture = _merged_payload(cfg)
    mspec = _build_measure(payload)
    f, _ = _build_function(payload)
    d = int(payload["d"])
    route = payload.get("route") or (fixture.route if fixture else None)
    m_eval = _sample_count(payload, samples_override)
    m_prof = int(payload.get("profile_samples", 100_000))
    profile = bounds.profile_from_function(f, mspec, d, m=m_prof,
                                           seed=stage_seed(seed, _STAGE_PROFILE))
    cert = bounds.exp_moment_certificate(profile, route=route)
    values = _eval_values(f, mspec, m_eval, stage_seed(seed, _STAGE_EVAL))
    report = verify.check_exp_certificate(cert, values)
    rate, power, threshold = cert.exp_params()
    row = report.rows[0]
    write_csv(os.path.join(out_dir, "exp_check.csv"),
              ["route", "rate", "power", "threshold", "estimate", "se",
               "rescale_lambda", "stable", "passed"],
              [(cert.route, rate, power, threshold, row.empirical,
                row.extra["se"], cert.rescale_lambda,
                int(row.extra["stable"]), int(row.passed))])
    return {"certificate": cert.to_dict(), "check": report.to_dict(),
            "samples": m_eval, "profile_samples": m_prof,
            "passed": report.passed}


# -- tails ----------------------------------------------------------------------------

_TAIL_HEADER = ["t", "bound", "empirical", "ci_low", "ci_high", "passed"]
_TAIL_SERIES = (("certificate", 1), ("empirical", 2))


def _tail_rows(report):
    """(t, bound, empirical, ci_low, ci_high, passed) per row of a tail report."""
    rows = []
    for r in report.rows:
        rows.append((r.extra["t"], r.bound, r.empirical, r.extra["ci_low"],
                     r.extra["ci_high"], int(r.passed)))
    return rows


def _write_tail_artifacts(out_dir, header, rows, title, series):
    """tail_curve.csv with ``header`` over ``rows`` (t first), and
    tail_curve.svg plotting each (label, column) of ``series`` against t."""
    write_csv(os.path.join(out_dir, "tail_curve.csv"), header, rows)
    ts = [r[0] for r in rows]
    svgplot.write_plot(os.path.join(out_dir, "tail_curve.svg"), title, "t", "P(|f| >= t)",
                       [(label, ts, [r[col] for r in rows]) for label, col in series],
                       logy=True)


def _run_tails(cfg, out_dir, seed, samples_override):
    payload, fixture = _merged_payload(cfg)
    mspec = _build_measure(payload)
    f, _ = _build_function(payload)
    d = int(payload["d"])
    t_grid = payload["t_grid"]
    m_eval = _sample_count(payload, samples_override)
    m_prof = int(payload.get("profile_samples", 100_000))
    profile = bounds.profile_from_function(f, mspec, d, m=m_prof,
                                           seed=stage_seed(seed, _STAGE_PROFILE))
    cert = bounds.tail_certificate(profile)
    values = _eval_values(f, mspec, m_eval, stage_seed(seed, _STAGE_EVAL))
    report = verify.check_tail_certificate(cert, values, t_grid)
    _write_tail_artifacts(out_dir, _TAIL_HEADER, _tail_rows(report),
                          "derivative-ladder tail bound", _TAIL_SERIES)
    out = {"certificate": cert.to_dict(), "check": report.to_dict(),
           "samples": m_eval, "profile_samples": m_prof,
           "passed": report.passed}
    if payload.get("negative_control"):
        weak = dataclasses.replace(profile, sigma=profile.sigma / 10.0)
        control = verify.check_tail_certificate(
            bounds.tail_certificate(weak), values, t_grid)
        control_failed = not control.passed
        out["negative_control"] = {"failed_somewhere": control_failed,
                                   "check": control.to_dict()}
        out["passed"] = out["passed"] and control_failed
    return out


# -- multilinear ---------------------------------------------------------------------

def _run_multilinear(cfg, out_dir, seed, samples_override):
    payload, fixture = _merged_payload(cfg)
    mspec = _build_measure(payload)
    f, mlspec = _build_function(payload)
    if mlspec is None:
        raise ConfigError("multilinear experiments need a multilinear spec")
    t_grid = payload["t_grid"]
    m_eval = _sample_count(payload, samples_override)
    centered = all(mspec.moment(i, 1) == 0.0 for i in range(mspec.dim))
    unit_var = all(abs(mspec.moment(i, 2) - 1.0) < 1e-12 for i in range(mspec.dim))
    certs = bounds.multilinear_certificates(mlspec, mspec.sigma(), centered, unit_var)
    values = _eval_values(f, mspec, m_eval, stage_seed(seed, _STAGE_EVAL))
    checks = {}
    passed = True
    for name in ("exp_hs", "exp_inf"):
        rep = verify.check_exp_certificate(certs[name], values)
        checks[name] = rep.to_dict()
        passed = passed and rep.passed
    _, tensor = from_multilinear(mlspec)
    norm_consistent = tensor.hs_norm() <= mspec.dim ** (mlspec.order / 2.0) \
        * tensor.max_abs_entry() + 1e-12
    passed = passed and norm_consistent
    rows = []
    if unit_var:
        rep_hs = verify.check_tail_certificate(certs["tail_hs"], values, t_grid)
        rep_inf = verify.check_tail_certificate(certs["tail_inf"], values, t_grid)
        checks["tail_hs"] = rep_hs.to_dict()
        checks["tail_inf"] = rep_inf.to_dict()
        passed = passed and rep_hs.passed and rep_inf.passed
        for rh, ri in zip(rep_hs.rows, rep_inf.rows):
            rows.append((rh.extra["t"], rh.bound, ri.bound, rh.empirical,
                         rh.extra["ci_low"], rh.extra["ci_high"],
                         int(rh.passed), int(ri.passed)))
        _write_tail_artifacts(
            out_dir, ["t", "bound_hs", "bound_inf", "empirical", "ci_low",
                      "ci_high", "passed_hs", "passed_inf"], rows,
            "multilinear chaos tail bounds",
            (("hs-form bound", 1), ("inf-form bound", 2), ("empirical", 3)))
    exp_rows = []
    for name in ("exp_hs", "exp_inf"):
        rate, power, threshold = certs[name].exp_params()
        row = checks[name]["rows"][0]
        exp_rows.append((name, rate, power, threshold, row["empirical"],
                         row["se"], int(row["stable"]), int(row["passed"])))
    write_csv(os.path.join(out_dir, "exp_check.csv"),
              ["form", "rate", "power", "threshold", "estimate", "se",
               "stable", "passed"], exp_rows)
    return {"certificates": {k: c.to_dict() for k, c in certs.items()},
            "checks": checks, "hs_vs_inf_consistent": norm_consistent,
            "centered": centered, "unit_variance": unit_var,
            "samples": m_eval, "passed": passed}


# -- weighted ------------------------------------------------------------------------

def _weighted_setup(payload):
    beta = float(payload["measure"]["coords"][0]["params"].get("beta", 10.0))
    kappa, gap = measures.student_weight_kappa(beta)
    mdict = dict(payload["measure"])
    mdict["weight"] = {"kind": "sqrt_one_plus_max_sq", "params": {"kappa": kappa}}
    mspec = measures.MeasureSpec.from_dict(mdict)
    f = PolyFunction.from_dict(payload["function"])
    return beta, kappa, gap, mspec, f


def _exact_gradient_l2(f, mspec):
    total = 0.0
    for g in f.gradient:
        total += g.second_moment(mspec.moment)
    return sqrt(total)


def _run_weighted(cfg, out_dir, seed, samples_override):
    payload, fixture = _merged_payload(cfg)
    beta, kappa, gap, mspec, f = _weighted_setup(payload)
    d = int(payload["d"])
    if d > 2:
        # the ladder below the top derivative is computed in closed form here,
        # which this runner only does for gradients
        raise ConfigError("weighted experiments support d <= 2")
    default_route = "weighted-tail" if cfg["kind"] == "weighted-tail" else "weighted-ladder"
    route = payload.get("route") or (fixture.route if fixture else default_route)
    m_eval = _sample_count(payload, samples_override)
    values = _eval_values(f, mspec, m_eval, stage_seed(seed, _STAGE_EVAL))
    norms2 = (_exact_gradient_l2(f, mspec),) if d == 2 else ()
    top_op = bounds.constant_opnorm(f.derivative_tensor(d))
    report = {"beta": beta, "kappa": kappa,
              "weighted_gap": gap.to_dict(), "samples": m_eval,
              "route": route}
    passed = True
    if route == "weighted-ladder":
        rows = []
        mom_checks = {}
        for p in payload.get("p_values", [2, 4]):
            wnorms = tuple(
                measures.student_weight_norm(beta, kappa, 2**k * p, mspec.dim)
                for k in range(1, d + 1))
            wp = bounds.WeightedProfile(
                d, float(p), wnorms, norms2,
                top_mixed=top_op * (wnorms[d - 2] if d > 1 else
                                    measures.student_weight_norm(beta, kappa, p,
                                                                 mspec.dim)),
                top_2dp=top_op)
            bm, bp = bounds.weighted_moment_bounds(wp)
            est, se = verify.empirical_lp(values, p)
            ok = est <= min(bm, bp) + 5.0 * se
            passed = passed and ok
            rows.append((p, bm, bp, est, se, int(ok)))
            mom_checks["p=%g" % p] = {"bound_mixed": bm, "bound_plain": bp,
                                      "empirical": est, "se": se, "passed": ok}
        write_csv(os.path.join(out_dir, "moments.csv"),
                  ["p", "bound_mixed", "bound_plain", "empirical", "se",
                   "passed"], rows)
        report["moment_checks"] = mom_checks
        # MC cross-check that the closed-form weight norms are upper bounds
        q = 2.0 ** d * 2.0
        wn = measures.weighted_norm(mspec, q, m=100_000,
                                    seed=stage_seed(seed, _STAGE_WEIGHTS))
        closed = measures.student_weight_norm(beta, kappa, q, mspec.dim)
        report["weight_norm_check"] = {
            "p": q, "mc": wn.value, "mc_se": wn.se, "closed_form_upper": closed,
            "diverged": wn.diverged,
            "passed": wn.value <= closed * (1.0 + 5.0 * wn.se / max(wn.value, 1e-12))}
        passed = passed and report["weight_norm_check"]["passed"]
    else:  # weighted-tail route
        p = float(payload.get("p", 2))
        lam = max([1.0, top_op] + [v for v in norms2])
        w2dp = measures.student_weight_norm(beta, kappa, 2**d * p, mspec.dim)
        floor = 2.0 ** (-(d - 1) / 2.0)
        C = max(floor, w2dp)
        cert = bounds.weighted_tail_certificate(C, p, d, rescale_lambda=lam)
        t_grid = payload["t_grid"]
        check = verify.check_tail_certificate(cert, values, t_grid)
        passed = check.passed
        window = cert.constants["window_end"] * lam
        rows = [r + (int(r[0] <= window),) for r in _tail_rows(check)]
        _write_tail_artifacts(out_dir, _TAIL_HEADER + ["in_window"], rows,
                              "weighted tail bound (heavy-tailed demo)", _TAIL_SERIES)
        report["certificate"] = cert.to_dict()
        report["check"] = check.to_dict()
        report["window_end"] = window
        report["C"] = C
    report["passed"] = passed
    return report


# -- rmt -----------------------------------------------------------------------------

def _run_rmt(cfg, out_dir, seed, samples_override):
    payload, fixture = _merged_payload(cfg)
    n = int(payload["matrix_size"])
    entry = measures.CoordinateDist.make(payload["entry"]["dist"],
                                         **payload["entry"].get("params", {}))
    ens = rmt.WignerEnsemble(n, entry)
    poly = rmt.as_polynomial(payload["coeffs"])
    rmt.certified_fpp(poly)  # before any eigensolve: it depends on f alone
    draws = _sample_count(payload, samples_override, "draws", 2000)
    cal_draws = int(payload.get("cal_draws", 2000))
    cal = rmt.calibrate(ens, poly, cal_draws, stage_seed(seed, _STAGE_CAL))
    sample = rmt.sample_ensemble(ens, draws, stage_seed(seed, _STAGE_EVAL))
    s_n = rmt.linear_stat(sample, poly, cal)
    s_t = rmt.recentered_stat(sample, poly, cal)
    exp_cert, tail_cert = rmt.rmt_certificates(ens, poly, cal)
    # widen the tail certificate's estimated constant by 3 SE so estimation
    # error cannot manufacture a false domination failure
    tail_cert = dataclasses.replace(
        tail_cert, constants={**tail_cert.constants,
                              "grad_l2": cal.grad_l2 + 3.0 * cal.grad_l2_se})
    rate, _, _ = exp_cert.exp_params()
    shift = rmt.calibration_shift_bound(sample, cal)
    est = verify.empirical_exp_moment(np.abs(s_t), rate, 0.5, min_samples=draws)
    extra_se = rmt.exp_calibration_se(rate, shift, est.value)
    exp_check = verify.check_exp_certificate(exp_cert, s_t, extra_se=extra_se,
                                             min_samples=draws)
    tail_check = verify.check_tail_certificate(tail_cert, s_n,
                                               payload.get("t_grid", [1, 2, 4]))
    var_s = float(np.var(s_n, ddof=1))
    var_t = float(np.var(s_t, ddof=1))
    var_ok = var_t < var_s
    write_csv(os.path.join(out_dir, "draws.csv"),
              ["draw", "s_n", "s_tilde_n"],
              [(i, s_n[i], s_t[i]) for i in range(s_n.size)])
    _write_tail_artifacts(out_dir, _TAIL_HEADER, _tail_rows(tail_check),
                          "linear eigenvalue statistic tail", _TAIL_SERIES)
    passed = exp_check.passed and tail_check.passed and var_ok
    return {"matrix_size": n, "draws": draws, "cal_draws": cal_draws,
            "sigma_n2": ens.sigma_n2, "discarded": sample.discarded,
            "certificates": {"exp": exp_cert.to_dict(), "tail": tail_cert.to_dict()},
            "calibration": {"grad_l2": cal.grad_l2, "grad_l2_se": cal.grad_l2_se,
                            "shift_bound": shift, "extra_se": extra_se},
            "exp_check": exp_check.to_dict(), "tail_check": tail_check.to_dict(),
            "var_s_n": var_s, "var_s_tilde": var_t, "variance_reduced": var_ok,
            "passed": passed}
