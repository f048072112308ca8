"""Experiment runner: config in, artifacts out.

Every experiment writes a ``report.json`` plus kind-specific CSVs into the
output directory; tail-style experiments also write an SVG view of the CSV
numbers. Each runner returns its report and its artifacts, the files it
would write, and ``run_config`` creates the directory and writes them only
after the runner returned. Exit codes: 0 all checks passed, 1 a
domination/equivalence check failed, 2 invalid config, 3 the run crashed
(the CLI's code); neither of the last two writes anything.

Determinism: the master seed is the only entropy source. Stages
(evaluation sampling, calibration, random tensors, weight norms) derive
their own integer seeds from it, so artifact bytes depend only on
(config, seed).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from . import bounds, fixtures, measures, rmt, svgplot, verify
from ._util import dump_json, is_finite_number, is_integer, stage_seed, write_csv
from .polynomials import MultilinearSpec, PolyFunction, from_multilinear
from .tensors import certified_opnorm, op_norms, power_norms, random_symmetric

SCHEMA_VERSION = 1

# the value of each count, order and grid a config may leave out (a field a
# kind requires, see _KINDS, never falls back to it)
DEFAULTS = {"samples": 1_000_000, "draws": 2000, "cal_draws": 2000, "count": 50,
            "p": 2, "p_values": (2, 4), "t_grid": (1, 2, 4)}

# the draws behind the weighted runner's Monte Carlo weight-norm check (4x this)
WEIGHT_NORM_SAMPLES = 100_000

# spawn-key ids for per-stage seeds
_STAGE_EVAL = 2
_STAGE_CAL = 3
_STAGE_TENSORS = 4
_STAGE_WEIGHTS = 5

# the least value of each count or size a runner reads from the config or fixture
_COUNT_FLOORS = {"samples": 1, "draws": 1, "cal_draws": rmt.MIN_CAL_DRAWS, "count": 1,
                 "matrix_size": 2}


@dataclasses.dataclass(frozen=True)
class _Kind:
    """One experiment kind; their table, ``_KINDS``, follows the runners."""

    runner: object
    fields: tuple  # all it reads besides schema, kind, seed, fixture and out
    required: tuple = ()  # of those, the ones with no default
    route: str | None = None  # the certificate route, unless the config picks it
    samples: str | None = None  # the evaluation-sample field
    sample_floor: int = 1  # the fewest samples the kind's checks accept


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
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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


@dataclasses.dataclass(frozen=True)
class Experiment:
    """A validated config: every field its runner reads, defaults filled in.

    Kind-specific objects are None (or empty) on kinds that do not use them:
    the measure and function on rmt, tensor-norm and catalog-oracle; d and
    the exact rungs (``bounds.exact_hs_rungs``) there and on multilinear;
    matrix_size, the entry law and polynomial unless rmt; the multilinear
    spec unless the payload holds one; the oracle laws unless catalog-oracle.
    d is max(degree of f, 1) and no config sets it: the top rung bounds
    sup |f^(d)|_op, finite only if f^(d) is constant (d >= the degree), and
    above the degree every derivative is 0, so no other order is left.
    """

    kind: str
    seed: int
    fixture: str | None
    route: str | None
    negative_control: bool
    samples: int
    draws: int
    cal_draws: int
    count: int
    p: float
    p_values: tuple
    t_grid: tuple
    d: int | None = None
    matrix_size: int | None = None
    measure: measures.MeasureSpec | None = None
    function: PolyFunction | None = None
    multilinear: MultilinearSpec | None = None
    entry: measures.CoordinateDist | None = None
    poly: tuple | None = None  # (a0, a1, a2) of f = a0 + a1 x + a2 x^2
    oracle_laws: tuple = ()
    hs2: tuple = ()  # the exact rungs n_1..n_(d-1)
    top_hs: float | None = None  # and n_d


def validate_config(cfg):
    """Raise ConfigError unless ``cfg`` resolves; returns ``cfg`` itself."""
    resolve(cfg)
    return cfg


def resolve(cfg):
    """The Experiment ``cfg`` describes, or ConfigError with nothing written.

    Every hypothesis a runner assumes is checked here. The centering and
    the exact rungs of f (``bounds.centering``, ``bounds.exact_hs_rungs``)
    are computed here for the runners; the closed-form rmt sums are only
    checked, and ``rmt.draw_statistics`` and ``rmt.rmt_certificates``
    compute them again. Oracles, sampling and eigensolves are the runner's.
    """
    if cfg.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError("unsupported schema version %r" % (cfg.get("schema"),))
    record, kind = _kind(cfg), cfg["kind"]
    _check_count("seed", _require(cfg, "seed", int, " (a master seed is mandatory)"), 0)
    try:
        payload, fixture = _merged_payload(cfg)
    except KeyError as exc:  # no fixture of that name
        raise ConfigError(str(exc.args[0]))
    if fixture is not None and fixture.kind != kind:
        raise ConfigError("fixture %r has kind %r, config says %r"
                          % (fixture.name, fixture.kind, kind))
    if set(payload).difference(record.fields):
        raise ConfigError("a %s run reads no field(s) %s"
                          % (kind, sorted(set(payload).difference(record.fields))))
    if "route" in payload and payload["route"] not in bounds.EXP_MOMENT_ROUTES:
        raise ConfigError("route must be one of %s, got %r"
                          % (", ".join(bounds.EXP_MOMENT_ROUTES), payload["route"]))
    for field in record.required:
        if field not in payload:
            raise ConfigError("missing required field %r" % (field,))
    for field, floor in _COUNT_FLOORS.items():
        if field in payload:
            _check_count(field, payload[field], floor)
    if record.samples in payload:
        _check_count(record.samples, payload[record.samples], record.sample_floor)
    if "t_grid" in payload:
        grid = payload["t_grid"]
        if not isinstance(grid, list) or not grid or not all(map(is_finite_number, grid)):
            raise ConfigError("t_grid must be a non-empty list of finite numbers: %r" % (grid,))
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("t_grid must be strictly increasing")
    if not isinstance(payload.get("negative_control", False), bool):
        raise ConfigError("negative_control must be true or false, got %r"
                          % (payload["negative_control"],))
    if "p_values" in payload and (not isinstance(payload["p_values"], list)
                                  or not payload["p_values"]):
        raise ConfigError("p_values must be a non-empty list, got %r" % (payload["p_values"],))
    vals = {field: payload.get(field, default) for field, default in DEFAULTS.items()}
    for p in list(vals["p_values"]) + [vals["p"]]:
        if not is_finite_number(p) or p < 2:
            raise ConfigError("p and each of p_values must be a finite number >= 2, got %r"
                              % (p,))
    if len(set(vals["p_values"])) < len(vals["p_values"]):  # one moment check per p
        raise ConfigError("p_values must not repeat a p, got %r" % (vals["p_values"],))
    vals.update(p=float(vals["p"]), p_values=tuple(vals["p_values"]),
                t_grid=tuple(vals["t_grid"]))
    try:
        built = _build(kind, payload)
    except KeyError as exc:
        raise ConfigError("missing required field %s" % (exc,))
    except (TypeError, ValueError) as exc:
        raise ConfigError("invalid %s config: %s" % (kind, exc))
    mspec, f = built.get("measure"), built.get("function")
    d = max(f.degree, 1) if "function" in record.fields else None  # see Experiment
    route = record.route or payload.get("route") or (fixture.route if fixture else None)
    if kind in ("weighted", "weighted-tail"):
        # the weighted runner has the ladder below the top derivative in closed
        # form for gradients only and certifies the Student-type law of one beta
        if f.degree > 2:
            raise ConfigError("weighted experiments need f of degree <= 2, got %d" % f.degree)
        if any(c.dist != "student" for c in mspec.coords) or \
                len({c.beta for c in mspec.coords}) > 1:
            raise ConfigError("weighted experiments need student coordinates of one "
                              "common beta, got %s" % (mspec.to_dict()["coords"],))
        beta = mspec.coords[0].beta
        if beta > measures.STUDENT_BETA_MAX:  # the weight norms would lose digits
            raise ConfigError("weighted experiments need beta <= %g, got beta = %g"
                              % (measures.STUDENT_BETA_MAX, beta))
        # ||w||_q is finite just when q < 2 beta - 1, so the largest q the runner
        # reads (2^d p; every p >= 2) decides; kappa scales it and can wait
        q = 2 ** d * (vals["p"] if kind == "weighted-tail" else max(vals["p_values"]))
        if math.isinf(measures.student_weight_norm(beta, 1.0, q, mspec.dim)):
            raise ConfigError("the %s checks read the weight norm ||w||_%g, infinite for "
                              "the student law with beta = %g (it needs 2 beta - 1 > %g)"
                              % (kind, q, beta, q))
    # exact centering: the certificates assume it and do not test it again
    if kind == "multilinear" and any(mspec.moment(i, 1) != 0.0 for i in range(mspec.dim)):
        raise ConfigError("multilinear certificates need E X_i = 0 for all i")
    if kind in ("certify", "tails", "weighted", "weighted-tail"):
        # only ladder-hs reads the partials, and certify without a route takes
        # it when they are centered
        mean, centered, derivs_centered = bounds.centering(
            f, mspec, d if route in (None, "ladder-hs") else 1)
        if not centered:
            raise ConfigError("%s certificates need E f = 0, got E f = %r" % (kind, mean))
        if route is None:
            route = "ladder-hs" if derivs_centered else "ladder-inf"
        elif route == "ladder-hs" and not derivs_centered:
            raise ConfigError("route ladder-hs needs all derivatives of order < d centered")
    if d is not None:
        vals["hs2"], vals["top_hs"] = bounds.exact_hs_rungs(f, mspec, d)
        past = [k for k, n in enumerate(vals["hs2"] + (vals["top_hs"],), 1)
                if not math.isfinite(n)]
        if past:
            raise ConfigError("the exact derivative rungs of f at order(s) %s are past the "
                              "float range" % ", ".join(map(str, past)))
    return Experiment(
        kind=kind, seed=cfg["seed"], fixture=cfg.get("fixture"), route=route,
        negative_control=payload.get("negative_control", False), d=d,
        matrix_size=payload.get("matrix_size"), **vals, **built)


def _kind(cfg):
    """The _KINDS record of ``cfg``'s kind, or ConfigError."""
    kind = _require(cfg, "kind", str)
    if kind not in _KINDS:
        raise ConfigError("unknown experiment kind %r (choose from %s)"
                          % (kind, ", ".join(_KINDS)))
    return _KINDS[kind]


def _build(kind, payload):
    """The laws, function and polynomial a kind's runner reads, by Experiment field."""
    if kind == "tensor-norm":
        return {}
    if kind == "catalog-oracle":
        return {"oracle_laws": _oracle_laws(payload)}
    if kind == "rmt":
        entry = measures.CoordinateDist.from_dict(payload["entry"])
        measures.coordinate_sigma2(entry)  # an uncertified entry law has no certificate
        poly = rmt.quadratic(payload["coeffs"])  # refuses an |f''| past the float range
        # and so do the closed-form sums, here rather than after the eigensolves
        ens = rmt.WignerEnsemble(payload["matrix_size"], entry)
        rmt.exact_sums(ens, poly)
        # the variance check sums one square of S_N per draw
        draws = payload.get("draws", DEFAULTS["draws"])
        total = draws * rmt.stat_second_moment(ens, poly)
        if not math.isfinite(total):
            raise ValueError("E S_N^2 times %d draws is %r, past the float range"
                             % (draws, total))
        return {"entry": entry, "poly": poly}
    if "function" in payload and "multilinear" in payload:
        raise ValueError("give a function or a multilinear spec, not both")
    mspec = measures.MeasureSpec.from_dict(payload["measure"])
    mlspec = None
    if "multilinear" in payload:
        mlspec = MultilinearSpec.from_dict(payload["multilinear"])
        f = from_multilinear(mlspec)
    else:
        f = PolyFunction.from_dict(payload["function"])
    if mspec.dim != f.dim:
        raise ValueError("the measure has dim %d but the function has dim %d"
                         % (mspec.dim, f.dim))
    if kind in ("certify", "tails", "multilinear"):
        mspec.sigma()  # an uncertified law has no certificate of these kinds
    return {"measure": mspec, "function": f, "multilinear": mlspec}


def _oracle_laws(payload):
    """(tag, CoordinateDist) for each law a catalog-oracle config names; each
    law's constant must be a positive float, for the runner compares with it."""
    which = payload.get("dist", "all")
    if which != "all" and which not in measures.ORACLE_DOMAINS:
        raise ValueError("no oracle domain for distribution %r" % (which,))
    laws = tuple((dist, measures.CoordinateDist.make(dist, **payload.get("params", {})))
                 for dist in (measures.ORACLE_DOMAINS if which == "all" else [which]))
    for _, coord in laws:
        measures.coordinate_sigma2(coord)
    return laws


def _check_count(field, value, floor):
    if not is_integer(value):
        raise ConfigError("%s must be an integer, got %r" % (field, value))
    if value < floor:
        raise ConfigError("%s must be at least %d, got %d" % (field, floor, value))


def _merged_payload(cfg):
    """Fixture payload (if any) overlaid with explicit config fields."""
    fixture = fixtures.by_name(cfg["fixture"]) if "fixture" in cfg else None
    merged = dict(fixture.payload) if fixture else {}
    merged.update({k: v for k, v in cfg.items()
                   if k not in ("schema", "kind", "fixture", "seed", "out")})
    return merged, fixture


def run_config(cfg, out_dir, seed_override=None, samples_override=None):
    """Run one experiment; returns (exit_code, report dict).

    The overrides replace the config's ``seed`` and its evaluation-sample
    field (``draws`` for rmt; tensor-norm and catalog-oracle have none) and
    are validated with the rest of it. Raises ConfigError for an invalid
    config, such as a law that misses its certificate's hypotheses. Nothing
    touches ``out_dir`` before the runner returned, so a run that raises
    writes nothing.
    """
    cfg = dict(cfg)
    if seed_override is not None:
        cfg["seed"] = seed_override
    if samples_override is not None:  # resolve refuses it on a kind without samples
        cfg[_kind(cfg).samples or "samples"] = samples_override
    exp = resolve(cfg)
    report, artifacts = _KINDS[exp.kind].runner(exp)
    report.update({"schema": SCHEMA_VERSION, "kind": exp.kind, "seed": exp.seed,
                   "fixture": exp.fixture})
    report["exit_code"] = 0 if report["passed"] else 1
    os.makedirs(out_dir, exist_ok=True)
    for name, write, args in artifacts + [("report.json", dump_json, (report,))]:
        write(os.path.join(out_dir, name), *args)
    return report["exit_code"], report


# -- tensor-norm ------------------------------------------------------------------

def _run_tensor_norm(exp):
    seed = exp.seed
    rows = []
    max_rel = 0.0
    max_rel_eig = 0.0
    for i in range(exp.count):
        tensor = random_symmetric(stage_seed(seed, _STAGE_TENSORS), i)
        order, dim = tensor.ndim, tensor.shape[0]
        certified = certified_opnorm(tensor)
        iterative = float(power_norms(tensor[None], stage_seed(seed, _STAGE_TENSORS, i))[0])
        rel = abs(iterative - certified) / max(certified, 1e-12)
        max_rel = max(max_rel, rel)
        eig = ""
        rel_eig = ""
        if order == 2:
            eig_val = float(op_norms(tensor[None])[0])
            rel_eig = abs(iterative - eig_val) / max(eig_val, 1e-12)
            max_rel_eig = max(max_rel_eig, rel_eig)
            eig = eig_val
        rows.append((i, order, dim, iterative, certified, rel, eig, rel_eig))
    passed = max_rel <= 1e-4 and max_rel_eig <= 1e-8
    return ({"count": exp.count, "max_rel_diff": max_rel,
             "max_rel_diff_eigh": max_rel_eig,
             "tolerances": {"certified": 1e-4, "eigh": 1e-8}, "passed": passed},
            [("tensor_norms.csv", write_csv,
              (["index", "order", "dim", "iterative", "certified", "rel_diff",
                "eigh", "rel_diff_eigh"], rows))])


# -- catalog-oracle ----------------------------------------------------------------

def _run_catalog_oracle(exp):
    rows = []
    results = {}
    passed = True
    for dist, coord in exp.oracle_laws:
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
    return ({"results": results, "tolerance": 1e-3, "passed": passed},
            [("oracle_ladder.csv", write_csv,
              (["dist", "gridpoints", "lambda1", "sigma2", "expected_sigma2"], rows))])


# -- shared builders ----------------------------------------------------------------

def _eval_tail_counts(f, mspec, m, seed, t_grid):
    """``verify.tail_counts`` of f at the m rows of sample (mspec, seed),
    added up chunk by chunk (``measures.stream``), so no m-value array is
    held."""
    per_chunk = []
    measures.stream(mspec, m, seed, f._add_terms,
                    lambda start, values: per_chunk.append(verify.tail_counts(values, t_grid)))
    return np.sum(per_chunk, axis=0)


# -- certify -------------------------------------------------------------------------

def _run_certify(exp):
    f, mspec, d = exp.function, exp.measure, exp.d
    ladder = bounds.Ladder(mspec.sigma(), d, exp.hs2, exp.top_hs)
    top_inf, top_inf_exact = bounds.constant_top_op(f, d)
    cert = bounds.exp_moment_certificate(ladder, top_inf, exp.route, top_inf_exact)
    values = measures.stream_values(mspec, exp.samples, stage_seed(exp.seed, _STAGE_EVAL),
                                    f._add_terms)
    report = verify.check_exp_certificate(cert, values)
    rate, power, threshold = cert.exp_params()
    row = report.rows[0]
    return ({"certificate": cert.to_dict(), "check": report.to_dict(),
             "samples": exp.samples, "passed": report.passed},
            [("exp_check.csv", write_csv,
              (["route", "rate", "power", "threshold", "estimate", "se",
                "rescale_lambda", "stable", "passed"],
               [(cert.route, rate, power, threshold, row.empirical,
                 row.extra["se"], cert.rescale_lambda,
                 int(row.extra["stable"]), int(row.passed))]))])


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


def _tail_artifacts(header, rows, title, series):
    """tail_curve.csv with ``header`` over ``rows`` (t first), and
    tail_curve.svg plotting each (label, column) of ``series`` against t."""
    ts = [r[0] for r in rows]
    return [("tail_curve.csv", write_csv, (header, rows)),
            ("tail_curve.svg", svgplot.write_plot,
             (title, "t", "P(|f| >= t)",
              [(label, ts, [r[col] for r in rows]) for label, col in series]))]


def _run_tails(exp):
    ladder = bounds.Ladder(exp.measure.sigma(), exp.d, exp.hs2, exp.top_hs)
    cert = bounds.tail_certificate(ladder)
    counts = _eval_tail_counts(exp.function, exp.measure, exp.samples,
                               stage_seed(exp.seed, _STAGE_EVAL), exp.t_grid)
    report = verify.check_tail_certificate(cert, exp.samples, counts, exp.t_grid)
    out = {"certificate": cert.to_dict(), "check": report.to_dict(),
           "samples": exp.samples, "passed": report.passed}
    if exp.negative_control:
        control = verify.check_tail_certificate(
            bounds.tail_certificate(dataclasses.replace(ladder, sigma=ladder.sigma / 10.0)),
            exp.samples, counts, exp.t_grid)
        control_failed = not control.passed
        out["negative_control"] = {"failed_somewhere": control_failed,
                                   "check": control.to_dict()}
        out["passed"] = out["passed"] and control_failed
    return out, _tail_artifacts(_TAIL_HEADER, _tail_rows(report),
                                "derivative-ladder tail bound", _TAIL_SERIES)


# -- multilinear ---------------------------------------------------------------------

def _run_multilinear(exp):
    mspec, mlspec, t_grid = exp.measure, exp.multilinear, exp.t_grid
    unit_var = all(abs(mspec.moment(i, 2) - 1.0) < 1e-12 for i in range(mspec.dim))
    certs = bounds.multilinear_certificates(mlspec, mspec.sigma(), unit_var)
    values = measures.stream_values(mspec, exp.samples, stage_seed(exp.seed, _STAGE_EVAL),
                                    exp.function._add_terms)
    reps = {name: verify.check_exp_certificate(certs[name], values)
            for name in ("exp_hs", "exp_inf")}
    hs, amax = certs["exp_hs"].constants["hs_norm"], certs["exp_inf"].constants["max_entry"]
    norm_consistent = hs <= mspec.dim ** (mlspec.order / 2.0) * amax + 1e-12
    artifacts = []
    if unit_var:
        counts = verify.tail_counts(values, t_grid)
        for name in ("tail_hs", "tail_inf"):
            reps[name] = verify.check_tail_certificate(certs[name], values.size, counts, t_grid)
        rows = [(rh.extra["t"], rh.bound, ri.bound, rh.empirical, rh.extra["ci_low"],
                 rh.extra["ci_high"], int(rh.passed), int(ri.passed))
                for rh, ri in zip(reps["tail_hs"].rows, reps["tail_inf"].rows)]
        artifacts = _tail_artifacts(
            ["t", "bound_hs", "bound_inf", "empirical", "ci_low",
             "ci_high", "passed_hs", "passed_inf"], rows,
            "multilinear chaos tail bounds",
            (("hs-form bound", 1), ("inf-form bound", 2), ("empirical", 3)))
    checks = {name: rep.to_dict() for name, rep in reps.items()}
    passed = norm_consistent and all(rep.passed for rep in reps.values())
    exp_rows = []
    for name in ("exp_hs", "exp_inf"):
        row = reps[name].rows[0]
        exp_rows.append((name, *certs[name].exp_params(), row.empirical, row.extra["se"],
                         int(row.extra["stable"]), int(row.passed)))
    artifacts.append(("exp_check.csv", write_csv,
                      (["form", "rate", "power", "threshold", "estimate", "se",
                        "stable", "passed"], exp_rows)))
    return ({"certificates": {k: c.to_dict() for k, c in certs.items()},
             "checks": checks, "hs_vs_inf_consistent": norm_consistent,
             "centered": True,  # resolve refuses E X_i != 0
             "unit_variance": unit_var,
             "samples": exp.samples, "passed": passed}, artifacts)


# -- weighted ------------------------------------------------------------------------

def _weighted_start(exp):
    """(beta, kappa, exact top operator norm, shared report fields) of a weighted run."""
    beta = exp.measure.coords[0].beta  # resolve checked: one common Student beta
    kappa = measures.student_weight_kappa(beta)
    top_op, _ = bounds.constant_top_op(exp.function, exp.d)  # exact: resolve keeps d <= 2
    return beta, kappa, top_op, {"beta": beta, "kappa": kappa, "samples": exp.samples,
                                 "route": exp.route}


def _run_weighted(exp):
    f, d, seed, mspec = exp.function, exp.d, exp.seed, exp.measure
    beta, kappa, top_op, report = _weighted_start(exp)
    values = measures.stream_values(mspec, exp.samples, stage_seed(seed, _STAGE_EVAL),
                                    f._add_terms)
    rows, mom_checks = [], {}
    for p in exp.p_values:
        wnorms = tuple(
            measures.student_weight_norm(beta, kappa, 2**k * p, mspec.dim)
            for k in range(1, d + 1))
        top_mixed = top_op * (wnorms[d - 2] if d > 1 else
                              measures.student_weight_norm(beta, kappa, p, mspec.dim))
        bm, bp = bounds.weighted_moment_bounds(float(p), wnorms, exp.hs2, top_mixed, top_op)
        row = verify.check_moment_bound(min(bm, bp), values, p).rows[0]
        est, se, ok = row.empirical, row.extra["se"], row.passed
        rows.append((p, bm, bp, est, se, int(ok)))
        mom_checks["p=%g" % p] = {"bound_mixed": bm, "bound_plain": bp,
                                  "empirical": est, "se": se, "passed": ok}
    # MC cross-check that the closed-form weight norms are upper bounds
    q = 2.0 ** d * 2.0
    wn = measures.weighted_norm(mspec, kappa, q, WEIGHT_NORM_SAMPLES,
                                stage_seed(seed, _STAGE_WEIGHTS))
    closed = measures.student_weight_norm(beta, kappa, q, mspec.dim)
    wn_check = {"p": q, "mc": wn.value, "mc_se": wn.se, "closed_form_upper": closed,
                "diverged": wn.diverged,
                "passed": wn.value <= closed * (1.0 + 5.0 * wn.se / max(wn.value, 1e-12))}
    report.update(moment_checks=mom_checks, weight_norm_check=wn_check,
                  passed=all(c["passed"] for c in mom_checks.values()) and wn_check["passed"])
    return report, [("moments.csv", write_csv,
                     (["p", "bound_mixed", "bound_plain", "empirical", "se", "passed"],
                      rows))]


def _run_weighted_tail(exp):
    d, p = exp.d, exp.p
    beta, kappa, top_op, report = _weighted_start(exp)
    # the normalized ladder of weighted_tail_certificate is the sigma = 1 one
    lam = bounds.Ladder(1.0, d, exp.hs2, top_op).rescale()
    w2dp = measures.student_weight_norm(beta, kappa, 2**d * p, exp.measure.dim)
    C = max(2.0 ** (-(d - 1) / 2.0), w2dp)
    cert = bounds.weighted_tail_certificate(C, p, d, rescale_lambda=lam)
    counts = _eval_tail_counts(exp.function, exp.measure, exp.samples,
                               stage_seed(exp.seed, _STAGE_EVAL), exp.t_grid)
    check = verify.check_tail_certificate(cert, exp.samples, counts, exp.t_grid)
    window = cert.constants["window_end"] * lam
    rows = [r + (int(r[0] <= window),) for r in _tail_rows(check)]
    report.update(certificate=cert.to_dict(), check=check.to_dict(), window_end=window, C=C,
                  passed=check.passed)
    return report, _tail_artifacts(_TAIL_HEADER + ["in_window"], rows,
                                   "weighted tail bound (heavy-tailed demo)", _TAIL_SERIES)


# -- rmt -----------------------------------------------------------------------------

def _run_rmt(exp):
    ens, f = rmt.WignerEnsemble(exp.matrix_size, exp.entry), exp.poly
    cal = rmt.calibrate(ens, f, exp.cal_draws, stage_seed(exp.seed, _STAGE_CAL))
    sample = rmt.sample_ensemble(ens, exp.draws, stage_seed(exp.seed, _STAGE_EVAL))
    s_n, s_t, shift = rmt.draw_statistics(ens, sample, f, cal)
    exp_cert, tail_cert = rmt.rmt_certificates(ens, f)
    rate, _, _ = exp_cert.exp_params()
    # the kept draws: up to 0.1% of the requested ones may have been discarded
    exp_check = verify.check_exp_certificate(
        exp_cert, s_t, extra_rel_se=rmt.exp_calibration_slack(rate, shift),
        min_samples=sample.draws)
    tail_check = verify.check_tail_certificate(tail_cert, s_n.size,
                                               verify.tail_counts(s_n, exp.t_grid), exp.t_grid)
    var_s = float(np.var(s_n, ddof=1))
    var_t = float(np.var(s_t, ddof=1))
    var_ok = var_t < var_s
    passed = exp_check.passed and tail_check.passed and var_ok
    artifacts = [("draws.csv", write_csv,
                  (["draw", "s_n", "s_tilde_n"],
                   [(i, s_n[i], s_t[i]) for i in range(s_n.size)]))]
    artifacts += _tail_artifacts(_TAIL_HEADER, _tail_rows(tail_check),
                                 "linear eigenvalue statistic tail", _TAIL_SERIES)
    return {"matrix_size": exp.matrix_size, "draws": exp.draws, "cal_draws": exp.cal_draws,
            "sigma_n2": ens.sigma_n2, "discarded": sample.discarded,
            "certificates": {"exp": exp_cert.to_dict(), "tail": tail_cert.to_dict()},
            # both keys stay for readers of this layout; an exact grad_l2 has SE 0
            "calibration": {"grad_l2": tail_cert.constants["grad_l2"], "grad_l2_se": 0.0,
                            "shift_bound": shift,
                            "extra_se": exp_check.rows[0].extra["extra_se"]},
            "exp_check": exp_check.to_dict(), "tail_check": tail_check.to_dict(),
            "var_s_n": var_s, "var_s_tilde": var_t, "variance_reduced": var_ok,
            "passed": passed}, artifacts


# -- the kinds -----------------------------------------------------------------------

_POLY = ("measure", "function", "multilinear", "samples")  # f on a measure

_KINDS = {  # runner, fields, required, route, samples field, its floor
    "tensor-norm": _Kind(_run_tensor_norm, ("count",)),
    "catalog-oracle": _Kind(_run_catalog_oracle, ("dist", "params")),
    # the config's or the fixture's route, else resolve picks ladder-hs when
    # every partial of order < d is centered and ladder-inf otherwise
    "certify": _Kind(_run_certify, _POLY + ("route",), (), None,
                     "samples", verify.MIN_EXP_SAMPLES),
    "tails": _Kind(_run_tails, _POLY + ("t_grid", "negative_control"),
                   ("t_grid",), "ladder-tail", "samples", verify.MIN_TAIL_SAMPLES),
    "multilinear": _Kind(_run_multilinear, ("measure", "multilinear", "samples", "t_grid"),
                         ("multilinear", "t_grid"), "multilinear", "samples",
                         verify.MIN_EXP_SAMPLES),
    "weighted": _Kind(_run_weighted, _POLY + ("p_values",), (), "weighted-ladder",
                      "samples", 2),  # verify.empirical_lp needs two values
    "weighted-tail": _Kind(_run_weighted_tail, _POLY + ("p", "t_grid"), ("t_grid",),
                           "weighted-tail", "samples", verify.MIN_TAIL_SAMPLES),
    # rmt may discard 0.1% of its draws (one of 1001); the kept draws must
    # still fill the tail check
    "rmt": _Kind(_run_rmt, ("matrix_size", "entry", "coeffs", "draws", "cal_draws", "t_grid"),
                 ("matrix_size", "coeffs"), "wigner-lss", "draws", verify.MIN_TAIL_SAMPLES + 1),
}
