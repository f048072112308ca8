"""CLI behavior and config validation: exit codes, error locations, artifacts."""

import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from hoc import cli, experiments, fixtures, measures, rmt


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


def run_cli(args):
    return cli.main([str(a) for a in args])


# -- config validation (unit level) ---------------------------------------------------


def test_validate_minimal_ok():
    cfg = {"kind": "tensor-norm", "seed": 3}
    assert experiments.validate_config(cfg) is cfg
    assert experiments.validate_config({"schema": 1, "kind": "catalog-oracle",
                                        "seed": 0}) is not None


def test_validate_schema_version():
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config({"schema": 2, "kind": "tensor-norm", "seed": 0})


def test_validate_kind_and_seed():
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config({"seed": 0})
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config({"kind": "spectral", "seed": 0})
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config({"kind": "tensor-norm"})
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config({"kind": "tensor-norm", "seed": True})
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config({"kind": "tensor-norm", "seed": "7"})


def test_validate_t_grid():
    base = {"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n2-d2-tails"}
    assert experiments.validate_config(dict(base, t_grid=[1.0, 2.0]))
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config(dict(base, t_grid=[2.0, 1.0]))
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config(dict(base, t_grid=[1.0, 1.0]))
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config(dict(base, t_grid=[]))
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config(dict(base, t_grid=[1.0, "two"]))
    for bad in (float("nan"), float("inf"), True):
        with pytest.raises(experiments.ConfigError, match="finite numbers"):
            experiments.validate_config(dict(base, t_grid=[0.5, bad]))


def test_validate_fixture_name_and_kind():
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config({"kind": "tails", "seed": 0, "fixture": "nope"})
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config({"kind": "certify", "seed": 0,
                                     "fixture": "gaussian-chaos-n2-d2-tails"})


def test_validate_inline_requirements():
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config({"kind": "certify", "seed": 0})  # no measure
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config({"kind": "rmt", "seed": 0})  # no matrix_size
    measure = {"dim": 2, "coords": [{"dist": "gaussian", "params": {}},
                                    {"dist": "gaussian", "params": {}}]}
    func = {"dim": 2, "terms": [{"exponents": [1, 1], "coeff": 1.0}]}
    ok = {"kind": "certify", "seed": 0, "measure": measure, "function": func,
          "samples": 100000}
    assert experiments.validate_config(ok)
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config({"kind": "tails", "seed": 0, "measure": measure,
                                     "function": func})  # tails need t_grid


def test_validate_weighted_order_before_any_oracle(monkeypatch):
    def oracle(*args, **kwargs):
        raise AssertionError("weight norm before the order check")

    # resolve's first weight computation, right after its degree <= 2 check:
    # a cubic's order d = 3 is past the closed-form ladder of the weighted kinds
    monkeypatch.setattr(experiments.measures, "student_weight_norm", oracle)
    cubic = {"dim": 2, "terms": [{"exponents": [2, 1], "coeff": 1.0}]}
    for kind, fixture in (("weighted", "student-weighted-moments-d2"),
                          ("weighted-tail", "student-weighted-tail-d2")):
        with pytest.raises(experiments.ConfigError, match="degree <= 2, got 3"):
            experiments.validate_config({"kind": kind, "seed": 0, "fixture": fixture,
                                         "function": cubic})


def test_merged_payload_overrides():
    cfg = {"kind": "tails", "seed": 5, "fixture": "gaussian-chaos-n2-d2-tails",
           "samples": 1234, "out": "x"}
    merged, fixture = experiments._merged_payload(cfg)
    assert fixture.name == "gaussian-chaos-n2-d2-tails"
    assert merged["samples"] == 1234          # config wins over fixture payload
    assert "seed" not in merged and "out" not in merged
    assert merged["t_grid"] == fixture.payload["t_grid"]  # fixture fields survive


def test_resolve_fills_omitted_counts_from_defaults():
    tails = experiments.resolve(
        {"kind": "tails", "seed": 0, "measure": _GAUSS2, "t_grid": [1.0, 2.0],
         "function": {"dim": 2, "terms": [{"exponents": [1, 1], "coeff": 1.0}]}})
    wigner = experiments.resolve(
        {"kind": "rmt", "seed": 0, "matrix_size": 5, "coeffs": [0.0, 0.0, 0.5],
         "entry": {"dist": "gaussian", "params": {}}})
    for exp in (tails, wigner):
        assert isinstance(exp, experiments.Experiment)
        with pytest.raises(dataclasses.FrozenInstanceError):
            exp.samples = 1
        for field in ("samples", "draws", "cal_draws", "count"):
            assert getattr(exp, field) == experiments.DEFAULTS[field]
    assert tails.t_grid == (1.0, 2.0) and tails.route == "ladder-tail"
    assert wigner.t_grid == tuple(experiments.DEFAULTS["t_grid"])
    assert wigner.measure is None and wigner.poly is not None


def test_resolve_picks_the_certify_route():
    # with no route in the config, ladder-hs when every partial of order < d
    # is centered (x1 x2), else ladder-inf (x1 x2 + x1, gradient mean (1, 0))
    def route(terms):
        return experiments.resolve(
            {"kind": "certify", "seed": 0, "measure": _GAUSS2,
             "function": {"dim": 2, "terms": terms}}).route

    x1x2 = {"exponents": [1, 1], "coeff": 1.0}
    assert route([x1x2]) == "ladder-hs"
    assert route([x1x2, {"exponents": [1, 0], "coeff": 1.0}]) == "ladder-inf"


def test_every_fixture_and_digest_config_resolves():
    # tools/output_digests.py runs these configs to compare artifact bytes
    # across a change; none may fall foul of validation
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools",
                        "output_digests.py")
    spec = importlib.util.spec_from_file_location("output_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    cfgs = [cfg for _, cfg in digests.configs()]
    assert len(cfgs) == 50
    for fx in fixtures.inventory():
        cfgs.append(dict(fx.payload, kind=fx.kind, seed=0))
    ordered = 0
    for cfg in cfgs:
        exp = experiments.resolve(cfg)
        assert isinstance(exp, experiments.Experiment)
        # the certificate order is the degree of f, and no config sets it
        if exp.kind in ("certify", "tails", "weighted", "weighted-tail"):
            assert exp.d == max(exp.function.degree, 1), cfg
            ordered += 1
        else:
            assert exp.d is None
    # 18 fixtures, each tails fixture's negative control and two inline runs,
    # then the 18 fixture payloads alone
    assert ordered == 18 + 12 + 2 + 18


def test_a_cubic_certifies_at_order_3():
    # x1^2 x2 has E f = 0 under the gaussian pair and a constant order-3
    # derivative, so the certify fixture's ladder-inf route runs at d = 3
    exp = experiments.resolve({
        "kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-opnorm",
        "function": {"dim": 2, "terms": [{"exponents": [2, 1], "coeff": 1.0}]}})
    assert exp.d == 3 and exp.route == "ladder-inf" and len(exp.hs2) == 2


def test_load_config_errors(tmp_path):
    with pytest.raises(experiments.ConfigError) as err:
        experiments.load_config(str(tmp_path / "missing.json"))
    assert "cannot read" in str(err.value)
    bad = write_cfg(tmp_path, '{"kind": "tails",\n  "seed": }')
    with pytest.raises(experiments.ConfigError) as err:
        experiments.load_config(bad)
    assert err.value.line == 2
    assert "line 2" in err.value.location()
    arr = write_cfg(tmp_path, "[1, 2]", name="arr.json")
    with pytest.raises(experiments.ConfigError):
        experiments.load_config(arr)


# -- CLI surface ---------------------------------------------------------------------


def test_cli_invalid_config_writes_nothing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "tails", "seed": 0, "fixture": "nope"})
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert not out.exists()


def test_cli_config_not_utf8_writes_nothing(tmp_path, capsys):
    # a UTF-16 byte order mark is no UTF-8 text: a config error, not a crash
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"kind": "tensor-norm", "seed": 0}).encode())
    out = tmp_path / "out"
    assert run_cli(["run", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("samples", [0, -5])
def test_cli_samples_below_one_writes_nothing(tmp_path, capsys, samples):
    cfg = write_cfg(tmp_path, {"kind": "tails", "seed": 0,
                               "fixture": "gaussian-chaos-n2-d2-tails"})
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out, "--samples", samples]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


_GAUSS2 = {"dim": 2, "coords": [{"dist": "gaussian", "params": {}},
                                {"dist": "gaussian", "params": {}}]}
_STUDENT = {"dist": "student", "params": {"beta": 10.0}}

# f = x1^2 is not centered, so the tail certificate's E f = 0 fails
_UNCENTERED_TAILS = {
    "kind": "tails", "seed": 0, "measure": _GAUSS2, "t_grid": [1.0, 2.0],
    "function": {"dim": 2, "terms": [{"exponents": [2, 0], "coeff": 1.0}]},
    "samples": 1000}

# f = 1e200 x1 x2: its rungs n_1 and n_2 are sums of squares of 1e200, past
# the float range, while E f and the Hessian's operator norm stay finite
_HUGE_BILINEAR = {"dim": 2, "terms": [{"exponents": [1, 1], "coeff": 1e200}]}
# x + 5 has E f = 5 under every law the weighted kinds take
_SHIFTED_X = {"dim": 1, "terms": [{"exponents": [1], "coeff": 1.0},
                                  {"exponents": [0], "coeff": 5.0}]}


def _student_beta(beta):
    """A student-weighted-moments-d1 config on the Student-type law of ``beta``."""
    return {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d1",
            "measure": {"dim": 1, "coords": [{"dist": "student", "params": {"beta": beta}}]}}


_HUGE_RUNG_CFGS = [dict(_UNCENTERED_TAILS, function=_HUGE_BILINEAR),
                   {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d2",
                    "function": _HUGE_BILINEAR}]


@pytest.mark.parametrize("cfg", [
    _UNCENTERED_TAILS,
    # a cubic statistic has no uniform bound on f''
    {"kind": "rmt", "seed": 0, "matrix_size": 5, "coeffs": [0.0, 0.0, 0.0, 1.0],
     "entry": {"dist": "gaussian", "params": {}}, "draws": 1001, "cal_draws": 500},
    # sample counts and seeds the runners cannot use
    {"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n2-d2-tails",
     "samples": "abc"},
    {"kind": "tails", "seed": -3, "fixture": "gaussian-chaos-n2-d2-tails"},
    # fewer evaluation samples than the kind's checks accept
    {"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n2-d2-tails", "samples": 500},
    {"kind": "rmt", "seed": 0, "fixture": "wigner-gaussian-n50", "draws": 50},
    {"kind": "rmt", "seed": 0, "fixture": "wigner-gaussian-n50", "draws": 1000},
    {"kind": "multilinear", "seed": 0, "fixture": "gaussian-chaos-n2-d2-multilinear",
     "samples": 5000},
    {"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-hs", "samples": 10},
    # out-of-range sizes and exponents
    {"kind": "rmt", "seed": 0, "fixture": "wigner-gaussian-n50", "matrix_size": 1},
    {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d1",
     "p_values": ["x"]},
    # routes: only certify picks one, and only an exp-moment route
    {"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-hs", "route": "ladder-typo"},
    {"kind": "weighted-tail", "seed": 0, "fixture": "student-weighted-tail-d1",
     "route": "ladder-tail"},
    {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d1",
     "route": "weighted-tail"},
    # t grids, laws and weighted orders the runners cannot use
    {"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n2-d2-tails",
     "t_grid": [1.0, float("nan")]},
    {"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n2-d2-tails", "t_grid": [True, 2]},
    {"kind": "catalog-oracle", "seed": 0, "dist": "laplace", "params": {"scale": "x"}},
    {"kind": "catalog-oracle", "seed": 0, "dist": "laplace", "params": {"scale": -1}},
    {"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n2-d2-tails",
     "measure": {"dim": 2, "coords": [{"dist": "gaussian", "params": {}}]}},
    {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d2",
     "function": {"dim": 2, "terms": [{"exponents": [2, 1], "coeff": 1.0}]}},
    # fields the runner would ignore or trip over: a function beside the
    # fixture's multilinear spec, a measure and function of different
    # dimensions, rmt coefficients that are not numbers, a weighted run on a
    # law that is not the Student-type one
    {"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n2-d2-tails",
     "function": {"dim": 2, "terms": [{"exponents": [1, 1], "coeff": 1.0}]}},
    {"kind": "tails", "seed": 0, "measure": _GAUSS2, "t_grid": [1.0, 2.0],
     "function": {"dim": 3, "terms": [{"exponents": [1, 1, 1], "coeff": 1.0}]},
     "samples": 1000},
    {"kind": "multilinear", "seed": 0, "fixture": "gaussian-chaos-n5-d2-multilinear",
     "measure": _GAUSS2},
    {"kind": "rmt", "seed": 0, "fixture": "wigner-gaussian-n50", "coeffs": ["x"]},
    # the Student-type law has no unweighted spectral-gap constant
    {"kind": "rmt", "seed": 0, "fixture": "wigner-gaussian-n50", "entry": _STUDENT},
    {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d1",
     "measure": {"dim": 1, "coords": [{"dist": "gaussian", "params": {}}]}},
    # a string is not a boolean: "false" would run the sigma/10 control
    {"kind": "tails", "fixture": "gaussian-chaos-n2-d2-tails", "seed": 7, "samples": 2000,
     "negative_control": "false"},
    # fields no runner reads: the weighted kinds take their weight from the
    # closed form, a misspelt field would fall back to its default, only tails
    # runs a negative control, no runner samples a derivative profile, and
    # the gaussian law has no scale
    {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d1",
     "measure": {"dim": 1, "coords": [_STUDENT],
                 "weight": {"kind": "sqrt_one_plus_max_sq", "params": {"kappa": 1e6}}}},
    {"kind": "tails", "fixture": "gaussian-chaos-n2-d2-tails", "seed": 7, "samples": 2000,
     "negative_controll": True},
    {"kind": "tails", "fixture": "gaussian-chaos-n2-d2-tails", "seed": 7, "sampels": 2000},
    {"kind": "multilinear", "seed": 0, "fixture": "gaussian-chaos-n2-d2-multilinear",
     "negative_control": True},
    {"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-hs",
     "profile_samples": 1000},
    {"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-hs",
     "measure": {"dim": 2, "coords": [{"dist": "gaussian", "params": {"scale": 3.0}}] * 2}},
    # fields another kind reads, but not this one
    {"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n2-d2-tails",
     "coeffs": [0.0, 0.0, 0.5], "entry": {"dist": "gaussian", "params": {}}, "count": 5,
     "p_values": [2, 4]},
    # and d, which no kind reads (the certificate order is the degree of f)
    {"kind": "rmt", "seed": 0, "fixture": "wigner-gaussian-n50", "d": 2},
    {"kind": "rmt", "seed": 0, "fixture": "wigner-gaussian-n50", "d": 2,
     "profile_samples": 20000},
    {"kind": "multilinear", "seed": 0, "fixture": "gaussian-chaos-n2-d2-multilinear", "d": 2},
    {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d1", "p": 4},
    {"kind": "weighted-tail", "seed": 0, "fixture": "student-weighted-tail-d1",
     "p_values": [2, 4]},
    {"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-hs", "t_grid": [1.0, 2.0]},
    # the Student-type density needs a numeric beta > 1/2
    {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d1",
     "measure": {"dim": 1, "coords": [{"dist": "student", "params": {"beta": 0.5}}]}},
    {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d1",
     "measure": {"dim": 1, "coords": [{"dist": "student", "params": {"beta": "x"}}]}},
    # a law parameter must be a number, not a boolean or a numeric string
    {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d1",
     "measure": {"dim": 1, "coords": [{"dist": "student", "params": {"beta": True}}]}},
    {"kind": "catalog-oracle", "seed": 0, "dist": "laplace", "params": {"scale": "0.5"}},
    # just above 1/2 the weight norms the weighted checks read are infinite
    {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d1", "samples": 1000,
     "measure": {"dim": 1, "coords": [{"dist": "student", "params": {"beta": 0.51}}]}},
    # at beta = 5/2 the weighted-tail d = 2 curve has no finite M_w(p): M_w(2)
    # reads ||w||_4, finite only while 4 < 2 beta - 1
    {"kind": "weighted-tail", "seed": 0, "fixture": "student-weighted-tail-d2",
     "measure": {"dim": 2, "coords": [{"dist": "student", "params": {"beta": 2.5}}] * 2}},
    # spec numbers are checked, not truncated or parsed: int() would make
    # these x1 x2, the pair (0, 1) and a 2-dim measure
    {"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-opnorm",
     "function": {"dim": 2, "terms": [{"exponents": [1.9, 1.2], "coeff": 1.0}]}},
    {"kind": "multilinear", "seed": 0, "fixture": "gaussian-chaos-n2-d2-multilinear",
     "multilinear": {"dim": 2, "order": 2, "coeffs": [{"index": [0.9, 1.2], "value": 1.0}]}},
    {"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-opnorm",
     "measure": dict(_GAUSS2, dim=2.7)},
    {"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-opnorm",
     "function": {"dim": 2, "terms": [{"exponents": [1, 1], "coeff": "1.0"}]}},
    {"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-opnorm",
     "function": {"dim": 2, "terms": [{"exponents": [1, 1], "coeff": True}]}},
    {"kind": "multilinear", "seed": 0, "fixture": "gaussian-chaos-n2-d2-multilinear",
     "multilinear": {"dim": 2, "order": 2, "coeffs": [{"index": [0, 1], "value": "1.0"}]}},
    # a repeated p would overwrite its own moment check in report.json
    {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d1",
     "p_values": [4, 2, 4]},
    # a repeated index would keep only its last value
    {"kind": "multilinear", "seed": 0, "fixture": "gaussian-chaos-n2-d2-multilinear",
     "multilinear": {"dim": 2, "order": 2, "coeffs": [{"index": [0, 1], "value": 1.0},
                                                      {"index": [0, 1], "value": 2.0}]}},
    # the exp-moment certificate assumes E f = 0 and, on ladder-hs, a centered
    # gradient: here E f = 1, and then the gradient (x2 + 1, x1) has mean (1, 0)
    {"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-hs",
     "function": {"dim": 2, "terms": [{"exponents": [1, 1], "coeff": 1.0},
                                      {"exponents": [0, 0], "coeff": 1.0}]}},
    {"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-hs",
     "function": {"dim": 2, "terms": [{"exponents": [1, 1], "coeff": 1.0},
                                      {"exponents": [1, 0], "coeff": 1.0}]}},
    # the weighted bounds assume E f = 0 too: they bound f - E f, and x + 5
    # fails the checks of both kinds
    {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d1",
     "function": _SHIFTED_X},
    {"kind": "weighted-tail", "seed": 0, "fixture": "student-weighted-tail-d1",
     "function": _SHIFTED_X},
    # above beta = 1000 the gamma-difference weight norms lose digits: at 1e15
    # a run's two moment bounds read 7x apart, and at 1e308 lgamma overflows
    _student_beta(1000.5), _student_beta(1e15), _student_beta(1e308),
], ids=["uncentered-tails", "rmt-degree-3", "samples-abc",
        "negative-seed", "tails-samples-500", "rmt-draws-50", "rmt-draws-1000",
        "multilinear-samples-5000",
        "certify-samples-10", "matrix-size-1", "p-values-x",
        "certify-route-typo", "weighted-tail-route", "weighted-route-weighted-tail",
        "t-grid-nan", "t-grid-bool", "oracle-scale-x", "oracle-scale-negative",
        "measure-coords-short", "weighted-cubic",
        "function-beside-multilinear",
        "measure-dim-2-function-dim-3", "multilinear-measure-dim-2", "rmt-coeffs-x",
        "rmt-student-entry", "weighted-gaussian-law", "negative-control-string",
        "measure-weight", "negative-controll", "sampels", "multilinear-negative-control",
        "profile-samples-1000", "gaussian-scale", "tails-rmt-fields", "rmt-d", "rmt-profile-fields", "multilinear-d",
        "weighted-p", "weighted-tail-p-values", "certify-t-grid", "student-beta-half",
        "student-beta-x", "student-beta-true", "oracle-scale-string", "student-beta-0.51",
        "weighted-tail-beta-2.5", "function-exponents-1.9",
        "multilinear-index-0.9", "measure-dim-2.7", "function-coeff-string",
        "function-coeff-true", "multilinear-value-string", "weighted-p-values-repeated",
        "multilinear-index-repeated", "uncentered-certify", "ladder-hs-gradient-uncentered",
        "weighted-uncentered", "weighted-tail-uncentered",
        "student-beta-1000.5", "student-beta-1e15", "student-beta-1e308"])
def test_cli_missing_hypothesis_writes_nothing(tmp_path, capsys, cfg):
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("kind, fixture, d", [
    ("certify", "gauss-bilinear-exp-hs", 2), ("tails", "gaussian-chaos-n3-d3-tails", 3),
    ("weighted", "student-weighted-moments-d1", 1),
    ("weighted-tail", "student-weighted-tail-d2", 2)])
def test_cli_config_with_d_writes_nothing(tmp_path, capsys, kind, fixture, d):
    # the order is max(degree of f, 1), the one value the constant-top and
    # d <= degree rules leave, so a d field is refused like any unread field,
    # even at that value
    path = write_cfg(tmp_path, {"kind": kind, "seed": 0, "fixture": fixture, "d": d})
    out = tmp_path / "out"
    assert run_cli(["run", "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err == "config error: a %s run reads no field(s) ['d']\n" % kind
    assert not out.exists()


@pytest.mark.parametrize("fixture, p", [("student-weighted-tail-d1", 1),
                                        ("student-weighted-tail-d2", 16)],
                         ids=["p-1", "weighted-tail-p-16"])
def test_cli_weighted_tail_p_writes_nothing(tmp_path, capsys, fixture, p):
    # the weighted-tail curve takes the best p of bounds.MARKOV_P, so a p
    # field is refused like any unread field, at any value
    path = write_cfg(tmp_path, {"kind": "weighted-tail", "seed": 0, "fixture": fixture, "p": p})
    out = tmp_path / "out"
    assert run_cli(["run", "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err == \
        "config error: a weighted-tail run reads no field(s) ['p']\n"
    assert not out.exists()


_STUDENT2 = {"dim": 2, "coords": [_STUDENT, _STUDENT]}


@pytest.mark.parametrize("cfg, match", [
    (_UNCENTERED_TAILS, "E f = 0"),
    ({"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n2-d2-tails",
      "measure": _STUDENT2}, "spectral-gap constant"),
    ({"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-opnorm",
      "measure": _STUDENT2}, "spectral-gap constant"),
    ({"kind": "multilinear", "seed": 0, "fixture": "gaussian-chaos-n2-d2-multilinear",
      "measure": _STUDENT2}, "spectral-gap constant"),
    ({"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-opnorm",
      "function": {"dim": 2, "terms": [{"exponents": [1, 1], "coeff": 1.0},
                                       {"exponents": [0, 0], "coeff": 0.5}]}}, "E f = 0"),
    # E x1^2 x2 = 0, but its gradient (2 x1 x2, x1^2) has mean (0, 1)
    ({"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-hs",
      "function": {"dim": 2, "terms": [{"exponents": [2, 1], "coeff": 1.0}]}}, "ladder-hs"),
    ({"kind": "multilinear", "seed": 0, "fixture": "gaussian-chaos-n2-d2-multilinear",
      "measure": {"dim": 2, "coords": [{"dist": "exponential", "params": {}}] * 2}},
     "E X_i = 0"),
    # the exact rungs every certificate of these kinds reads are finite
    (_HUGE_RUNG_CFGS[0], r"order\(s\) 1, 2 are past the float range"),
    (_HUGE_RUNG_CFGS[1], r"order\(s\) 1, 2 are past the float range"),
    ({"kind": "weighted-tail", "seed": 0, "fixture": "student-weighted-tail-d1",
      "function": _SHIFTED_X}, "E f = 0"),
    (_student_beta(1000.5), "beta <= 1000"),
], ids=["tails-uncentered", "tails-student", "certify-student", "multilinear-student",
        "certify-shifted", "certify-hs-gradient-mean",
        "multilinear-exponential", "tails-huge-rung", "weighted-huge-rung",
        "weighted-tail-uncentered", "weighted-beta-1000.5"])
def test_hypotheses_checked_before_any_sampling(monkeypatch, cfg, match):
    def draw(*args, **kwargs):
        raise AssertionError("sampling before the hypothesis check")

    monkeypatch.setattr(experiments.measures, "stream", draw)
    monkeypatch.setattr(experiments.measures, "draw_coordinate", draw)
    with pytest.raises(experiments.ConfigError, match=match):
        experiments.validate_config(cfg)


def test_tails_accepts_a_mean_zero_to_within_the_rounding_of_its_moments(tmp_path):
    # E x^38 = 37!! is rounded at every step of its product and float(37!!)
    # once: E f reads -2^20, which an absolute 1e-12 test refused (exit 2)
    big = float(math.prod(range(1, 38, 2)))
    cfg = {"kind": "tails", "seed": 0, "t_grid": [1.0, 2.0], "samples": 1000,
           "measure": {"dim": 1, "coords": [{"dist": "gaussian", "params": {}}]},
           "function": {"dim": 1, "terms": [{"exponents": [38], "coeff": 1.0},
                                            {"exponents": [0], "coeff": -big}]}}
    assert run_cli(["run", "--config", write_cfg(tmp_path, cfg), "--out", tmp_path / "out"]) == 0


def test_resolve_reads_no_polynomial_algebra(monkeypatch):
    # the centering test and the exact rungs of every shipped certify, tails
    # and weighted fixture come from the partial table alone: no partial is
    # built as a polynomial and evaluated
    def algebra(*args, **kwargs):
        raise AssertionError("PolyFunction evaluation in resolve")

    for name in ("derivative_dense", "evaluate", "adder"):
        monkeypatch.setattr(experiments.PolyFunction, name, algebra)
    names = [fx.name for fx in fixtures.inventory()
             if fx.kind in ("certify", "tails", "weighted", "weighted-tail")]
    assert len(names) == 18
    for name in names:
        exp = experiments.resolve({"kind": fixtures.by_name(name).kind, "seed": 0,
                                   "fixture": name})
        assert len(exp.hs2) == exp.d - 1 and exp.top_hs > 0.0, name
        assert "_groups" not in vars(exp.function), name  # the evaluation plan waits


@pytest.mark.parametrize("cfg, top", [
    (_HUGE_RUNG_CFGS[0], 2), (_HUGE_RUNG_CFGS[1], 2),
    # every partial of x^171 holds a falling factorial 171!/(171 - k)!, and
    # the order-171 one is the constant 171!, itself past the float range
    ({"kind": "tails", "seed": 0, "samples": 1000, "t_grid": [1, 2],
      "measure": {"dim": 1, "coords": [{"dist": "gaussian", "params": {}}]},
      "function": {"dim": 1, "terms": [{"exponents": [171], "coeff": 1.0}]}}, 171),
], ids=["tails", "weighted", "falling-factorial"])
def test_a_rung_past_the_float_range_exits_2_without_a_warning(tmp_path, capsys, cfg, top):
    # validate_config refuses what run_config refuses, and before any numpy
    # overflow warning reaches the user
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["run", "--config", path, "--out", out]) == 2
    assert caught == []
    assert capsys.readouterr().err == (
        "config error: the exact derivative rungs of f at order(s) %s are past the float "
        "range\n" % ", ".join(map(str, range(1, top + 1))))
    assert not out.exists()


def test_rmt_degree_checked_before_any_eigensolve(tmp_path, monkeypatch):
    def eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before the degree check")

    monkeypatch.setattr(rmt, "calibrate", eigensolve)
    monkeypatch.setattr(rmt, "sample_ensemble", eigensolve)
    cfg = {"kind": "rmt", "seed": 0, "fixture": "wigner-gaussian-n100",
           "coeffs": [0.0, 0.0, 0.0, 1.0]}
    with pytest.raises(experiments.ConfigError, match="f''"):
        experiments.run_config(cfg, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_cli_negative_seed_override_writes_nothing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "tails", "seed": 0,
                               "fixture": "gaussian-chaos-n2-d2-tails"})
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out, "--seed", -3]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_crash_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(experiments.measures, "stream", crash)
    cfg = write_cfg(tmp_path, {"kind": "tails", "seed": 0,
                               "fixture": "gaussian-chaos-n2-d2-tails"})
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err == "error: RuntimeError: boom\n"
    assert not out.exists()


def test_a_crash_leaves_an_earlier_run_untouched(tmp_path, capsys, monkeypatch):
    # a run that raises into another run's directory changes none of its
    # files, and one interrupted before it wrote does not create its directory
    cfg = write_cfg(tmp_path, {"kind": "weighted", "seed": 1,
                               "fixture": "student-weighted-moments-d1"})
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"moments.csv", "report.json"}

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(experiments.measures, "weighted_norm", crash)
    assert run_cli(["run", "--config", cfg, "--out", out, "--seed", 2]) == 3
    assert capsys.readouterr().err == "error: RuntimeError: boom\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(experiments.measures, "weighted_norm", interrupt)
    with pytest.raises(KeyboardInterrupt):
        experiments.run_config(experiments.load_config(cfg), str(tmp_path / "new"))
    assert not (tmp_path / "new").exists()


def _refuse_profile_draws(monkeypatch):
    # the evaluation sample is the only draw a runner makes: one call of the
    # sample stream
    stream, calls = experiments.measures.stream, []

    def profile(*args, **kwargs):
        calls.append(args)
        if len(calls) > 1:
            raise AssertionError("a runner sampled a derivative profile")
        return stream(*args, **kwargs)

    monkeypatch.setattr(experiments.measures, "stream", profile)


def test_certify_reads_exact_rungs_without_a_profile(tmp_path, monkeypatch):
    _refuse_profile_draws(monkeypatch)
    cfg = {"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-opnorm",
           "samples": 100_000}
    code, report = experiments.run_config(cfg, str(tmp_path / "out"))
    assert code == 0
    constants = report["certificate"]["constants"]
    assert constants["norms2"] == pytest.approx([1.0], abs=1e-12)
    assert constants["top_inf"] == pytest.approx(0.5 ** 0.5, abs=1e-12)
    assert constants["top_inf_exact"]


def test_tails_certifies_from_exact_rungs_without_a_profile(tmp_path, monkeypatch):
    _refuse_profile_draws(monkeypatch)
    cfg = {"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n3-d3-tails",
           "samples": 2000, "negative_control": True}
    code, report = experiments.run_config(cfg, str(tmp_path / "out"))
    assert report["check"]["passed"] and code == (0 if report["passed"] else 1)
    constants = report["certificate"]["constants"]
    assert set(constants) == {"sigma", "d", "hs2", "top_hs"}
    assert constants["hs2"] == pytest.approx([0.5 ** 0.5, 1.0], abs=1e-12)
    control = report["negative_control"]["check"]["rows"]
    weak = experiments.bounds.tail_certificate(experiments.bounds.Ladder(
        constants["sigma"] / 10.0, 3, tuple(constants["hs2"]), constants["top_hs"]))
    assert [r["bound"] for r in control] == [weak.tail_bound(r["t"]) for r in control]


@pytest.mark.parametrize("beta, kappa", [(3.0, 0.5), (500.0, 998 ** -0.5)],
                         ids=["beta-3", "beta-500"])
def test_weighted_reads_the_closed_form_kappa(tmp_path, beta, kappa):
    # the weighted oracle reads kappa 0.4999911832316861 at beta = 3, below
    # the true constant, and cannot run at beta = 500
    measure = {"dim": 1, "coords": [{"dist": "student", "params": {"beta": beta}}]}
    identity = {"dim": 1, "terms": [{"exponents": [1], "coeff": 1.0}]}
    code, report = experiments.run_config(
        {"kind": "weighted", "seed": 0, "measure": measure, "function": identity,
         "p_values": [2], "samples": 100_000}, tmp_path / "out")
    assert code == 0
    assert report["kappa"] == kappa
    assert "weighted_gap" not in report


def test_cli_samples_on_a_kind_without_samples_writes_nothing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "tensor-norm", "seed": 0, "count": 2})
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out, "--samples", 5]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_samples_override_on_a_malformed_kind_is_a_config_error(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(experiments.ConfigError):
        experiments.run_config({"kind": ["tails"], "seed": 0}, str(out), samples_override=5)
    assert not out.exists()


def test_rungs_past_the_float_range_exit_2_and_write_nothing(tmp_path, capsys):
    # E (d/dx1)^k (x1^86 x2) squared reads exponential moments up to 172, and
    # 172! is past the float range, so the low rungs are inf
    e = {"dist": "exponential", "params": {}}
    cfg = write_cfg(tmp_path, {
        "kind": "tails", "seed": 0, "samples": 1000, "t_grid": [1, 2],
        "measure": {"dim": 2, "coords": [e, e]},
        "function": {"dim": 2, "terms": [{"exponents": [86, 1], "coeff": 1.0},
                                         {"exponents": [0, 0],
                                          "coeff": -float(math.factorial(86))}]}})
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the exact derivative rungs of f at order(s) 1, ")
    assert not out.exists()


@pytest.mark.parametrize("coeffs, past", [([0, 0, 1e300], "grad_l2 = inf"),
                                           ([0, 1e300, 1e-300], "grad_l2 = inf"),
                                           ([0, 0, 1e308], "|f''| = 2|a2|")])
def test_rmt_constants_past_the_float_range_exit_2_before_any_eigensolve(
        tmp_path, capsys, monkeypatch, coeffs, past):
    # grad_l2^2 = 4 a2^2 |M|_F^2 (or N a1^2) overflows, where |f''| = 2|a2| need not
    solves = []
    monkeypatch.setattr(rmt.np.linalg, "eigvalsh", lambda *a, **k: solves.append(a))
    cfg = write_cfg(tmp_path, {
        "kind": "rmt", "seed": 0, "matrix_size": 3, "entry": {"dist": "gaussian", "params": {}},
        "draws": 1001, "cal_draws": 500, "coeffs": coeffs})
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid rmt config: ") and past in err
    assert not out.exists() and solves == []


def _laplace_cfg(kind, scale):
    law = {"dist": "laplace", "params": {"scale": scale}}
    if kind == "tails":
        return {"kind": "tails", "samples": 1000, "t_grid": [1, 2],
                "measure": {"dim": 1, "coords": [law]},
                "function": {"dim": 1, "terms": [{"exponents": [1], "coeff": 1.0}]}}
    return {"kind": "rmt", "matrix_size": 3, "entry": law, "draws": 1001, "cal_draws": 500,
            "coeffs": [0, 0, 1]}


@pytest.mark.parametrize("scale, what", [(1e200, "1e+200) is past the float range"),
                                         (1e-200, "1e-200) is 0 in floating point"),
                                         (1e-160, "1e-160) is 4e-320, below the smallest "
                                                  "normal float")],
                         ids=["1e200", "1e-200", "1e-160"])
@pytest.mark.parametrize("kind", ["tails", "rmt"])
def test_a_gap_constant_past_the_float_range_exits_2_and_writes_nothing(tmp_path, capsys, kind,
                                                                        scale, what):
    # sigma^2 = 4 b^2 overflows for b = 1e200, underflows to 0 for b = 1e-200
    # and to a subnormal float, of a few significant bits, for b = 1e-160
    path = write_cfg(tmp_path, dict(_laplace_cfg(kind, scale), seed=0))
    out = tmp_path / "out"
    assert run_cli(["run", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid %s config: " % kind)
    assert "4 b^2 of laplace(b = " + what in err
    assert not out.exists()


@pytest.mark.parametrize("dist", ["laplace", "exponential"])
@pytest.mark.parametrize("scale", [1e-200, 1e-161, 1e-150, 1e-100, 1e50, 1e100, 1e150, 1e200])
def test_catalog_oracle_runs_or_refuses_every_scale(tmp_path, capsys, dist, scale):
    # lambda1(b) = lambda1(1) / b^2: the oracle dilates the unit law's
    # solution, so each scale whose 4 b^2 is a normal float runs and passes,
    # and the others are config errors with nothing written (at b = 1e-161,
    # 4 b^2 = 3.95e-322 is subnormal and lambda1 read inf)
    cfg = write_cfg(tmp_path, {"kind": "catalog-oracle", "seed": 0, "dist": dist,
                               "params": {"scale": scale}})
    out = tmp_path / "out"
    code = run_cli(["run", "--config", cfg, "--out", out])
    if scale in (1e-200, 1e-161, 1e200):
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err.startswith(
            "config error: invalid catalog-oracle config: the spectral-gap constant 4 b^2 ")
        return
    assert code == 0
    res = json.loads((out / "report.json").read_text())["results"][dist]
    unit = measures.catalog_oracle(measures.CoordinateDist.make(dist))
    assert res["lambda1"] == unit.lambda1 / scale**2
    assert res["sigma2"] == unit.sigma2 * scale**2
    assert res["interval"] == [unit.interval[0] * scale, unit.interval[1] * scale]


def test_an_rmt_statistic_past_the_float_range_exits_2_before_any_eigensolve(
        tmp_path, capsys, monkeypatch):
    # E S_N^2 reads the fourth entry moment 24 b^4, past the float range at
    # b = 1e153 where sigma^2 = 4 b^2 and the closed-form sums are not; the
    # run would report var_s_n = var_s_tilde = inf
    solves = []
    monkeypatch.setattr(rmt.np.linalg, "eigvalsh", lambda *a, **k: solves.append(a))
    cfg = write_cfg(tmp_path, {
        "kind": "rmt", "seed": 0, "matrix_size": 3,
        "entry": {"dist": "exponential", "params": {"scale": 1e153}},
        "draws": 1001, "cal_draws": 500, "coeffs": [0, 0, 1]})
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid rmt config: E S_N^2 times 1001 draws is ")
    assert not out.exists() and solves == []


def test_cli_json_error_location(tmp_path, capsys):
    cfg = write_cfg(tmp_path, '{"kind": "tails"\n "seed": 0}')
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_tensor_norm_roundtrip(tmp_path, capsys):
    out = tmp_path / "tn"
    assert run_cli(["tensor-norm", "--count", 4, "--out", out, "--seed", 9]) == 0
    assert "PASS (tensor-norm)" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "tensor-norm"
    assert report["seed"] == 9
    assert report["passed"] is True
    assert (out / "tensor_norms.csv").exists()


def test_cli_tensor_norm_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["tensor-norm", "--count", 4, "--out", a, "--seed", 9]) == 0
    assert run_cli(["tensor-norm", "--count", 4, "--out", b, "--seed", 9]) == 0
    assert (a / "tensor_norms.csv").read_bytes() == (b / "tensor_norms.csv").read_bytes()


def test_cli_catalog_oracle_single(tmp_path, capsys):
    out = tmp_path / "gap"
    assert run_cli(["catalog-oracle", "--dist", "uniform01", "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["results"]) == {"uniform01"}
    assert report["results"]["uniform01"]["passed"] is True
    assert (out / "oracle_ladder.csv").exists()


def test_cli_run_config_file(tmp_path):
    cfg = write_cfg(tmp_path, {"kind": "tensor-norm", "seed": 4, "count": 3})
    out = tmp_path / "run"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 4
    # --seed flag wins over the config seed
    out2 = tmp_path / "run2"
    assert run_cli(["run", "--config", cfg, "--out", out2, "--seed", 11]) == 0
    assert json.loads((out2 / "report.json").read_text())["seed"] == 11


def test_cli_list_fixtures(capsys):
    assert run_cli(["list-fixtures"]) == 0
    first = capsys.readouterr().out
    assert "gaussian-chaos-n2-d2-tails" in first
    assert "wigner-gaussian-n100" in first
    assert len(first.strip().splitlines()) == 33
    assert run_cli(["list-fixtures"]) == 0
    assert capsys.readouterr().out == first  # stable inventory order


def test_cli_list_fixtures_route_filter(capsys):
    assert run_cli(["list-fixtures", "--route", "wigner-lss"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all("wigner" in line for line in lines)


def test_cli_list_fixtures_unknown_route(capsys):
    assert run_cli(["list-fixtures", "--route", "typo"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unknown route 'typo' (choose from ladder-inf, ladder-hs, ladder-tail, "
        "multilinear, weighted-ladder, weighted-tail, wigner-lss)\n")


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
    with pytest.raises(SystemExit):
        cli.main([])


# Runs in a fresh interpreter, because the rest of the suite imports scipy. It
# imports hoc and its CLI, runs every kind but the oracle, the weighted ones
# included, lists the scipy modules loaded by then and notes whether
# numpy.polynomial is, and last runs the oracle, which does load scipy.
_SCIPY_PROBE = """
import json, os, sys
import hoc, hoc.cli
from hoc import experiments

out = sys.argv[1]
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
codes = [experiments.run_config(cfg, os.path.join(out, cfg["kind"]))[0]
         for cfg in json.loads(sys.argv[2])]
numpy_only = scipy_modules()
polynomial = "numpy.polynomial" in sys.modules
code = experiments.run_config({"kind": "catalog-oracle", "seed": 0, "dist": "uniform01"},
                              os.path.join(out, "oracle"))[0]
print(json.dumps({"codes": codes, "numpy_only": numpy_only, "polynomial": polynomial,
                  "oracle": code, "oracle_loads": "scipy.linalg" in scipy_modules()}))
"""


def test_scipy_loaded_only_by_the_kinds_that_use_it(tmp_path):
    cfgs = [
        {"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n2-d2-tails",
         "samples": 2000},
        {"kind": "rmt", "seed": 0, "fixture": "wigner-gaussian-n50",
         "draws": 1001, "cal_draws": 500},
        {"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-hs",
         "samples": 100_000},
        {"kind": "multilinear", "seed": 0, "fixture": "gaussian-chaos-n2-d2-multilinear",
         "samples": 100_000},
        {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d2",
         "samples": 20_000},
        {"kind": "weighted-tail", "seed": 0, "fixture": "student-weighted-tail-d2",
         "samples": 2000},
    ]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path), json.dumps(cfgs)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(cfgs)
    assert result["numpy_only"] == []
    assert not result["polynomial"]  # the rmt kind reads f as (a0, a1, a2)
    assert result["oracle"] == 0 and result["oracle_loads"]
