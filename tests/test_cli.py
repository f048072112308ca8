"""CLI behavior and config validation: exit codes, error locations, artifacts."""

import json
import os

import pytest

from hoc import cli, experiments, rmt


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
          "d": 2, "samples": 100000}
    assert experiments.validate_config(ok)
    with pytest.raises(experiments.ConfigError):
        experiments.validate_config({"kind": "tails", "seed": 0, "measure": measure,
                                     "function": func, "d": 2})  # tails need t_grid


def test_merged_payload_overrides():
    cfg = {"kind": "tails", "seed": 5, "fixture": "gaussian-chaos-n2-d2-tails",
           "samples": 1234, "out": "x"}
    merged, fixture = experiments._merged_payload(cfg)
    assert fixture.name == "gaussian-chaos-n2-d2-tails"
    assert merged["samples"] == 1234          # config wins over fixture payload
    assert "seed" not in merged and "out" not in merged
    assert merged["d"] == 2                   # fixture fields survive


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


@pytest.mark.parametrize("cfg", [
    # f = x1^2 is not centered, so the tail certificate's E f = 0 fails
    {"kind": "tails", "seed": 0, "measure": _GAUSS2, "d": 2, "t_grid": [1.0, 2.0],
     "function": {"dim": 2, "terms": [{"exponents": [2, 0], "coeff": 1.0}]},
     "samples": 1000, "profile_samples": 10_000},
    # a cubic statistic has no uniform bound on f''
    {"kind": "rmt", "seed": 0, "matrix_size": 5, "coeffs": [0.0, 0.0, 0.0, 1.0],
     "entry": {"dist": "gaussian", "params": {}}, "draws": 1000, "cal_draws": 500},
    # sample counts and seeds the runners cannot use
    {"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n2-d2-tails",
     "profile_samples": 1000},
    {"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n2-d2-tails",
     "samples": "abc"},
    {"kind": "tails", "seed": -3, "fixture": "gaussian-chaos-n2-d2-tails"},
    # fewer evaluation samples than the kind's checks accept
    {"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n2-d2-tails", "samples": 500},
    {"kind": "rmt", "seed": 0, "fixture": "wigner-gaussian-n50", "draws": 50},
    {"kind": "multilinear", "seed": 0, "fixture": "gaussian-chaos-n2-d2-multilinear",
     "samples": 5000},
    {"kind": "certify", "seed": 0, "fixture": "gauss-bilinear-exp-hs", "samples": 10},
    # out-of-range sizes and exponents
    {"kind": "rmt", "seed": 0, "fixture": "wigner-gaussian-n50", "matrix_size": 1},
    {"kind": "weighted", "seed": 0, "fixture": "student-weighted-moments-d1",
     "p_values": ["x"]},
    {"kind": "weighted-tail", "seed": 0, "fixture": "student-weighted-tail-d1", "p": 1},
    {"kind": "tails", "seed": 0, "fixture": "gaussian-chaos-n2-d2-tails", "d": 0},
], ids=["uncentered-tails", "rmt-degree-3", "profile-samples-1000", "samples-abc",
        "negative-seed", "tails-samples-500", "rmt-draws-50", "multilinear-samples-5000",
        "certify-samples-10", "matrix-size-1", "p-values-x", "p-1", "d-0"])
def test_cli_missing_hypothesis_writes_nothing(tmp_path, capsys, cfg):
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
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

    monkeypatch.setattr(experiments, "_run_tails", crash)
    cfg = write_cfg(tmp_path, {"kind": "tails", "seed": 0,
                               "fixture": "gaussian-chaos-n2-d2-tails"})
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err == "error: RuntimeError: boom\n"
    assert not out.exists()


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


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
    with pytest.raises(SystemExit):
        cli.main([])
