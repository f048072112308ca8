"""Plumbing: substreams, deterministic writers, SVG rendering."""

import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hoc import _util, svgplot


def test_substream_deterministic_and_disjoint():
    a = _util.substream(7, 0).standard_normal(8)
    b = _util.substream(7, 0).standard_normal(8)
    assert np.array_equal(a, b)
    c = _util.substream(7, 1).standard_normal(8)
    assert not np.array_equal(a, c)
    d = _util.substream(8, 0).standard_normal(8)
    assert not np.array_equal(a, d)
    # multi-part keys differ from their prefixes
    e = _util.substream(7, 0, 0).standard_normal(8)
    assert not np.array_equal(a, e)


def test_stage_seed_stable():
    s1 = _util.stage_seed(20260825, 1)
    assert s1 == _util.stage_seed(20260825, 1)
    assert s1 != _util.stage_seed(20260825, 2)
    assert 0 <= s1 < 2**32


def test_worker_count_from_affinity_with_fallback(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert _util.worker_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _util.worker_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # count unknown
    assert _util.worker_count() == 1


def _blas_counts(libs=None):
    return [get() for get, _ in (libs or _util._openblas_threads())]


def test_serial_blas_sets_one_thread_and_restores():
    libs = _util._openblas_threads()
    original = _blas_counts()
    try:
        for _, put in libs:  # a count of 2 tells a restore from a leak of 1
            put(2)
        with _util.serial_blas():
            assert _blas_counts() == [1] * len(libs)
        assert _blas_counts() == [2] * len(libs)
        with pytest.raises(KeyError):
            with _util.serial_blas():
                assert _blas_counts() == [1] * len(libs)
                raise KeyError("boom")
        assert _blas_counts() == [2] * len(libs)
    finally:
        for (_, put), count in zip(libs, original):
            put(count)


def test_serial_blas_without_openblas_is_a_no_op(monkeypatch):
    libs = _util._openblas_threads()
    before = _blas_counts(libs)
    monkeypatch.setattr(_util, "_openblas_threads", lambda: ())
    with _util.serial_blas():
        assert _blas_counts(libs) == before
    assert _blas_counts(libs) == before


def test_jsonable():
    obj = {"a": np.float64(1.5), "b": np.int32(3), "c": np.arange(2),
           "d": float("nan"), "e": (1, 2), "f": np.float64("nan")}
    out = _util.jsonable(obj)
    assert out == {"a": 1.5, "b": 3, "c": [0, 1], "d": None, "e": [1, 2], "f": None}
    json.dumps(out)  # round-trips through the stdlib encoder


def test_dump_json_canonical(tmp_path):
    p = tmp_path / "r.json"
    _util.dump_json(str(p), {"z": 1, "a": [1.25]})
    text = p.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"z"')  # sorted keys
    assert json.loads(text) == {"z": 1, "a": [1.25]}


def test_write_csv_round_trip(tmp_path):
    p = tmp_path / "t.csv"
    val = 0.1 + 0.2  # classic shortest-repr case
    _util.write_csv(str(p), ["i", "x", "tag"], [(1, val, "ok"), (2, float("inf"), "")])
    lines = p.read_text().splitlines()
    assert lines[0] == "i,x,tag"
    cells = lines[1].split(",")
    assert int(cells[0]) == 1
    assert float(cells[1]) == val  # repr floats survive the round trip exactly
    assert cells[2] == "ok"
    assert float(lines[2].split(",")[1]) == math.inf


# -- SVG ---------------------------------------------------------------------------


def demo_series():
    t = [1.0, 2.0, 4.0, 8.0]
    return [("bound", t, [0.9, 0.5, 0.1, 0.01]),
            ("empirical", t, [0.8, 0.4, 0.05, 0.0])]


def test_svg_is_valid_xml_and_deterministic():
    a = svgplot.line_plot_svg("demo", "t", "P", demo_series())
    b = svgplot.line_plot_svg("demo", "t", "P", demo_series())
    assert a == b
    root = ET.fromstring(a)
    assert root.tag.endswith("svg")
    assert "demo" in a and "empirical" in a


def test_svg_logy_drops_nonpositive():
    # the zero point cannot appear on a log axis; the plot must still render
    svg = svgplot.line_plot_svg("z", "t", "P", demo_series())
    ET.fromstring(svg)


def test_svg_escapes_markup():
    svg = svgplot.line_plot_svg("a<b&c", "t", "P", demo_series())
    ET.fromstring(svg)  # parses only if the title was escaped


def test_write_plot(tmp_path):
    out = tmp_path / "curve.svg"
    svgplot.write_plot(str(out), "demo", "t", "P", demo_series())
    assert out.read_text().lstrip().startswith("<svg")
