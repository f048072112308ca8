"""Measure catalog: exact moments vs quadrature, sampler consistency, gap oracle."""

import json
import math
import sys
import threading
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from hoc import experiments, measures as M
from hoc._util import SAMPLE_BLOCK
from hoc.polynomials import EVAL_BLOCK, PolyFunction
from oracles import fill_block, iid, sample, weighted_spectral_gap


def quad_moment(coord, k):
    dens = M.density_function(coord)
    lo, hi = {"gaussian": (-np.inf, np.inf), "uniform01": (0.0, 1.0),
              "exponential": (0.0, np.inf), "laplace": (-np.inf, np.inf),
              "student": (-np.inf, np.inf)}[coord.dist]
    val, err = quad(lambda x: x**k * dens(x), lo, hi, limit=200)
    return val


COORDS = [
    M.CoordinateDist.make("gaussian"),
    M.CoordinateDist.make("uniform01"),
    M.CoordinateDist.make("exponential"),
    M.CoordinateDist.make("exponential", scale=0.4),
    M.CoordinateDist.make("laplace", scale=1 / math.sqrt(2)),
    M.CoordinateDist.make("student", beta=10.0),
]


@pytest.mark.parametrize("coord", COORDS, ids=lambda c: c.dist + str(dict(c.params)))
def test_moments_match_quadrature(coord):
    for k in range(0, 7):
        exact = M.coordinate_moment(coord, k)
        if math.isinf(exact):
            continue
        assert exact == pytest.approx(quad_moment(coord, k), rel=1e-8, abs=1e-10)


def test_student_moment_edge_cases():
    c = M.CoordinateDist.make("student", beta=10.0)  # nu = 19
    assert M.coordinate_moment(c, 2) == pytest.approx(1.0 / 17.0, rel=1e-14)
    assert M.coordinate_moment(c, 18) < math.inf
    assert M.coordinate_moment(c, 20) == math.inf
    assert M.coordinate_moment(c, 3) == 0.0
    assert M.coordinate_moment(c, 21) == math.inf  # odd but past nu
    with pytest.raises(ValueError):
        M.coordinate_moment(c, -1)


def test_factorial_moments_past_the_float_factorials():
    # k! is past the float range from k = 171; the product is rounded once
    lap = M.CoordinateDist.make("laplace", scale=1 / math.sqrt(2))
    exact = Fraction(math.factorial(172)) * Fraction(1 / math.sqrt(2)) ** 172
    assert math.isfinite(M.coordinate_moment(lap, 172))
    assert M.coordinate_moment(lap, 172) == float(exact)
    assert M.coordinate_moment(lap, 171) == 0.0
    assert M.coordinate_moment(M.CoordinateDist.make("exponential"), 171) == math.inf
    assert M.coordinate_moment(M.CoordinateDist.make("exponential"), 170) == \
        math.factorial(170) * 1.0
    # scale**k past the float range below k = 171 is inf too, not an error
    assert M.coordinate_moment(M.CoordinateDist.make("exponential", scale=1e10), 40) == math.inf


def test_coordinate_scale_must_be_finite_and_positive():
    assert M.CoordinateDist.make("laplace", scale=0.5).scale == 0.5
    for bad in (0, -1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="scale"):
            M.CoordinateDist.make("laplace", scale=bad)


def test_sigma2_catalog_values():
    assert M.coordinate_sigma2(M.CoordinateDist.make("gaussian")) == 1.0
    assert M.coordinate_sigma2(M.CoordinateDist.make("uniform01")) == 1.0 / math.pi**2
    assert M.coordinate_sigma2(M.CoordinateDist.make("exponential", scale=2.0)) == 16.0
    lap = M.CoordinateDist.make("laplace", scale=1 / math.sqrt(2))
    assert M.coordinate_sigma2(lap) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(M.UncertifiedConstantError):
        M.coordinate_sigma2(M.CoordinateDist.make("student", beta=10.0))


@pytest.mark.parametrize("dist", ["exponential", "laplace"])
def test_sigma2_refuses_a_subnormal_constant(dist):
    # 4 b^2 crosses the smallest normal float between b = 7.4e-155 and 7.5e-155
    normal = M.coordinate_sigma2(M.CoordinateDist.make(dist, scale=7.5e-155))
    assert normal >= sys.float_info.min
    for scale in (7.4e-155, 1e-160, 1e-161):
        with pytest.raises(ValueError, match="below the smallest normal float"):
            M.coordinate_sigma2(M.CoordinateDist.make(dist, scale=scale))


def test_unit_variance_conventions():
    # the laplace scale 1/sqrt(2) and student beta=10 coordinates are the
    # catalog's comparable-variance picks
    lap = M.CoordinateDist.make("laplace", scale=1 / math.sqrt(2))
    assert M.coordinate_moment(lap, 2) == pytest.approx(1.0, abs=1e-15)


def test_measure_spec_product():
    spec = iid("exponential", 3, scale=0.5)
    assert spec.sigma2() == pytest.approx(1.0)
    assert spec.moment(1, 3) == pytest.approx(6.0 * 0.125)


def test_measure_spec_round_trip():
    spec = iid("student", 4, beta=10.0)
    # through JSON text, the way a config's measure arrives
    again = M.MeasureSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert M.MeasureSpec.from_dict(spec.to_dict()) == spec
    # the weighted kinds take their weight from the oracle, never from the measure
    with pytest.raises(ValueError, match="weight"):
        M.MeasureSpec.from_dict(dict(spec.to_dict(), weight={"kind": "constant"}))


@pytest.mark.parametrize("dist, params", [
    ("gaussian", {}), ("uniform01", {}), ("exponential", {"scale": 2.0}),
    ("laplace", {"scale": 0.5}), ("student", {"beta": 4.0})])
def test_law_reads_its_parameters(dist, params):
    coord = M.CoordinateDist.from_dict({"dist": dist, "params": params})
    assert coord.params_dict == params
    extra = {"beta": 2.0} if dist != "student" else {"scale": 3.0}
    with pytest.raises(ValueError, match="law reads"):
        M.CoordinateDist.make(dist, **params, **extra)
    with pytest.raises(ValueError, match="'param'"):
        M.CoordinateDist.make(dist, param=1.0)
    with pytest.raises(ValueError, match="'law'"):
        M.CoordinateDist.from_dict({"dist": dist, "params": params, "law": "x"})


def test_student_weight():
    pts = np.array([[0.0, 3.0], [1.0, -1.0]])
    got = M.student_weight(pts.T, 2.0)
    assert np.allclose(got, [2 * math.sqrt(10.0), 2 * math.sqrt(2.0)])


# -- sampler -------------------------------------------------------------------


@pytest.mark.parametrize("coord", COORDS, ids=lambda c: c.dist + str(dict(c.params)))
def test_sampler_moments(coord):
    spec = M.MeasureSpec(2, (coord, coord))
    pts = sample(spec, 200_000, seed=91)
    flat = pts.ravel()
    for k in (1, 2, 3, 4):
        exact = M.coordinate_moment(coord, k)
        if math.isinf(M.coordinate_moment(coord, 2 * k)):
            continue  # SE undefined
        vals = flat**k
        se = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        assert abs(float(np.mean(vals)) - exact) <= 6.0 * se + 1e-12


def test_sample_deterministic():
    spec = iid("laplace", 3, scale=0.5)
    a = sample(spec, 70_000, seed=11)
    b = sample(spec, 70_000, seed=11)
    assert np.array_equal(a, b)
    c = sample(spec, 70_000, seed=12)
    assert not np.array_equal(a, c)
    assert a.shape == (70_000, 3)
    sizes = [SAMPLE_BLOCK, 70_000 - SAMPLE_BLOCK]
    blocks = [fill_block(spec, 11, i, np.empty((rows, 3), order="F"))
              for i, rows in enumerate(sizes)]
    assert [blk.shape[0] for blk in blocks] == sizes
    assert np.array_equal(np.concatenate(blocks), a)


def test_eval_block_divides_the_sample_block():
    # the stream draws each column in EVAL_BLOCK-row pieces, and a row chunk
    # must not straddle two blocks, which come from different substreams
    assert SAMPLE_BLOCK % EVAL_BLOCK == 0


def test_stream_values_match_the_whole_sample():
    # drawn in EVAL_BLOCK-row column pieces into a pool of slots while the
    # chunks are evaluated, bit-identical to one whole-sample call: two
    # blocks and a remainder reuse the pool, and shorter runs need fewer
    # slots; gaussian, uniform01 and exponential draw with out=, laplace and
    # student through a temporary
    polys = {1: PolyFunction.from_terms(1, {(3,): -1.25, (1,): 0.5, (0,): 0.1}),
             3: PolyFunction.from_terms(3, {(1, 1, 1): 0.5, (3, 0, 0): -1.25,
                                            (0, 2, 1): 2.0, (0, 0, 0): 0.1})}
    params = {"laplace": {"scale": 0.7}, "exponential": {"scale": 1.3},
              "student": {"beta": 10.0}}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a slot race would show
    try:
        for dist in M.CATALOG:
            for dim, f in polys.items():
                spec = iid(dist, dim, **params.get(dist, {}))
                for m in (1000, 3 * EVAL_BLOCK + 5, 2 * SAMPLE_BLOCK + 17):
                    streamed = M.stream_values(spec, m, 4, f.adder())
                    assert np.array_equal(streamed, f.evaluate(sample(spec, m, seed=4))), \
                        (dist, dim, m)
    finally:
        sys.setswitchinterval(interval)


def test_stream_raises_a_filler_error_and_joins(monkeypatch):
    spec = iid("gaussian", 2)
    f = PolyFunction.from_terms(2, {(1, 1): 1.0})
    rngs = []
    draw = M.draw_coordinate

    def failing(rng, coord, size, out=None):
        if rng not in rngs:
            rngs.append(rng)
        if len(rngs) == 3:  # the third substream is block 2
            raise RuntimeError("filler failed on block 2")
        return draw(rng, coord, size, out=out)

    monkeypatch.setattr(M, "draw_coordinate", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block 2"):
        M.stream_values(spec, 3 * SAMPLE_BLOCK, 4, f.adder())
    assert threading.active_count() == before


def test_stream_stops_on_a_consumer_error_and_joins(monkeypatch):
    # dim 2: a pool of 2 * 5 slots, 8 pieces per block. The filler reaches
    # piece 8 (block 1, column 0) without waiting for a slot; the consumer
    # fails on chunk 1 while that piece is in flight, which waits for the
    # stop flag. The piece completes, and nothing is drawn after it
    spec = iid("gaussian", 2)
    f = PolyFunction.from_terms(2, {(1, 1): 1.0})
    in_flight, stop = threading.Event(), threading.Event()
    monkeypatch.setattr(M, "threading", types.SimpleNamespace(Event=lambda: stop))
    drawn, consumed = [], []
    draw = M.draw_coordinate

    def recording(rng, coord, size, out=None):
        drawn.append(size)
        if len(drawn) == 9:
            in_flight.set()
            assert stop.wait(30)
        return draw(rng, coord, size, out=out)

    def consume(start, values):
        consumed.append(start)
        if start == EVAL_BLOCK:
            assert in_flight.wait(30)
            raise RuntimeError("consumer failed on chunk 1")

    monkeypatch.setattr(M, "draw_coordinate", recording)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 1"):
        M.stream(spec, 5 * SAMPLE_BLOCK, 4, f.adder(), consume)
    assert threading.active_count() == before
    assert consumed == [0, EVAL_BLOCK]
    assert drawn == [EVAL_BLOCK] * 9


def test_tails_memory_is_one_block_of_slots_plus_a_chunk_row(tmp_path):
    # the evaluation sample's pool holds dim * (P + 1) EVAL_BLOCK-row slots;
    # two whole SAMPLE_BLOCK buffers (10.5 MB at dim 10) would not fit
    dim, per_block = 10, SAMPLE_BLOCK // EVAL_BLOCK
    cfg = {"kind": "tails", "seed": 3, "fixture": "gaussian-chaos-n10-d3-tails",
           "samples": 4 * SAMPLE_BLOCK}
    tracemalloc.start()
    try:
        code, _ = experiments.run_config(cfg, str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < dim * (per_block + 1) * EVAL_BLOCK * 8 + 2_000_000, peak


def test_tails_memory_does_not_grow_with_samples(tmp_path):
    # tails counts each chunk as it comes, so no array of all the values
    # (8 bytes per sample, and once 8 more for its sorted |v| copy) exists
    peaks = {}
    for blocks in (4, 16):
        cfg = {"kind": "tails", "seed": 3, "fixture": "gaussian-chaos-n2-d2-tails",
               "samples": blocks * SAMPLE_BLOCK}
        tracemalloc.start()
        try:
            code, _ = experiments.run_config(cfg, str(tmp_path / str(blocks)))
            peaks[blocks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[16] <= peaks[4] + 1_000_000, peaks


def test_sample_rejects_empty():
    spec = iid("gaussian", 1)
    with pytest.raises(ValueError):
        sample(spec, 0, seed=0)
    with pytest.raises(ValueError, match="m >= 1"):
        M.stream_values(spec, 0, 0, PolyFunction.from_terms(1, {(1,): 1.0}).adder())


# -- spectral-gap oracle ---------------------------------------------------------


def test_gap_uniform_is_pi_squared():
    # Neumann gap of the unit interval: lambda_1 = pi^2, eigenfunction cos(pi x)
    g = M.spectral_gap_oracle(
        lambda x: np.ones_like(np.asarray(x, dtype=np.float64)), 0.0, 1.0, 1201)
    assert g.lambda1 == pytest.approx(math.pi**2, rel=1e-5)
    assert g.stable
    assert g.sigma2 == pytest.approx(1.0 / math.pi**2, rel=1e-5)
    assert len(g.ladder) == 2 and g.ladder[1][0] == 2401


def test_gap_gaussian_is_one():
    dens = M.density_function(M.CoordinateDist.make("gaussian"))
    g = M.spectral_gap_oracle(dens, -10.0, 10.0, 1501)
    assert g.lambda1 == pytest.approx(1.0, rel=1e-6)
    assert g.stable
    # with w = 1 the tests' weighted solve is the same problem, to the bit
    ones = lambda x: np.ones_like(np.asarray(x, dtype=np.float64))
    assert weighted_spectral_gap(dens, ones, -10.0, 10.0, 1501) == (g.lambda1, True)


def test_gap_exponential_truncation_bias():
    # the exponential gap 1/4 sits at the essential-spectrum edge; a short
    # interval converges slowly from above, which is why the catalog pins a
    # long one
    dens = M.density_function(M.CoordinateDist.make("exponential"))
    g = M.spectral_gap_oracle(dens, 0.0, 60.0, 2001)
    assert g.lambda1 == pytest.approx(0.25, rel=5e-2)
    assert g.lambda1 > 0.25


def test_gap_oracle_validation():
    ones = lambda x: np.ones_like(np.asarray(x, dtype=np.float64))
    with pytest.raises(ValueError):
        M.spectral_gap_oracle(ones, 0.0, 1.0, 150)
    with pytest.raises(ValueError):
        M.spectral_gap_oracle(ones, 1.0, 1.0, 300)
    with pytest.raises(ValueError):
        M.spectral_gap_oracle(lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
                              0.0, 1.0, 300)


def test_catalog_oracle_refuses_student():
    with pytest.raises(M.UncertifiedConstantError):
        M.catalog_oracle(M.CoordinateDist.make("student", beta=10.0))


# -- Student-type weighted route ---------------------------------------------------


def test_student_weight_kappa_analytic():
    # f(x) = x is the first eigenfunction of the weighted problem:
    # -(p (1+x^2) f')' = 2(beta-1) p f, so lambda_1 = 4 at beta = 3, 18 at 10
    assert M.student_weight_kappa(3.0) == 0.5
    assert M.student_weight_kappa(10.0) == 18 ** -0.5
    assert M.student_weight_kappa(10.0) == 0.23570226039551584  # pinned


@pytest.mark.parametrize("beta", [3.0, 5.0, 10.0])
def test_student_weight_kappa_matches_the_weighted_oracle(beta):
    # the finite-difference solve on [-30, 30] estimates the same lambda_1;
    # it reads 3.5e-5 relative high at beta = 3, where the tails are heaviest,
    # which puts its kappa below the true one
    lambda1, stable = weighted_spectral_gap(
        M.density_function(M.CoordinateDist.make("student", beta=beta)),
        lambda x: np.sqrt(1.0 + np.asarray(x) ** 2), -30.0, 30.0, 8001)
    assert stable
    assert M.student_weight_kappa(beta) == pytest.approx(1.0 / math.sqrt(lambda1), rel=1e-4)


def test_student_weight_kappa_needs_beta_above_three_halves():
    # at beta <= 3/2, x has no finite variance and 2(beta - 1) is no gap
    with pytest.raises(ValueError, match="beta > 3/2"):
        M.student_weight_kappa(1.5)


def test_student_weight_moment_vs_quadrature():
    dens = M.density_function(M.CoordinateDist.make("student", beta=10.0))
    for q in (0.5, 1.0, 2.5, 4.0):
        want, _ = quad(lambda x: (1 + x * x) ** q * dens(x), -np.inf, np.inf, limit=200)
        assert M.student_weight_moment(10.0, q) == pytest.approx(want, rel=1e-8)
    assert M.student_weight_moment(10.0, 9.5) == math.inf
    assert M.student_weight_moment(10.0, 12.0) == math.inf


def test_student_weight_norm_union_bound():
    kappa = 1.0 / math.sqrt(18.0)
    one = M.student_weight_norm(10.0, kappa, 4, dim=1)
    three = M.student_weight_norm(10.0, kappa, 4, dim=3)
    assert one < three  # union bound grows with dim
    assert three == pytest.approx(one * 3 ** 0.25, rel=1e-12)
    assert M.student_weight_norm(10.0, kappa, 30, dim=1) == math.inf


def test_weighted_norm_monte_carlo():
    kappa = M.student_weight_kappa(10.0)
    spec = iid("student", 2, beta=10.0)
    est = M.weighted_norm(spec, kappa, 4, 20_000, 3)
    assert not est.diverged
    # sandwiched between the single-coordinate value and the union bound
    assert est.value >= M.student_weight_norm(10.0, kappa, 4, dim=1) - 5 * est.se
    assert est.value <= M.student_weight_norm(10.0, kappa, 4, dim=2) + 5 * est.se


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_weighted_norm_is_the_whole_sample_formula(dim):
    # the weight streamed through measures.stream gives the bits of the
    # formula on the whole (4m, dim) sample: m = 10^5 spans seven blocks
    kappa, p, m, seed = M.student_weight_kappa(10.0), 8.0, 100_000, 5
    spec = iid("student", dim, beta=10.0)
    pts = sample(spec, 4 * m, seed)
    w = (kappa * np.sqrt(1.0 + np.max(pts * pts, axis=1))) ** p
    mean = float(np.mean(w))
    value = mean ** (1.0 / p)
    se = float(np.std(w, ddof=1)) / math.sqrt(w.size) * value / (p * mean)
    est = M.weighted_norm(spec, kappa, p, m, seed)
    assert (est.value, est.se) == (value, se)


def test_weighted_norm_divergence_flag():
    # E (1 + max_i X_i^2)^15 is infinite at beta = 10; the doubling ladder
    # keeps drifting and the flag goes up (seed pinned: the flag is a noisy
    # detector at finite m, which is exactly why completed runs re-check norms)
    kappa = 1.0 / math.sqrt(18.0)
    spec = iid("student", 2, beta=10.0)
    est = M.weighted_norm(spec, kappa, 30, 20_000, 0)
    assert est.diverged


def test_weighted_norm_matches_exact_dim1():
    kappa = 1.0 / math.sqrt(18.0)
    spec = iid("student", 1, beta=10.0)
    est = M.weighted_norm(spec, kappa, 6, 50_000, 7)
    exact = M.student_weight_norm(10.0, kappa, 6, dim=1)
    assert est.value == pytest.approx(exact, abs=6 * est.se)
