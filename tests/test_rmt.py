"""Wigner ensembles: eigensolver dual route, closed-form constants,
calibration, route-3.2 certificates."""

import csv
import importlib.util
import math
import pathlib
import sys
import threading

import numpy as np
import pytest

from hoc import _util, experiments, rmt
from hoc import bounds as B
from hoc.measures import CoordinateDist, UncertifiedConstantError
from oracles import jacobi_eigenvalues


def gaussian_ensemble(n):
    return rmt.WignerEnsemble(n, CoordinateDist.make("gaussian"))


HALF_SQUARE = (0.0, 0.0, 0.5)  # f = x^2/2


def build(ens, seed, start, stop):
    """Draws start..stop-1 as full symmetric matrices: the lower triangle
    ``rmt._build_matrices`` writes, in a fresh buffer, mirrored above."""
    low = rmt._build_matrices(ens, seed, start, stop, np.empty((stop - start, ens.size ** 2)))
    return np.where(np.tri(ens.size, dtype=bool), low, low.transpose(0, 2, 1))


def lower_equal(a, b):
    """Whether two matrices agree on and below the diagonal, the triangle
    eigvalsh reads."""
    return np.array_equal(np.tril(a), np.tril(b))


def value(f, x):
    a0, a1, a2 = f
    return a0 + a1 * x + a2 * x * x


def slope(f, x):
    return f[1] + 2.0 * f[2] * x


def test_ensemble_validation():
    with pytest.raises(ValueError):
        rmt.WignerEnsemble(1, CoordinateDist.make("gaussian"))
    with pytest.raises(UncertifiedConstantError):
        rmt.WignerEnsemble(10, CoordinateDist.make("student", beta=10.0))
    ens = gaussian_ensemble(50)
    assert ens.sigma2 == 1.0
    assert ens.sigma_n2 == pytest.approx(2.0 / 50.0, rel=1e-15)


def test_sample_deterministic_and_chunk_independent():
    ens = gaussian_ensemble(30)
    a = rmt.sample_ensemble(ens, 40, seed=5)
    b = rmt.sample_ensemble(ens, 40, seed=5)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    # chunking cannot change the numbers: a 40-draw sample equals the first
    # 40 rows of a longer one that spans three chunks or more, its last
    # chunk of a different size
    c = rmt.sample_ensemble(ens, max(40, 2 * rmt._EIG_CHUNK) + 5, seed=5)
    assert np.array_equal(c.eigenvalues[:40], a.eigenvalues)
    d = rmt.sample_ensemble(ens, 40, seed=6)
    assert not np.array_equal(a.eigenvalues, d.eigenvalues)
    assert a.eigenvalues.shape == (40, 30)
    assert np.all(np.diff(a.eigenvalues, axis=1) >= 0)  # rows ascending
    assert a.discarded == 0
    with pytest.raises(ValueError):
        rmt.sample_ensemble(ens, 0, seed=1)


def test_semicircle_sanity():
    # unit-variance entries over sqrt(N): spectrum concentrates on [-2, 2]
    # with unit second moment
    ens = gaussian_ensemble(150)
    s = rmt.sample_ensemble(ens, 50, seed=17)
    radius = float(np.max(np.abs(s.eigenvalues)))
    assert 1.7 < radius < 2.4
    second = float(np.mean(s.eigenvalues**2))
    assert 0.9 < second < 1.1


def test_trace_identity():
    """Eigenvalues and matrix entries must tell the same story:
    sum_j f(lambda_j) = tr f(M) for polynomial f."""
    ens = gaussian_ensemble(25)
    seed, draws = 99, 30
    sample = rmt.sample_ensemble(ens, draws, seed)
    assert sample.discarded == 0
    mats = build(ens, seed, 0, draws)
    per_draw_eig = value(HALF_SQUARE, sample.eigenvalues).sum(axis=1)
    per_draw_mat = 0.5 * np.einsum("kij,kji->k", mats, mats)
    assert np.allclose(per_draw_eig, per_draw_mat, rtol=1e-10)


@pytest.mark.parametrize("dist", ["gaussian", "exponential", "laplace"])
def test_build_matrices_fill_the_lower_triangle(dist):
    from hoc._util import substream
    from hoc.measures import draw_coordinate

    # the three ways draw_coordinate fills its out= array
    ens = rmt.WignerEnsemble(5, CoordinateDist.make(dist))
    iu = np.triu_indices(5)
    # one buffer, prefilled with NaN and longer than a chunk, reused for two
    # spans: the lower triangle of every row a build uses is written, and
    # the strict upper triangle, which eigvalsh (UPLO='L') never reads, is not
    buf = np.full((9, 25), np.nan)
    for seed, start, stop in ((41, 3, 10), (42, 0, 4)):
        mats = rmt._build_matrices(ens, seed, start, stop, buf)
        assert mats.shape == (stop - start, 5, 5) and np.shares_memory(mats, buf)
        # the fresh-array, per-draw values: entry (i, j) of the upper
        # triangle, in triu_indices order, lands at (j, i)
        for m, draw in zip(mats, range(start, stop)):
            vals = draw_coordinate(substream(seed, draw), ens.entry, iu[0].size) / math.sqrt(5)
            assert np.array_equal(m.T[iu], vals)
            assert np.isnan(m[np.triu_indices(5, 1)]).all()


@pytest.mark.parametrize("n", [2, 5, 100])
def test_unwritten_triangle_is_never_read(monkeypatch, n):
    """With NaN in the strict upper triangle, the batched eigvalsh and the
    one-matrix retry of ``_eig_chunk`` both give the bits of the full
    symmetric matrices."""
    ens, seed, start, stop = gaussian_ensemble(n), 23, 5, 5 + rmt._EIG_CHUNK
    want = np.linalg.eigvalsh(build(ens, seed, start, stop))
    original, got = np.linalg.eigvalsh, {}
    for path in ("batched", "retry"):
        if path == "retry":
            def eigvalsh(a, *args, **kwargs):
                if np.ndim(a) == 3:
                    raise np.linalg.LinAlgError("forced failure")
                return original(a, *args, **kwargs)

            monkeypatch.setattr(rmt.np.linalg, "eigvalsh", eigvalsh)
        mats = np.full((rmt._EIG_CHUNK, n * n), np.nan)
        eigs, kept = np.full((stop, n), np.nan), np.ones(stop, dtype=bool)
        rmt._eig_chunk(ens, seed, start, stop, mats, eigs, kept)
        assert kept.all() and np.isnan(eigs[:start]).all()
        assert np.isnan(mats.reshape(-1, n, n)[:, ~np.tri(n, dtype=bool)]).all()
        got[path] = eigs[start:]
    assert np.array_equal(got["batched"], want)
    assert np.array_equal(got["retry"], want)


def _failing_eigvalsh(monkeypatch, bad):
    """Make batched eigvalsh fail, and single calls fail on the matrices in ``bad``."""
    original = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        if np.ndim(a) == 3 or any(lower_equal(a, m) for m in bad):
            raise np.linalg.LinAlgError("forced failure")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(rmt.np.linalg, "eigvalsh", eigvalsh)


# draws whose last chunk holds _EIG_CHUNK - 3 of them, one discard allowed
_PARTIAL = rmt._EIG_CHUNK * (1000 // rmt._EIG_CHUNK + 1) - 3


@pytest.mark.parametrize("draws, bad_draw, workers", [
    (1000, 300, None),
    # next to last draw of the last, partial chunk
    (_PARTIAL, _PARTIAL - 2, 1),
    (_PARTIAL, _PARTIAL - 2, 3),
])
def test_discarded_draw_costs_only_itself(monkeypatch, draws, bad_draw, workers):
    ens, seed, unpatched = gaussian_ensemble(5), 8, np.linalg.eigvalsh
    if workers is not None:
        monkeypatch.setattr(rmt, "worker_count", lambda: workers)
    clean = rmt.sample_ensemble(ens, draws, seed)
    _failing_eigvalsh(monkeypatch, build(ens, seed, bad_draw, bad_draw + 1))
    got = rmt.sample_ensemble(ens, draws, seed)
    assert got.discarded == 1
    kept = np.delete(clean.eigenvalues, bad_draw, axis=0)
    assert np.array_equal(got.eigenvalues, kept)
    # two failures exceed MAX_DISCARD_FRACTION
    assert 2 > rmt.MAX_DISCARD_FRACTION * draws
    monkeypatch.setattr(rmt.np.linalg, "eigvalsh", unpatched)
    _failing_eigvalsh(monkeypatch, list(build(ens, seed, 10, 12)))
    with pytest.raises(RuntimeError, match="discarded 2 of %d" % draws):
        rmt.sample_ensemble(ens, draws, seed)


def test_discarded_draw_does_not_crash_the_runner(tmp_path, monkeypatch):
    # 1001 is the fewest draws a config may ask for; one discard leaves
    # exactly the 1000 the tail check needs
    seed, draws, bad_draw = 4, 1001, 517
    cfg = {"kind": "rmt", "seed": seed, "matrix_size": 5, "coeffs": [0.0, 0.0, 0.5],
           "entry": {"dist": "gaussian", "params": {}}, "draws": draws,
           "cal_draws": rmt.MIN_CAL_DRAWS}
    ens = gaussian_ensemble(5)
    eval_seed = _util.stage_seed(seed, experiments._STAGE_EVAL)
    _failing_eigvalsh(monkeypatch, build(ens, eval_seed, bad_draw, bad_draw + 1))
    code, report = experiments.run_config(cfg, str(tmp_path / "out"))
    assert code in (0, 1)
    assert report["draws"] == draws and report["discarded"] == 1
    with open(tmp_path / "out" / "draws.csv") as fh:
        assert len(list(csv.reader(fh))) == 1 + draws - 1  # header + kept draws


def _blas_counts():
    return [get() for get, _ in _util._openblas_threads()]


def test_thread_count_cannot_change_a_number(monkeypatch):
    ens = gaussian_ensemble(10)
    draws = 12 * rmt._EIG_CHUNK + 5
    original = np.linalg.eigvalsh
    samples = {}
    # more threads than CPUs, switching often: a matrix buffer taken by two
    # chunks at once would change the numbers
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 3):
            seen = {}

            def eigvalsh(a, *args, **kwargs):
                seen.setdefault(threading.get_ident(), []).append(_blas_counts())
                return original(a, *args, **kwargs)

            monkeypatch.setattr(rmt, "worker_count", lambda: workers)
            monkeypatch.setattr(rmt.np.linalg, "eigvalsh", eigvalsh)
            samples[workers] = rmt.sample_ensemble(ens, draws, seed=12)
            assert 1 <= len(seen) <= rmt.worker_count()
            assert all(count == 1 for calls in seen.values() for counts in calls
                       for count in counts)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(samples[1].eigenvalues, samples[3].eigenvalues)
    assert samples[1].discarded == samples[3].discarded == 0


def test_worker_error_reaches_the_caller(monkeypatch):
    ens = gaussian_ensemble(6)
    seed, draws = 21, 2 * rmt._EIG_CHUNK + 5
    bad = build(ens, seed, rmt._EIG_CHUNK + 3, rmt._EIG_CHUNK + 4)[0]
    original = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        if any(lower_equal(m, bad) for m in np.reshape(a, (-1,) + bad.shape)):
            raise KeyError("boom")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(rmt, "worker_count", lambda: 2)
    monkeypatch.setattr(rmt.np.linalg, "eigvalsh", eigvalsh)
    libs = _util._openblas_threads()
    original_counts = _blas_counts()
    try:
        for _, put in libs:  # a count of 2 tells a restore from a leak of 1
            put(2)
        threads = threading.active_count()
        with pytest.raises(KeyError, match="boom"):
            rmt.sample_ensemble(ens, draws, seed)
        assert _blas_counts() == [2] * len(libs)
        assert threading.active_count() == threads
    finally:
        for (_, put), count in zip(libs, original_counts):
            put(count)


def test_sample_ensemble_solves_on_one_blas_thread(monkeypatch):
    original = np.linalg.eigvalsh
    seen = []

    def eigvalsh(a, *args, **kwargs):
        seen.append(_blas_counts())
        return original(a, *args, **kwargs)

    monkeypatch.setattr(rmt.np.linalg, "eigvalsh", eigvalsh)
    before = _blas_counts()
    rmt.sample_ensemble(gaussian_ensemble(10), 2 * rmt._EIG_CHUNK + 1, seed=3)
    assert len(seen) == 3
    assert all(count == 1 for counts in seen for count in counts)
    assert _blas_counts() == before


# -- Jacobi oracle vs LAPACK (dual route) -----------------------------------------


def test_jacobi_matches_eigvalsh():
    rng = np.random.default_rng(4)
    for n in (2, 5, 12, 33):
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        got = jacobi_eigenvalues(a)
        want = np.linalg.eigvalsh(a)
        assert np.allclose(got, want, atol=1e-10 * max(1.0, float(np.max(np.abs(a)))))


def test_jacobi_on_sampled_matrices():
    ens = rmt.WignerEnsemble(16, CoordinateDist.make("laplace", scale=1 / math.sqrt(2)))
    mats = build(ens, 3, 0, 4)
    for m in mats:
        assert np.allclose(jacobi_eigenvalues(m), np.linalg.eigvalsh(m), atol=1e-11)


def test_jacobi_validation():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.zeros((65, 65)))
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.zeros((3, 4)))
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        jacobi_eigenvalues(bad)


# -- statistics and calibration ------------------------------------------------------


@pytest.mark.parametrize("entry, coeffs, sum_f, grad2", [
    # centered entries, f = x^2/2: sum_f = N/2 and grad_l2^2 = N
    (CoordinateDist.make("gaussian"), [0.0, 0.0, 0.5], 25.0, 50.0),
    # mu = 1, m2 = 2: sum_f = 15 - sqrt(50) + 50 and grad_l2^2 = 50 - 2 sqrt(50) + 100
    (CoordinateDist.make("exponential", scale=1.0), [0.3, -1.0, 0.5],
     65.0 - math.sqrt(50.0), 150.0 - 2.0 * math.sqrt(50.0)),
])
def test_exact_sums_match_monte_carlo(entry, coeffs, sum_f, grad2):
    """sum_j E f(lambda_j) and E sum_j f'(lambda_j)^2 in closed form against
    their Monte Carlo means over sampled spectra at N = 50, within 5 SE."""
    ens = rmt.WignerEnsemble(50, entry)
    f = rmt.quadratic(coeffs)
    got_f, got_grad = rmt.exact_sums(ens, f)
    assert got_f == pytest.approx(sum_f, rel=1e-14)
    assert got_grad == pytest.approx(math.sqrt(grad2), rel=1e-14)
    eig = rmt.sample_ensemble(ens, 2000, seed=53).eigenvalues
    for per_draw, want in ((value(f, eig).sum(axis=1), got_f),
                           ((slope(f, eig) ** 2).sum(axis=1), got_grad ** 2)):
        se = float(per_draw.std(ddof=1)) / math.sqrt(per_draw.size)
        assert abs(float(per_draw.mean()) - want) <= 5.0 * se


def test_stat_second_moment_matches_monte_carlo():
    # x^2/2 on gaussian entries gives 1 - 1/(2N); a linear term on
    # exponential entries reads the third moment too: 1 - 2 + 8.75 at N = 4
    assert rmt.stat_second_moment(gaussian_ensemble(10), HALF_SQUARE) == pytest.approx(
        0.95, rel=1e-15)
    ens = rmt.WignerEnsemble(4, CoordinateDist.make("exponential", scale=1.0))
    f = (0.3, -1.0, 0.5)
    assert rmt.stat_second_moment(ens, f) == pytest.approx(7.75, rel=1e-15)
    cal = rmt.calibrate(ens, f, rmt.MIN_CAL_DRAWS, seed=58)
    s2 = rmt.draw_statistics(ens, rmt.sample_ensemble(ens, 4000, seed=59), f, cal)[0] ** 2
    se = float(s2.std(ddof=1)) / math.sqrt(s2.size)
    assert abs(float(s2.mean()) - 7.75) <= 5.0 * se


def test_exact_sums_need_degree_two():
    # a triple holds degree <= 2 only; the parse refuses any higher term
    ens = gaussian_ensemble(10)
    assert rmt.exact_sums(ens, (2.0, 1.0, 0.0)) == (20.0, math.sqrt(10.0))
    with pytest.raises(B.MissingHypothesisError, match="degree > 2"):
        rmt.quadratic([0.0, 0.0, 0.5, 1.0])


def test_second_derivative_bound():
    # |f''| = 2 |a2|, and it must be positive
    assert rmt.certified_fpp(HALF_SQUARE) == 1.0
    assert rmt.certified_fpp((1.0, 2.0, -0.75)) == 1.5
    with pytest.raises(B.MissingHypothesisError, match="positive"):
        rmt.certified_fpp((3.0, 2.0, 0.0))
    # the parse gives the triple, zero-padded, and applies both refusals
    assert rmt.quadratic([1, -2, 0.25, 0.0, 0]) == (1.0, -2.0, 0.25)
    with pytest.raises(B.MissingHypothesisError, match="positive"):
        rmt.quadratic([3.0, 2.0])
    with pytest.raises(B.MissingHypothesisError, match="degree > 2"):
        rmt.quadratic([0.0, 0.0, 0.0, 1.0])
    for bad in ([], [0.0, "1"], [0.0, True, 1.0], [float("nan"), 0.0, 1.0], (0.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="finite numbers"):
            rmt.quadratic(bad)


@pytest.mark.parametrize("coeffs", [[0.0, 0.0, 0.5], [0.3, -1.0, 0.5, 0.0], [2.0, 1.0, 1e-3],
                                    [0.7, 1.3, -0.4], [-1.1, -0.6, 2.5]])
def test_quadratic_forms_equal_numpy_polynomial(coeffs):
    """S_N and the calibrated E f'(lambda_j) read f and f' off the triple;
    numpy's general polynomial evaluation gives the same bits."""
    from numpy.polynomial import Polynomial

    ens, f, poly = gaussian_ensemble(20), rmt.quadratic(coeffs), Polynomial(coeffs)
    sample = rmt.sample_ensemble(ens, 100, seed=31)
    want = poly(sample.eigenvalues).sum(axis=1) - rmt.exact_sums(ens, f)[0]
    cal = rmt.calibrate(ens, f, rmt.MIN_CAL_DRAWS, seed=32)
    assert np.array_equal(rmt.draw_statistics(ens, sample, f, cal)[0], want)
    eig = rmt.sample_ensemble(ens, rmt.MIN_CAL_DRAWS, seed=32).eigenvalues
    assert np.array_equal(cal.mean_fprime, poly.deriv(1)(eig).mean(axis=0))


@pytest.mark.parametrize("dist, n, f, draws", [("gaussian", 10, HALF_SQUARE, 500),
                                               ("exponential", 5, (0.3, -1.5, 0.25), 517),
                                               ("uniform01", 20, (0.0, 2.0, -1.0), 640),
                                               ("gaussian", 3, (0.2, 0.9, 1.7), 1001),
                                               # 32-row blocks: 33 draws end in a lone row
                                               ("laplace", 130, (0.5, -0.25, 0.75), 500)])
def test_calibration_keeps_the_bits_of_the_out_of_place_expressions(dist, n, f, draws):
    # the reference is each statistic as a whole-array expression, as they
    # read before they went a row block at a time with no (draws, N)
    # temporary, with its matrix-vector products on one BLAS thread
    ens = rmt.WignerEnsemble(n, CoordinateDist.make(dist))
    cal = rmt.calibrate(ens, f, draws, seed=41)
    eig = rmt.sample_ensemble(ens, draws, seed=41).eigenvalues
    m = eig.shape[0]
    fprime = f[1] + (2.0 * f[2]) * eig
    mean_fprime = fprime.mean(axis=0)
    with _util.serial_blas():
        shift_per_draw = eig @ mean_fprime
    ref = rmt.Calibration(eig.mean(axis=0), mean_fprime,
                          fprime.std(axis=0, ddof=1) / math.sqrt(m),
                          float(shift_per_draw.std(ddof=1)) / math.sqrt(m))
    for field in ("mean_lambda", "mean_fprime", "se_fprime"):
        assert np.array_equal(getattr(cal, field), getattr(ref, field)), field
    assert cal.se_shift == ref.se_shift

    a0, a1, a2 = f
    step = len(next(rmt._row_blocks(np.empty((8193, n))))[1])  # rows of a whole block
    assert (step == 32) == (n == 130)
    # a lone last row, a short last block, 33 (a lone last row at n = 130,
    # one block below) and 1001
    for draws in (2 * step + 1, 3 * step + 7, 33, 1001):
        sample = rmt.sample_ensemble(ens, draws, seed=42)
        before = sample.eigenvalues.copy()
        s_n = (a0 + (a1 + a2 * before) * before).sum(axis=1) - rmt.exact_sums(ens, f)[0]
        centered = before - ref.mean_lambda
        with _util.serial_blas():
            s_t = s_n - centered @ ref.mean_fprime
        fluct = math.sqrt(float(np.mean(np.sum(centered * centered, axis=1))))
        bound = ref.se_shift + fluct * math.sqrt(float(np.sum(ref.se_fprime**2)))
        got = rmt.draw_statistics(ens, sample, f, cal)
        assert np.array_equal(got[0], s_n)
        assert np.array_equal(got[1], s_t)
        assert got[2] == bound
        assert not np.shares_memory(got[0], got[1])
        assert np.array_equal(sample.eigenvalues, before)  # no statistic writes the sample


def test_sample_and_statistics_hold_no_draws_by_n_temporary(monkeypatch):
    """Calibration, an evaluation sample and its statistics peak, under
    tracemalloc, below the (draws, N) eigenvalues, the pool's matrix buffers
    and a margin of a fifth of the eigenvalues: one more (draws, N) array,
    as each statistic made before it went a row block at a time, breaks it."""
    import tracemalloc

    workers, n, draws = 2, 40, 4000
    monkeypatch.setattr(rmt, "worker_count", lambda: workers)
    ens, f = gaussian_ensemble(n), (0.3, -1.0, 0.5)
    eig_bytes = draws * n * 8
    bound = eig_bytes + workers * rmt._EIG_CHUNK * n * n * 8 + eig_bytes // 5
    tracemalloc.start()
    try:
        cal = rmt.calibrate(ens, f, draws, seed=61)
        sample = rmt.sample_ensemble(ens, draws, seed=62)
        rmt.draw_statistics(ens, sample, f, cal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_wigner_statistics_do_not_depend_on_the_blas_thread_count(monkeypatch):
    # on two OpenBLAS threads a whole-array matrix-vector product of 2001
    # rows at N = 400 splits the rows at an odd row and gives it other last
    # bits than on one; the block products give the same bits on either
    rng = np.random.default_rng(14)
    eig = rng.standard_normal((2001, 400))
    monkeypatch.setattr(rmt, "sample_ensemble", lambda *args: rmt.EigenSample(eig.copy()))
    ens = gaussian_ensemble(400)
    libs, counts, got = _util._openblas_threads(), _blas_counts(), {}
    try:
        for threads in (1, 2):
            for _, put in libs:
                put(threads)
            cal = rmt.calibrate(ens, HALF_SQUARE, 2001, seed=0)
            got[threads] = (cal.se_shift,) + rmt.draw_statistics(
                ens, rmt.EigenSample(eig), HALF_SQUARE, cal)
    finally:
        for (_, put), count in zip(libs, counts):
            put(count)
    assert got[1][0] == got[2][0]
    assert np.array_equal(got[1][1], got[2][1])
    assert np.array_equal(got[1][2], got[2][2])
    assert got[1][3] == got[2][3]


def test_calibrate_guard():
    ens = gaussian_ensemble(10)
    with pytest.raises(ValueError):
        rmt.calibrate(ens, HALF_SQUARE, 100, seed=1)


def test_recentering_reduces_variance():
    ens = gaussian_ensemble(20)
    cal = rmt.calibrate(ens, HALF_SQUARE, 600, seed=101)
    sample = rmt.sample_ensemble(ens, 600, seed=202)
    s, s_tilde, _ = rmt.draw_statistics(ens, sample, HALF_SQUARE, cal)
    assert s.shape == (600,)
    # the first-order eigenvalue fluctuation carries most of the variance
    assert float(np.var(s_tilde)) < 0.5 * float(np.var(s))
    # recentering shifts by a mean-zero-ish correction, not a constant
    assert not np.allclose(s, s_tilde)


def test_calibration_shift_bound_scales():
    ens = gaussian_ensemble(20)
    small = rmt.calibrate(ens, HALF_SQUARE, 600, seed=7)
    big = rmt.calibrate(ens, HALF_SQUARE, 2400, seed=7)
    sample = rmt.sample_ensemble(ens, 400, seed=8)
    b_small = rmt.draw_statistics(ens, sample, HALF_SQUARE, small)[2]
    b_big = rmt.draw_statistics(ens, sample, HALF_SQUARE, big)[2]
    assert b_small > 0 and b_big > 0
    assert b_big < b_small  # more calibration draws, tighter bound


def test_exp_calibration_slack():
    assert rmt.exp_calibration_slack(1.0, 0.0) == 0.0
    lo = rmt.exp_calibration_slack(0.5, 0.01)
    hi = rmt.exp_calibration_slack(0.5, 0.04)
    assert 0 < lo < hi
    # closed form: exp(a sqrt(eps)) - 1, relative to the estimate
    assert hi == pytest.approx(math.exp(0.5 * 0.2) - 1.0, rel=1e-12)


def test_rmt_certificates():
    ens = gaussian_ensemble(100)
    f = HALF_SQUARE
    exp_cert, tail_cert = rmt.rmt_certificates(ens, f)
    rate, power, threshold = exp_cert.exp_params()
    assert rate == pytest.approx(B.EXP_MOMENT_COEFF * math.sqrt(5.0), rel=1e-12)
    assert power == 0.5 and threshold == 2.0
    assert exp_cert.route == "wigner-lss" and tail_cert.route == "wigner-lss"
    # the closed form (E sum_j f'(lambda_j)^2)^(1/2) = sqrt(N), nothing estimated
    assert tail_cert.constants["grad_l2"] == rmt.exact_sums(ens, f)[1] == 10.0
    assert tail_cert.constants["matrix_size"] == 100
    with pytest.raises(B.MissingHypothesisError):
        rmt.rmt_certificates(ens, (0.0, 1.0, 0.0))  # f'' = 0


def test_benchmark_wigner_check_passes(rmt_run, monkeypatch):
    """perfbench's wigner-lss check, loaded unchanged, accepts the session run:
    a report.json key it reads cannot go missing unnoticed."""
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_checks", bench / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    cfg, (out, code, report, _) = rmt_run
    assert code == 0
    assert checks.check_wigner(cfg["seed"], str(out)) == []
