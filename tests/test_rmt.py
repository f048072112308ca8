"""Wigner ensembles: eigensolver dual route, calibration, route-3.2 certificates."""

import math

import numpy as np
import pytest

from hoc import bounds as B
from hoc import rmt
from hoc.measures import CoordinateDist, UncertifiedConstantError


def gaussian_ensemble(n):
    return rmt.WignerEnsemble(n, CoordinateDist.make("gaussian"))


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
    # chunking cannot change the numbers: one 40-draw chunk equals the
    # first 40 rows of a sample that spans three chunks
    c = rmt.sample_ensemble(ens, 2 * rmt._EIG_CHUNK + 5, seed=5)
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
    mats = rmt._build_matrices(ens, seed, 0, draws)
    f = rmt.as_polynomial([0.0, 0.0, 0.5])
    per_draw_eig = f(sample.eigenvalues).sum(axis=1)
    per_draw_mat = 0.5 * np.einsum("kij,kji->k", mats, mats)
    assert np.allclose(per_draw_eig, per_draw_mat, rtol=1e-10)


def test_build_matrices_symmetric_and_matches_reference():
    from hoc._util import substream
    from hoc.measures import draw_coordinate

    ens = gaussian_ensemble(5)
    seed, start, stop = 41, 3, 10
    mats = rmt._build_matrices(ens, seed, start, stop)
    assert mats.shape == (7, 5, 5)
    assert np.array_equal(mats, mats.transpose(0, 2, 1))
    # the per-draw construction the chunked build replaced
    iu = np.triu_indices(5)
    for m, draw in zip(mats, range(start, stop)):
        vals = draw_coordinate(substream(seed, draw), ens.entry, iu[0].size) / math.sqrt(5)
        ref = np.zeros((5, 5))
        ref[iu] = vals
        ref.T[iu] = vals
        assert np.array_equal(m, ref)


def _failing_eigvalsh(monkeypatch, bad):
    """Make batched eigvalsh fail, and single calls fail on the matrices in ``bad``."""
    original = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        if np.ndim(a) == 3 or any(np.array_equal(a, m) for m in bad):
            raise np.linalg.LinAlgError("forced failure")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(rmt.np.linalg, "eigvalsh", eigvalsh)


def test_discarded_draw_costs_only_itself(monkeypatch):
    ens = gaussian_ensemble(5)
    seed, draws, bad_draw = 8, 1000, 300
    clean = rmt.sample_ensemble(ens, draws, seed)
    bad = rmt._build_matrices(ens, seed, bad_draw, bad_draw + 1)
    _failing_eigvalsh(monkeypatch, bad)
    got = rmt.sample_ensemble(ens, draws, seed)
    assert got.discarded == 1
    kept = np.delete(clean.eigenvalues, bad_draw, axis=0)
    assert np.array_equal(got.eigenvalues, kept)
    # two failures in 1000 draws exceed MAX_DISCARD_FRACTION
    assert 2 > rmt.MAX_DISCARD_FRACTION * draws
    monkeypatch.undo()
    _failing_eigvalsh(monkeypatch, list(rmt._build_matrices(ens, seed, 10, 12)))
    with pytest.raises(RuntimeError, match="discarded 2 of 1000"):
        rmt.sample_ensemble(ens, draws, seed)


def test_sample_ensemble_solves_on_one_blas_thread(monkeypatch):
    from hoc import _util

    original = np.linalg.eigvalsh
    seen = []

    def eigvalsh(a, *args, **kwargs):
        seen.append([get() for get, _ in _util._openblas_threads()])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(rmt.np.linalg, "eigvalsh", eigvalsh)
    before = [get() for get, _ in _util._openblas_threads()]
    rmt.sample_ensemble(gaussian_ensemble(10), 2 * rmt._EIG_CHUNK + 1, seed=3)
    assert len(seen) == 3
    assert all(count == 1 for counts in seen for count in counts)
    assert [get() for get, _ in _util._openblas_threads()] == before


# -- Jacobi oracle vs LAPACK (dual route) -----------------------------------------


def test_jacobi_matches_eigvalsh():
    rng = np.random.default_rng(4)
    for n in (2, 5, 12, 33):
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        got = rmt.jacobi_eigenvalues(a)
        want = np.linalg.eigvalsh(a)
        assert np.allclose(got, want, atol=1e-10 * max(1.0, float(np.max(np.abs(a)))))


def test_jacobi_on_sampled_matrices():
    ens = rmt.WignerEnsemble(16, CoordinateDist.make("laplace", scale=1 / math.sqrt(2)))
    mats = rmt._build_matrices(ens, 3, 0, 4)
    for m in mats:
        assert np.allclose(rmt.jacobi_eigenvalues(m), np.linalg.eigvalsh(m), atol=1e-11)


def test_jacobi_validation():
    with pytest.raises(ValueError):
        rmt.jacobi_eigenvalues(np.zeros((65, 65)))
    with pytest.raises(ValueError):
        rmt.jacobi_eigenvalues(np.zeros((3, 4)))
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        rmt.jacobi_eigenvalues(bad)


# -- statistics and calibration ------------------------------------------------------


def test_second_derivative_bound():
    assert rmt.second_derivative_bound(rmt.as_polynomial([0.0, 0.0, 0.5])) == 1.0
    assert rmt.second_derivative_bound(rmt.as_polynomial([3.0, 2.0])) == 0.0
    with pytest.raises(B.MissingHypothesisError):
        rmt.second_derivative_bound(rmt.as_polynomial([0.0, 0.0, 0.0, 1.0]))


def test_calibrate_guard():
    ens = gaussian_ensemble(10)
    with pytest.raises(ValueError):
        rmt.calibrate(ens, rmt.as_polynomial([0, 0, 0.5]), 100, seed=1)


def test_recentering_reduces_variance():
    ens = gaussian_ensemble(20)
    f = rmt.as_polynomial([0.0, 0.0, 0.5])
    cal = rmt.calibrate(ens, f, 600, seed=101)
    sample = rmt.sample_ensemble(ens, 600, seed=202)
    s = rmt.linear_stat(sample, f, cal)
    s_tilde = rmt.recentered_stat(sample, f, cal)
    assert s.shape == (600,)
    # the first-order eigenvalue fluctuation carries most of the variance
    assert float(np.var(s_tilde)) < 0.5 * float(np.var(s))
    # recentering shifts by a mean-zero-ish correction, not a constant
    assert not np.allclose(s, s_tilde)
    with pytest.raises(ValueError):
        rmt.linear_stat(sample, f, None)
    with pytest.raises(ValueError):
        rmt.recentered_stat(sample, f, None)


def test_calibration_shift_bound_scales():
    ens = gaussian_ensemble(20)
    f = rmt.as_polynomial([0.0, 0.0, 0.5])
    small = rmt.calibrate(ens, f, 600, seed=7)
    big = rmt.calibrate(ens, f, 2400, seed=7)
    sample = rmt.sample_ensemble(ens, 400, seed=8)
    b_small = rmt.calibration_shift_bound(sample, small)
    b_big = rmt.calibration_shift_bound(sample, big)
    assert b_small > 0 and b_big > 0
    assert b_big < b_small  # more calibration draws, tighter bound


def test_exp_calibration_se():
    assert rmt.exp_calibration_se(1.0, 0.0, 5.0) == 0.0
    lo = rmt.exp_calibration_se(0.5, 0.01, 2.0)
    hi = rmt.exp_calibration_se(0.5, 0.04, 2.0)
    assert 0 < lo < hi
    # closed form: (exp(a sqrt(eps)) - 1) * est
    assert hi == pytest.approx((math.exp(0.5 * 0.2) - 1.0) * 2.0, rel=1e-12)


def test_rmt_certificates():
    ens = gaussian_ensemble(100)
    f = rmt.as_polynomial([0.0, 0.0, 0.5])
    cal = rmt.calibrate(ens, f, 600, seed=31)
    exp_cert, tail_cert = rmt.rmt_certificates(ens, f, cal)
    rate, power, threshold = exp_cert.exp_params()
    assert rate == pytest.approx(B.EXP_MOMENT_COEFF * math.sqrt(5.0), rel=1e-12)
    assert power == 0.5 and threshold == 2.0
    assert exp_cert.route == "wigner-lss" and tail_cert.route == "wigner-lss"
    assert tail_cert.constants["grad_l2"] == cal.grad_l2
    assert tail_cert.constants["matrix_size"] == 100
    with pytest.raises(B.MissingHypothesisError):
        rmt.rmt_certificates(ens, rmt.as_polynomial([0, 0, 0, 1.0]), cal)
    with pytest.raises(B.MissingHypothesisError):
        rmt.rmt_certificates(ens, rmt.as_polynomial([0, 1.0]), cal)  # f'' = 0
