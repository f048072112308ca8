"""Wigner-matrix eigenvalue statistics and their concentration certificates.

A symmetric N x N matrix with independent upper-triangle entries drawn from
one catalog law (entries scaled by 1/sqrt(N)) induces, on its ordered
eigenvalue vector, a spectral-gap constant sigma_N^2 = 2*sigma^2/N, where
sigma^2 is the certified constant of the entry law. Linear eigenvalue
statistics S_N = sum_j (f(lambda_j) - E f(lambda_j)) and their recentered
second-order version S~_N = S_N - sum_j (lambda_j - E lambda_j) E f'(lambda_j)
then inherit exponential-moment and tail certificates (route wigner-lss).
The tail certificate is evaluated as the order-2 derivative ladder of S_N on
the eigenvalue vector (see hoc.bounds): sigma_N = sigma*sqrt(2/N),
grad_l2 = (E sum_j f'(lambda_j)^2)^(1/2) at order 1, and sqrt(N) * sup|f''|
as the top norm.

For f = a0 + a1 x + a2 x^2 both sums over the spectrum are traces, so with
mu and m2 the entry law's first two moments, E tr M = sqrt(N) mu and
E |M|_F^2 = N m2 give sum_j E f(lambda_j) (the centering of S_N) and grad_l2
in closed form (``exact_sums``). The per-index E lambda_j and E f'(lambda_j)
that S~_N subtracts have no closed form: they are estimated on an
independent calibration run, and their standard errors are propagated into
the verification slack.

Each draw's ordered eigenvalues come from a batched LAPACK eigensolve
(``numpy.linalg.eigvalsh``) on a single BLAS thread; chunks of draws are
built and solved on one thread per available CPU, which overlap because the
solves and the random fills run without the GIL. Each chunk is built in one
of the per-thread matrix buffers and solved into its rows of one eigenvalue
array, all allocated once per sample on the calling thread. A draw writes
only the lower triangle of its matrix, the single triangle eigvalsh
(UPLO='L') reads. ``calibrate`` and ``draw_statistics`` read an eigenvalue
array a row block at a time, so neither allocates a second (draws, N)
array; ``draw_statistics`` makes S_N, S~_N and the calibration shift bound
in one pass over the evaluation eigenvalues.

f is a quadratic, the triple (a0, a1, a2) of ``quadratic`` with a2 != 0: both
certificates need the bound 2|a2| on |f''|, which no higher degree has.
"""

from __future__ import annotations

import functools
import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import sqrt

import numpy as np

from ._util import is_finite_number, serial_blas, substream, worker_count
from .bounds import (EXP_MOMENT_COEFF, EXP_THRESHOLD, Certificate,
                     MissingHypothesisError)
from .measures import (CoordinateDist, coordinate_moment, coordinate_sigma2,
                       draw_coordinate)

# Draws per batched eigensolver call, and so the rows of each pool thread's
# matrix buffer (0.64 MB at N = 100). Two threads overlap only on batches of
# 8 or more matrices: numpy's eigvalsh at N = 100 scaled 0.98-1.09x on two
# threads with batches of 1, 2 or 4, as if it held the GIL, and 1.64-1.72x
# with 8, 16 or 32, so the chunk may not go below 8. Above 8 it buys no time
# (a 2000-draw sample_ensemble took 0.636-0.641 s at 8, 16, 24 and 32) and
# costs buffer memory, which shows once the statistics hold no (draws, N)
# temporary: on wigner-gaussian-n100 at two threads, four in-process
# run_config calls peaked (VmHWM) at 41.8-42.0 MB with 8 draws against
# 42.9-43.0 MB with 16, so the chunk is 8.
_EIG_CHUNK = 8
# Bytes of eigenvalues per row block of the statistics (see ``_row_blocks``)
_BLOCK_BYTES = 1 << 16
MIN_CAL_DRAWS = 500
MAX_DISCARD_FRACTION = 1e-3


@dataclass(frozen=True)
class WignerEnsemble:
    """Symmetric random matrix: entry law (catalog) and size N."""

    size: int
    entry: CoordinateDist

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("need N >= 2")
        coordinate_sigma2(self.entry)  # raises for uncertified entry laws

    @property
    def sigma2(self):
        return coordinate_sigma2(self.entry)

    @property
    def sigma_n2(self):
        """Spectral-gap constant of the ordered-eigenvalue distribution."""
        return 2.0 * self.sigma2 / self.size


@dataclass(frozen=True)
class EigenSample:
    """Ordered eigenvalues per draw, plus the discarded-draw count."""

    eigenvalues: np.ndarray  # (M, N), each row ascending
    discarded: int = 0

    @property
    def draws(self):
        return self.eigenvalues.shape[0]


@functools.cache
def _triangle_slots(n):
    """Flat indices j*n + i of the lower triangle of an n x n matrix, one for
    each (i, j) of ``triu_indices``: the triangle ``numpy.linalg.eigvalsh``
    (UPLO='L') reads. Read-only, and made once per n rather than in each
    thread's chunk (per-chunk copies raised wigner-lss peak RSS)."""
    i, slots = np.triu_indices(n)
    slots *= n
    slots += i
    slots.flags.writeable = False
    return slots


def _build_matrices(ens, seed, start, stop, out):
    """Draws start..stop-1 as one (k, N, N) batch in the first k rows of
    ``out``, a C-contiguous (>= k, N*N) float array: each draw writes its
    upper-triangle values, mirrored, into the lower triangle of its flat row
    of N*N entries, without 2-D fancy indexing. The strict upper triangle is
    not written, so it holds whatever ``out`` held: only eigvalsh may read
    the batch."""
    n = ens.size
    slots = _triangle_slots(n)
    flat = out[:stop - start]
    vals = np.empty(slots.size)
    root_n = sqrt(n)
    for row, draw in zip(flat, range(start, stop)):
        draw_coordinate(substream(seed, draw), ens.entry, slots.size, out=vals)
        vals /= root_n
        row[slots] = vals
    return flat.reshape(-1, n, n)


def _eig_chunk(ens, seed, start, stop, mats, eigs, kept):
    """Build draws start..stop-1 in the buffer ``mats`` and write their
    ordered eigenvalues to eigs[start:stop]; a draw the solver fails on is
    cleared in ``kept`` and costs only itself."""
    batch = _build_matrices(ens, seed, start, stop, mats)
    try:
        eigs[start:stop] = np.linalg.eigvalsh(batch)
    except np.linalg.LinAlgError:
        # retry one matrix at a time so a single bad draw only costs itself
        for draw, m in enumerate(batch, start):
            try:
                eigs[draw] = np.linalg.eigvalsh(m)
            except np.linalg.LinAlgError:
                kept[draw] = False


def sample_ensemble(ens, draws, seed):
    """Eigenvalue sample of ``draws`` independent matrices.

    Deterministic in (seed, draws): each draw owns a counter-keyed substream
    and the batched solver treats each matrix on its own, so neither the
    chunking nor the thread count can change the numbers. Draws are built
    and solved in ``_EIG_CHUNK``-draw chunks on ``worker_count()`` threads,
    which overlap only because eigvalsh lets go of the GIL on batches of 8
    or more matrices (see ``_EIG_CHUNK``). Each thread runs one task: it owns
    one matrix buffer and takes chunk starts from a queue until none is
    left, building each chunk's draws in its buffer and writing their
    eigenvalues into the chunk's rows of one (draws, N) array. One task per
    thread, not one future per chunk: a future holds about 1.7 kB of Python
    objects until the sample is done, 0.4 MB at 2000 draws in 8-draw chunks.
    The buffers (one per thread) and that array are allocated here, on the
    calling thread: memory a pool thread allocates likely stays in its own
    malloc arena, and on wigner-gaussian-n100 in-process run_config peaked
    (VmHWM) at 49.1-49.2 MB with 32-draw buffers made inside the threads
    against 45.5-46.0 MB from here. Every OpenBLAS runs at one thread
    meanwhile (``serial_blas``): inside a 100x100 solve a second BLAS thread
    only spins, while across chunks a second CPU builds and solves whole
    matrices. Solver failures discard the draw; more than 0.1% of them is an
    error.
    """
    if draws < 1:
        raise ValueError("need draws >= 1")
    todo = queue.SimpleQueue()
    for start in range(0, draws, _EIG_CHUNK):
        todo.put(start)
    workers = min(worker_count(), todo.qsize())
    _triangle_slots(ens.size)  # made here once, not by each pool thread at once
    buffers = [np.empty((min(_EIG_CHUNK, draws), ens.size * ens.size))
               for _ in range(workers)]
    eigs = np.empty((draws, ens.size))
    kept = np.ones(draws, dtype=bool)

    def solve(mats):
        while True:
            try:
                start = todo.get_nowait()
            except queue.Empty:
                return
            _eig_chunk(ens, seed, start, min(start + _EIG_CHUNK, draws), mats, eigs, kept)

    with serial_blas(), ThreadPoolExecutor(workers) as pool:
        list(pool.map(solve, buffers))
    discarded = draws - int(np.count_nonzero(kept))
    if discarded > MAX_DISCARD_FRACTION * draws:
        raise RuntimeError("eigensolver discarded %d of %d draws" % (discarded, draws))
    return EigenSample(eigs[kept] if discarded else eigs, discarded)


# -- statistics ------------------------------------------------------------------

def quadratic(coeffs):
    """(a0, a1, a2) of f = a0 + a1 x + a2 x^2 from ascending coefficients,
    refusing a nonzero one beyond x^2 (f'' unbounded on R) and a2 = 0."""
    if not isinstance(coeffs, list) or not coeffs or not all(map(is_finite_number, coeffs)):
        raise ValueError("coeffs must be a non-empty list of finite numbers: %r" % (coeffs,))
    if any(c != 0 for c in coeffs[3:]):
        raise MissingHypothesisError(
            "f'' is unbounded on R for polynomials of degree > 2; "
            "no exponential-moment certificate can be issued")
    f = tuple(float(c) for c in (coeffs + [0, 0])[:3])
    certified_fpp(f)
    return f


def certified_fpp(f):
    """|f''| = 2|a2| of f = (a0, a1, a2), the uniform bound both wigner-lss
    certificates need; it must be positive."""
    fpp = 2.0 * abs(f[2])
    if fpp <= 0:
        raise MissingHypothesisError("need a positive uniform bound on |f''|")
    if math.isinf(fpp):
        raise ValueError("|f''| = 2|a2| is past the float range for a2 = %r" % (f[2],))
    return fpp


def exact_sums(ens, f):
    """(sum_j E f(lambda_j), (E sum_j f'(lambda_j)^2)^(1/2)) in closed form.

    For f = a0 + a1 x + a2 x^2, sum_j f(lambda_j) = N a0 + a1 tr M + a2 |M|_F^2
    and sum_j f'(lambda_j)^2 = N a1^2 + 4 a1 a2 tr M + 4 a2^2 |M|_F^2; the
    N(N+1)/2 entries on and above the diagonal are i.i.d. over sqrt(N), so
    E tr M = sqrt(N) mu and E |M|_F^2 = N m2 with mu, m2 the entry law's exact
    first two moments. ValueError when either sum is past the float range:
    the centering and the tail certificate would read an inf or a nan.
    """
    (a0, a1, a2), n = f, ens.size
    trace = sqrt(n) * coordinate_moment(ens.entry, 1)
    frob2 = n * coordinate_moment(ens.entry, 2)
    grad2 = n * a1 * a1 + 4.0 * a1 * a2 * trace + 4.0 * a2 * a2 * frob2
    sums = (n * a0 + a1 * trace + a2 * frob2, sqrt(grad2))
    if not all(map(math.isfinite, sums)):
        raise ValueError("sum_j E f(lambda_j) = %r and grad_l2 = %r are not both "
                         "within the float range" % sums)
    return sums


def stat_second_moment(ens, f):
    """E S_N^2 in closed form, the variance of a1 tr M + a2 |M|_F^2: with m_k
    the entry law's raw moments, a1^2 (m2 - m1^2) + 2 a1 a2 (m3 - m1 m2)/sqrt(N)
    + a2^2 (2N - 1)/N (m4 - m2^2). Not finite when a moment is past the
    float range."""
    (_, a1, a2), n = f, ens.size
    m1, m2, m3, m4 = (coordinate_moment(ens.entry, k) for k in range(1, 5))
    return (a1 * a1 * (m2 - m1 * m1) + 2.0 * a1 * a2 * (m3 - m1 * m2) / sqrt(n)
            + a2 * a2 * (2 * n - 1) / n * (m4 - m2 * m2))


@dataclass(frozen=True)
class Calibration:
    """Independent-run estimates of the per-index E lambda_j and E f'(lambda_j),
    which S~_N needs and which have no closed form."""

    mean_lambda: np.ndarray
    mean_fprime: np.ndarray
    se_fprime: np.ndarray
    se_shift: float       # SE of sum_j mean_lambda_j * mean_fprime_j


def _row_blocks(eig):
    """(rows, block, scratch) over the rows of an (M, N) eigenvalue array, in
    order: ``block`` is eig[rows] and ``scratch`` a reused array of its shape.
    Blocks are about 64 KiB and a multiple of 32 rows, but for the last, and
    a lone last row joins the block before it. OpenBLAS's matrix-vector
    kernel (Haswell) takes rows in groups of four and numpy takes a one-row
    product another way, so each block product gives every row the bits of
    a whole-array product on one BLAS thread; on two, a whole-array product
    of an odd row count at N >= 300 gave the row where the threads split
    other last bits, while the block products kept them at every size tried."""
    m, n = eig.shape
    step = max(32, _BLOCK_BYTES // (8 * n) // 32 * 32)
    scratch = np.empty((min(step + 1, m), n))
    start = 0
    while start < m:
        stop = m if m - start <= step + 1 else start + step
        yield slice(start, stop), eig[start:stop], scratch[:stop - start]
        start = stop


def calibrate(ens, f, draws, seed):
    """Estimate E lambda_j and E f'(lambda_j) on a dedicated run.

    The seed must be independent of any evaluation seed (the certificates
    treat these as constants, so reusing draws would correlate the errors).
    Beside the eigenvalues it allocates one row block and per-index vectors,
    and keeps the bits of the whole-array fprime = f[1] + (2 f[2]) lambda,
    its mean and its std(axis=0, ddof=1): each block's fprime rows are added
    to one accumulator in draw order, as numpy's axis-0 sum adds them, the
    per-draw shift eig @ mean_fprime is taken a block at a time, and then
    the eigenvalues become fprime and its squared deviations in place, in
    the steps numpy's std takes.
    """
    if draws < MIN_CAL_DRAWS:
        raise ValueError("calibration needs at least %d draws" % MIN_CAL_DRAWS)
    eig = sample_ensemble(ens, draws, seed).eigenvalues
    m = eig.shape[0]
    a1, two_a2 = f[1], 2.0 * f[2]
    total = np.full(eig.shape[1], -0.0)  # -0.0 + x is x for every x
    for _, block, fprime in _row_blocks(eig):
        np.multiply(block, two_a2, out=fprime)
        fprime += a1
        for row in fprime:
            total += row
    mean_lambda, mean_fprime = eig.mean(axis=0), total / m
    shift_per_draw = np.empty(m)
    for rows, block, _ in _row_blocks(eig):
        np.matmul(block, mean_fprime, out=shift_per_draw[rows])
    eig *= two_a2
    eig += a1
    eig -= mean_fprime
    np.square(eig, out=eig)
    se_fprime = eig.sum(axis=0) / (m - 1)
    np.sqrt(se_fprime, out=se_fprime)
    return Calibration(mean_lambda, mean_fprime, se_fprime / sqrt(m),
                       float(shift_per_draw.std(ddof=1)) / sqrt(m))


def draw_statistics(ens, sample, f, cal):
    """(S_N, S~_N, shift bound) of an evaluation sample, in one pass over it.

    Each row block is read once, into the one scratch, in three steps:
    S_N = sum_j f(lambda_j) - sum_j E f(lambda_j), centered exactly, with f
    evaluated as a0 + (a1 + a2 lambda) lambda; then lambda - E lambda and its
    product with E f'(lambda), the first-order fluctuation S~_N subtracts
    from S_N; then that difference squared and summed per draw.

    The shift bound is a conservative bound on how far calibration error can
    shift any S~_N. Two first-order contributions: the error of the fixed
    shift sum_j E lambda_j * E f'(lambda_j), and (by Cauchy-Schwarz over the
    per-draw fluctuations) the per-index errors of E f'(lambda_j).
    """
    (a0, a1, a2), eig = f, sample.eigenvalues
    s_n, shift, fluct2 = (np.empty(eig.shape[0]) for _ in range(3))
    for rows, block, x in _row_blocks(eig):
        np.multiply(block, a2, out=x)
        x += a1
        x *= block
        x += a0
        x.sum(axis=1, out=s_n[rows])
        np.subtract(block, cal.mean_lambda, out=x)
        np.matmul(x, cal.mean_fprime, out=shift[rows])
        x *= x
        x.sum(axis=1, out=fluct2[rows])
    s_n -= exact_sums(ens, f)[0]
    fluct = sqrt(float(np.mean(fluct2)))
    bound = cal.se_shift + fluct * sqrt(float(np.sum(cal.se_fprime**2)))
    return s_n, np.subtract(s_n, shift, out=shift), bound


def exp_calibration_slack(rate, shift_bound):
    """Relative SE-style slack on an exp-moment estimate from a uniform
    statistic shift, to be multiplied by the estimate:

    |exp(a|s+eps|^(1/2)) - exp(a|s|^(1/2))| <= (exp(a*sqrt(|eps|)) - 1) * exp(a|s|^(1/2)).
    """
    return math.exp(rate * sqrt(max(shift_bound, 0.0))) - 1.0


def rmt_certificates(ens, f):
    """(exp-moment certificate for S~_N, tail certificate for S_N), route wigner-lss.

    The exp-moment rate is c N^(1/4) / (sqrt(2) sigma ||f''||^(1/2)) with
    sigma the entry-law constant; the tail curve reads the closed-form
    (E sum_j f'(lambda_j)^2)^(1/2) of ``exact_sums``. No constant is estimated.
    """
    fpp = certified_fpp(f)
    sigma = sqrt(ens.sigma2)
    n = ens.size
    rate = EXP_MOMENT_COEFF * n**0.25 / (sqrt(2.0) * sigma * sqrt(fpp))
    exp_cert = Certificate(
        "expMoment", "wigner-lss",
        {"c": EXP_MOMENT_COEFF, "sigma": sigma, "matrix_size": n, "fpp_inf": fpp,
         "sigma_n2": ens.sigma_n2, "rate": rate, "power": 0.5,
         "threshold": EXP_THRESHOLD})
    tail_cert = Certificate(
        "tail", "wigner-lss",
        {"sigma": sigma, "d": 2, "matrix_size": n,
         "grad_l2": exact_sums(ens, f)[1], "fpp_inf": fpp})
    return exp_cert, tail_cert
