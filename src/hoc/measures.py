"""Product probability measures with certified spectral-gap constants.

The catalog ships gaussian, laplace, exponential, uniform01 (classical
spectral-gap constants, re-certified numerically) and a heavy-tailed
Student-type demo density proportional to (1+x^2)^(-beta). The Student-type
law has polynomial tails, so it admits no unweighted spectral-gap constant;
it is served by the weighted route with weight w(x) = kappa*sqrt(1+x^2) and
the closed form kappa = (2(beta-1))^(-1/2) (Bobkov & Ledoux 2009; the README
derives it).

The oracle discretizes -(p u')' = lambda p u with a symmetric
finite-difference scheme on a truncated interval, symmetrizes to a
tridiagonal eigenproblem, and reports the smallest nonzero eigenvalue with a
grid-doubling stability flag. It has no weighted form: the tests keep their
own weighted solve as the reference for the closed-form kappa.

Sampling is deterministic: a counter-based Philox stream per 65536-row block
(``SAMPLE_BLOCK``), keyed by (seed, block index), so results do not depend on
how work is split. Each block is drawn one coordinate column at a time. A
column may be drawn in consecutive pieces from the same generator, which
continue its stream and give the same values: ``stream``, the one function
that draws an evaluation sample, draws each column in ``EVAL_BLOCK``-row
pieces (``draw_coordinate``) into a small pool of slots and hands each row
chunk to a caller's ``evaluate`` as soon as its pieces are in, so it holds
neither an (m, dim) array nor a whole block. The block size is part of the
stream layout: changing it changes every sample. It is not sized for the
cache; EVAL_BLOCK is, and divides it.

scipy is imported on first use, by the oracle's tridiagonal eigensolve
(``_gap_once``) alone. Only the ``catalog-oracle`` kind reaches it, so
``import hoc`` and every other kind load no scipy.
"""

from __future__ import annotations

import math
import queue
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from ._util import (EVAL_BLOCK, SAMPLE_BLOCK, is_finite_number, is_integer, require_all,
                    substream)

# each catalog law and the parameters it reads (draw_coordinate,
# coordinate_sigma2, coordinate_moment); a law given any other is refused
LAW_PARAMS = {"gaussian": (), "laplace": ("scale",), "exponential": ("scale",),
              "uniform01": (), "student": ("beta",)}
CATALOG = tuple(LAW_PARAMS)

# Certification intervals and base grids for the plain spectral-gap oracle.
# Chosen so truncation + discretization error stays below the 1e-3 catalog
# tolerance; the truncated tail mass is far below the 1e-10 requirement.
ORACLE_DOMAINS = {
    "gaussian": (-12.0, 12.0, 4001),
    "uniform01": (0.0, 1.0, 2001),
    "exponential": (0.0, 260.0, 20001),
    "laplace": (-260.0, 260.0, 40001),
}


class UncertifiedConstantError(ValueError):
    """No certified spectral-gap constant is available for this measure."""


@dataclass(frozen=True)
class CoordinateDist:
    """One coordinate law: a catalog tag plus its parameters."""

    dist: str
    params: tuple = ()

    def __post_init__(self):
        if self.dist not in CATALOG:
            raise ValueError("unknown distribution tag %r" % (self.dist,))
        if not set(self.params_dict) <= set(LAW_PARAMS[self.dist]):
            raise ValueError("the %s law reads %s, got %s" % (
                self.dist, list(LAW_PARAMS[self.dist]) or "no parameters",
                sorted(self.params_dict)))
        if not self.scale > 0.0:
            raise ValueError("scale must be positive, got %r" % (self.scale,))
        if not self.beta > 0.5:  # else (1+x^2)^(-beta) has no finite mass
            raise ValueError("beta must be > 0.5, got %r" % (self.beta,))

    @classmethod
    def make(cls, dist, **params):
        return cls(dist, tuple(sorted(params.items())))

    @classmethod
    def from_dict(cls, data):
        if not set(data) <= {"dist", "params"}:
            raise ValueError("a coordinate law takes only dist and params, got %s" % sorted(data))
        return cls.make(data["dist"], **data.get("params", {}))

    @property
    def params_dict(self):
        return dict(self.params)

    def _param(self, name, default):
        value = self.params_dict.get(name, default)
        if not is_finite_number(value):  # a bool or a string is no number here
            raise ValueError("%s must be a finite number, got %r" % (name, value))
        return float(value)

    @property
    def scale(self):
        return self._param("scale", 1.0)

    @property
    def beta(self):
        return self._param("beta", 10.0)


@dataclass(frozen=True)
class MeasureSpec:
    """Product measure: one law per coordinate."""

    dim: int
    coords: tuple

    def __post_init__(self):
        if self.dim < 1 or len(self.coords) != self.dim:
            raise ValueError("need one coordinate law per dimension")

    def sigma2(self):
        """Product spectral-gap constant: max over coordinates."""
        return max(coordinate_sigma2(c) for c in self.coords)

    def sigma(self):
        return sqrt(self.sigma2())

    def moment(self, i, k):
        """Exact raw moment E X_i^k (math.inf when divergent)."""
        return coordinate_moment(self.coords[i], k)

    def to_dict(self):
        return {"dim": self.dim,
                "coords": [{"dist": c.dist, "params": c.params_dict} for c in self.coords]}

    @classmethod
    def from_dict(cls, data):
        if not set(data) <= {"dim", "coords"}:
            raise ValueError("a measure takes only dim and coords, got %s" % sorted(data))
        require_all(is_integer, "a measure's dim must be an integer", [data["dim"]])
        return cls(data["dim"], tuple(map(CoordinateDist.from_dict, data["coords"])))


# -- spectral-gap constants ---------------------------------------------------

def coordinate_sigma2(coord):
    """Certified spectral-gap constant of one coordinate law.

    Classical values: gaussian 1, uniform01 1/pi^2, exponential(b) 4b^2,
    laplace(b) 4b^2; ValueError when 4b^2 is past the float range or below
    the smallest normal float (a subnormal keeps only a few significant
    bits, and 0 none). The Student-type demo law has polynomial tails and
    no unweighted constant; ask the weighted route (student_weight_kappa).
    """
    if coord.dist == "gaussian":
        return 1.0
    if coord.dist == "uniform01":
        return 1.0 / pi**2
    if coord.dist in ("exponential", "laplace"):
        try:
            sigma2 = 4.0 * coord.scale**2
        except OverflowError:  # scale**2 past the float range
            sigma2 = math.inf
        if math.isinf(sigma2) or sigma2 < sys.float_info.min:
            raise ValueError("the spectral-gap constant 4 b^2 of %s(b = %r) is %s"
                             % (coord.dist, coord.scale,
                                "past the float range" if math.isinf(sigma2) else
                                "%r, below the smallest normal float" % sigma2 if sigma2 else
                                "0 in floating point"))
        return sigma2
    raise UncertifiedConstantError(
        "no unweighted spectral-gap constant for %r; use the weighted route" % (coord.dist,))


def coordinate_moment(coord, k):
    """Exact raw moment E X^k of a catalog coordinate law."""
    k = int(k)
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    if k == 0:
        return 1.0
    if coord.dist == "gaussian":
        if k % 2:
            return 0.0
        out = 1.0
        for j in range(1, k, 2):
            out *= j
        return out
    if coord.dist == "uniform01":
        return 1.0 / (k + 1)
    if coord.dist == "exponential":
        return _factorial_power(k, coord.scale)
    if coord.dist == "laplace":
        if k % 2:
            return 0.0
        return _factorial_power(k, coord.scale)
    if coord.dist == "student":
        # scaled t with nu = 2*beta - 1 degrees of freedom
        if k % 2:
            nu = 2.0 * coord.beta - 1.0
            return 0.0 if k < nu else math.inf
        nu = 2.0 * coord.beta - 1.0
        if k >= nu:
            return math.inf
        out = 1.0
        for j in range(1, k // 2 + 1):
            out *= (2 * j - 1) / (nu - 2 * j)
        return out
    raise ValueError("unknown distribution tag %r" % (coord.dist,))


def _factorial_power(k, scale):
    """k! scale^k: the float expression while k! is a float (k <= 170) and it
    does not overflow, else the correctly rounded exact product (inf past the
    float range)."""
    if k <= 170:
        try:
            return math.factorial(k) * scale**k
        except OverflowError:  # scale**k past the float range
            pass
    from fractions import Fraction  # here only: it imports decimal

    try:
        return float(math.factorial(k) * Fraction(scale) ** k)
    except OverflowError:
        return math.inf


# -- sampling -----------------------------------------------------------------

def draw_coordinate(rng, coord, size, out=None):
    """Draw ``size`` values of one coordinate law from a caller-owned stream.

    With ``out`` (a contiguous float64 array of ``size`` values) the draws go
    there and ``out`` is returned; the values are the same either way. The
    gaussian, uniform01 and exponential laws draw straight into it.
    """
    if coord.dist == "gaussian":
        return rng.standard_normal(size, out=out)
    if coord.dist == "uniform01":
        return rng.random(size, out=out)
    if coord.dist == "exponential":
        return np.multiply(coord.scale, rng.standard_exponential(size, out=out), out=out)
    if coord.dist == "student":
        nu = 2.0 * coord.beta - 1.0
        return np.divide(rng.standard_t(nu, size), sqrt(nu), out=out)
    if coord.dist != "laplace":
        raise ValueError("unknown distribution tag %r" % (coord.dist,))
    vals = rng.laplace(0.0, coord.scale, size)
    if out is None:
        return vals
    out[...] = vals
    return out


def stream(spec, m, seed, evaluate, consume):
    """Call ``consume(start, values)`` at each EVAL_BLOCK-row chunk of the m
    rows of sample (spec, seed), in order: ``start`` is the chunk's first
    row, and ``values`` is zeros to which ``evaluate(cols, values)`` added
    the chunk's values, coordinate i of its rows in ``cols[i]``.

    Block b of SAMPLE_BLOCK rows comes from substream (seed, b), drawn column
    by column, each column in EVAL_BLOCK-row pieces: consecutive draws from
    one generator continue its stream, so the values do not depend on the
    piece size. One worker thread draws each piece into a free slot of a
    pool allocated here once, and as soon as the last column's piece of a
    row chunk is drawn, this thread evaluates the chunk from its dim slots,
    hands the values on and frees the slots. The draws are column-major and
    the evaluation row-major, so any free slot takes any piece. The pool
    holds one block of pieces plus one chunk row, dim * (SAMPLE_BLOCK //
    EVAL_BLOCK + 1) slots, or the pieces the run draws if fewer: the worker
    can finish a block while the first chunk of the one before is evaluated,
    and numpy's generators fill without the GIL, so the draws overlap the
    evaluation. A filler's exception is raised here; a consumer's exception
    stops the filler after the piece in flight; the thread is joined before
    either propagates.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    per_block = SAMPLE_BLOCK // EVAL_BLOCK
    chunks = [(start, min(EVAL_BLOCK, m - start)) for start in range(0, m, EVAL_BLOCK)]
    slots = np.empty((spec.dim * min(per_block + 1, len(chunks)), min(m, EVAL_BLOCK)))
    free, ready, stop = queue.SimpleQueue(), queue.SimpleQueue(), threading.Event()
    for slot in range(len(slots)):
        free.put(slot)

    def fill():
        try:
            for first in range(0, len(chunks), per_block):
                rng = substream(seed, first // per_block)
                block = chunks[first:first + per_block]
                held = [[] for _ in block]
                for coord in spec.coords:
                    for pieces, (_, rows) in zip(held, block):
                        slot = free.get()
                        if stop.is_set():
                            return
                        pieces.append(slot)
                        draw_coordinate(rng, coord, rows, out=slots[slot, :rows])
                        if len(pieces) == spec.dim:
                            ready.put(pieces)
        except BaseException:
            ready.put(None)
            raise

    with ThreadPoolExecutor(1) as pool:
        filler = pool.submit(fill)
        try:
            for start, rows in chunks:
                pieces = ready.get()
                if pieces is None:
                    filler.result()
                values = np.zeros(rows)
                evaluate([slots[slot, :rows] for slot in pieces], values)
                consume(start, values)
                for slot in pieces:
                    free.put(slot)
        finally:
            stop.set()
            free.put(0)  # wakes a filler waiting for a slot, which then sees stop


def stream_values(spec, m, seed, evaluate):
    """The m values ``stream`` hands on, in one array (for the checks that
    read every value)."""
    out = np.empty(m)

    def store(start, values):
        out[start:start + values.size] = values

    stream(spec, m, seed, evaluate, store)
    return out


# -- spectral-gap oracle --------------------------------------------------------

@dataclass(frozen=True)
class GapResult:
    """Smallest nonzero Neumann eigenvalue and the implied constant 1/lambda1."""

    lambda1: float
    sigma2: float
    stable: bool
    ladder: tuple  # rows (gridpoints, lambda1, sigma2)
    interval: tuple


def _gap_once(density, lo, hi, gridpoints):
    from scipy.linalg import eigh_tridiagonal

    x = np.linspace(lo, hi, gridpoints)
    h = x[1] - x[0]
    mid = 0.5 * (x[:-1] + x[1:])
    p_mid = np.asarray(density(mid), dtype=np.float64)
    p_node = np.asarray(density(x), dtype=np.float64)
    if np.any(p_node <= 0.0) or np.any(p_mid < 0.0):
        raise ValueError("density must be positive on the interval")
    # -(p u')' = lambda p u with zero-flux ends; symmetrize by D^(-1/2) A D^(-1/2)
    flux = p_mid / h**2
    diag = np.empty(gridpoints)
    diag[0] = flux[0]
    diag[-1] = flux[-1]
    diag[1:-1] = flux[:-1] + flux[1:]
    mass = p_node.copy()
    mass[0] *= 0.5
    mass[-1] *= 0.5
    d_sym = diag / mass
    e_sym = -flux / np.sqrt(mass[:-1] * mass[1:])
    vals = eigh_tridiagonal(d_sym, e_sym, select="i", select_range=(0, 1),
                            eigvals_only=True)
    return float(vals[1])


def spectral_gap_oracle(density, lo, hi, gridpoints):
    """Certify the spectral-gap constant of a 1-D density on [lo, hi].

    Solves the discretized Neumann problem at ``gridpoints`` and at double
    resolution; flags the result unreliable when the two disagree by more
    than 1e-3 relative.
    """
    if gridpoints < 200:
        raise ValueError("need at least 200 gridpoints")
    if not hi > lo:
        raise ValueError("empty interval")
    ladder = []
    lam_coarse = _gap_once(density, lo, hi, gridpoints)
    ladder.append((gridpoints, lam_coarse, 1.0 / lam_coarse))
    fine = 2 * gridpoints - 1
    lam_fine = _gap_once(density, lo, hi, fine)
    ladder.append((fine, lam_fine, 1.0 / lam_fine))
    stable = abs(lam_fine - lam_coarse) <= 1e-3 * abs(lam_fine)
    return GapResult(lam_fine, 1.0 / lam_fine, stable, tuple(ladder), (lo, hi))


def density_function(coord):
    """Density callable of a catalog coordinate law."""
    if coord.dist == "gaussian":
        return lambda x: np.exp(-0.5 * np.asarray(x) ** 2) / sqrt(2.0 * pi)
    if coord.dist == "uniform01":
        return lambda x: np.ones_like(np.asarray(x, dtype=np.float64))
    if coord.dist == "exponential":
        b = coord.scale
        return lambda x: np.exp(-np.asarray(x) / b) / b
    if coord.dist == "laplace":
        b = coord.scale
        return lambda x: np.exp(-np.abs(np.asarray(x)) / b) / (2.0 * b)
    if coord.dist == "student":
        beta = coord.beta
        c = math.exp(math.lgamma(beta) - math.lgamma(beta - 0.5) - 0.5 * math.log(pi))
        return lambda x: c * (1.0 + np.asarray(x) ** 2) ** (-beta)
    raise ValueError("unknown distribution tag %r" % (coord.dist,))


def catalog_oracle(coord):
    """Run the oracle on a catalog law at its pinned certification interval.

    A law of scale b is the unit law dilated by b, whose lambda1 is
    lambda1(1) / b^2: the oracle solves the unit law, whose grid no b can
    overflow, and dilates the result (exactly the unit one at b = 1).
    """
    if coord.dist == "student":
        raise UncertifiedConstantError(
            "the Student-type law has no unweighted constant; "
            "use student_weight_kappa for the weighted route")
    lo, hi, grid = ORACLE_DOMAINS[coord.dist]
    unit = spectral_gap_oracle(density_function(CoordinateDist(coord.dist)), lo, hi, grid)
    b, b2 = coord.scale, coord.scale**2
    return GapResult(unit.lambda1 / b2, unit.sigma2 * b2, unit.stable,
                     tuple((g, lam / b2, s2 * b2) for g, lam, s2 in unit.ladder),
                     (lo * b, hi * b))


# -- Student-type weighted demo ------------------------------------------------

# Above this beta the gamma difference in student_weight_moment loses digits:
# against 50-digit references it is within 2.4e-12 relative for the q checked
# up to beta = 1000, 3e-9 at 1e6 and 6e-7 at 1e8, so the weighted kinds refuse more.
STUDENT_BETA_MAX = 1000.0


def student_weight_kappa(beta=10.0):
    """kappa = (2(beta-1))^(-1/2), so that w(x) = kappa*sqrt(1+x^2) is a
    valid weight: Var(f) <= E |f'|^2 w^2 under the Student-type law. The
    constant is exact, and x attains it; it needs beta > 3/2, for x to have
    a finite variance (the README derives it)."""
    if not beta > 1.5:
        raise ValueError("the weighted constant needs beta > 3/2, got %r" % (beta,))
    return (2.0 * (beta - 1.0)) ** -0.5


def student_weight_moment(beta, q):
    """Exact E (1+X^2)^q under the Student-type law (gamma closed form)."""
    if q >= beta - 0.5:
        return math.inf
    return math.exp(math.lgamma(beta) + math.lgamma(beta - q - 0.5)
                    - math.lgamma(beta - 0.5) - math.lgamma(beta - q))


def student_weight_norm(beta, kappa, p, dim=1):
    """Upper bound on ||w||_p for the demo weight, exact for dim=1.

    dim = 1: kappa * (E (1+X^2)^(p/2))^(1/p) exactly. dim > 1 uses the
    max-coordinate convention and the union bound
    E (1+max_i X_i^2)^(p/2) <= dim * E (1+X^2)^(p/2).
    """
    m = student_weight_moment(beta, p / 2.0)
    if math.isinf(m):
        return math.inf
    return kappa * (dim * m) ** (1.0 / p)


# -- Monte Carlo weight norms (spec'd estimator with divergence flag) -----------

def student_weight(cols, kappa):
    """The demo weight kappa*sqrt(1 + max_i x_i^2) at each row, coordinate i
    of the rows in ``cols[i]`` (a batch's ``pts.T``, or a chunk of
    ``stream``)."""
    top = np.square(cols[0])
    for col in cols[1:]:
        np.maximum(top, np.square(col), out=top)
    return kappa * np.sqrt(1.0 + top)


@dataclass(frozen=True)
class WeightedNormEstimate:
    value: float
    se: float
    diverged: bool


def weighted_norm(spec, kappa, p, m, seed):
    """Monte Carlo ||w||_p of the demo weight on 4m draws of ``spec``.

    The draws are the first 4m rows of sample (spec, seed), streamed
    (``stream_values``), so only the 4m values of w^p are held. Flags
    ``diverged`` when the last 2m draws still move the estimate by more
    than 10% relative; divergent weight moments keep drifting upward.
    """
    if p < 1:
        raise ValueError("need p >= 1")

    def add_weight_power(cols, out):
        out += student_weight(cols, kappa) ** p

    w = stream_values(spec, 4 * m, seed, add_weight_power)
    mean = float(np.mean(w))
    est = mean ** (1.0 / p)
    half = float(np.mean(w[:2 * m])) ** (1.0 / p)
    se = float(np.std(w, ddof=1)) / sqrt(w.size) * est / (p * mean) if mean > 0 else 0.0
    return WeightedNormEstimate(est, se, abs(est - half) > 0.1 * abs(est))
