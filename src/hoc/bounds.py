"""Concentration bounds as explicit, checkable certificates.

Everything here evaluates a closed-form right-hand side from one record,
the derivative ``Ladder`` (sigma, d, rungs n_1..n_(d-1), top n_d) of a
function under a measure with Poincare constant sigma. For a polynomial
under a product law the rungs are exact moments (``exact_hs_rungs``) and
the top's operator norm is read at the origin (``constant_top_op``); no
rung is sampled. The right-hand sides are the ladder's iterated moment
bound (``Ladder.moment``), exponential-moment certificates (with automatic
rescaling when the normalization hypotheses fail by a factor lambda,
``Ladder.rescale``), the ladder's tail curve (``Ladder.tail``, Markov on
``moment``), and the weighted variants for measures that only satisfy a
weighted spectral-gap inequality. Multilinear forms in independent centered
coordinates read their ladder off the coefficient tensor. The hypotheses
a certificate assumes (E f = 0, centered derivatives on ladder-hs, finite
rungs) are checked once, by ``experiments.resolve``, which also computes
the rungs there. The centering test and the rungs read one numpy table of
the partials of each order (``polynomials.partial_table``), the table whose
rows ``PolyFunction.derivative_dense`` evaluates for the top.

Certificates carry a ``route`` label naming the bound family (ladder-inf,
ladder-hs, ladder-tail, weighted-tail, multilinear-hs, multilinear-inf,
wigner-lss) plus every constant needed to re-evaluate them. The
weighted-ladder moment bounds are plain numbers, not certificates.

Every tail route but weighted-tail is ``Ladder.tail`` of the ladder its
constants give (``_ladder``):

  ladder-tail      Ladder(sigma, d, hs2, top_hs), the exact HS rungs
  multilinear-hs   Ladder(sigma, d, (a / sqrt((d-k)!))_(k<d), a), a = hs_norm
  multilinear-inf  the same with a = dim_n^(d/2) * max_entry >= hs_norm
  wigner-lss       Ladder(sigma sqrt(2/N), 2, (grad_l2,), sqrt(N) * fpp_inf)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from math import e, sqrt

import numpy as np

from .polynomials import partial_table
from .tensors import multinomial, op_norms

EXP_MOMENT_COEFF = 1.0 / (12.0 * e)  # universal constant in the exp-moment certificates
EXP_THRESHOLD = 2.0
EXP_MOMENT_ROUTES = ("ladder-inf", "ladder-hs")  # the routes exp_moment_certificate takes
MARKOV_P = np.geomspace(2.0, 4000.0, 4000)  # the p at which Ladder.tail tries Markov

_SQRT2 = sqrt(2.0)


class MissingHypothesisError(ValueError):
    """A certificate was requested for a function violating its hypotheses."""


# -- the derivative ladder ---------------------------------------------------------

@dataclass(frozen=True)
class Ladder:
    """The derivative ladder of one function under one measure.

    sigma is the measure's Poincare constant. rungs[k-1] = n_k bounds the L2
    norm of the pointwise operator norm of the order-k derivative,
    k = 1..d-1, and top = n_d bounds the operator norm of the order-d
    derivative uniformly.
    """

    sigma: float
    d: int
    rungs: tuple
    top: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if len(self.rungs) != self.d - 1:
            raise ValueError("need one rung per order 1..d-1")
        for v in self.rungs:
            if not (math.isfinite(v) and v >= 0):
                raise ValueError("rungs must be finite and nonnegative")
        if not self.top >= 0:
            raise ValueError("top must be nonnegative")

    def moment(self, p):
        """Bound on ||f - E f||_p for p >= 2, a number or an array of them.

        The Poincare moment inequality ||g - E g||_p <= (sigma p / sqrt 2)
        ||grad g||_p bounds ||f - E f||_p by (sigma p / sqrt 2) || |f'|_op ||_p.
        Applied to g = |f^(k)|_op, whose gradient is at most |f^(k+1)|_op and
        whose mean is at most n_k, it gives || |f^(k)|_op ||_p <= n_k +
        (sigma p / sqrt 2) || |f^(k+1)|_op ||_p, and at k = d the top bounds
        the norm. So the bound is the sum over k < d of (sigma p / sqrt 2)^k
        n_k plus (sigma p / sqrt 2)^d top.
        """
        if np.any(np.less(p, 2)):
            raise ValueError("the iterated moment bound needs p >= 2")
        base = self.sigma * p / _SQRT2
        total = sum(base**k * self.rungs[k - 1] for k in range(1, self.d))
        return total + base**self.d * self.top

    def tail(self, t):
        """Markov on ``moment``, P(|f - E f| >= t) <= (M(p) / t)^p, at t >= 0,
        uncapped, at the best p of the fixed grid MARKOV_P: it never rises in t."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_ratio = np.log(self.moment(MARKOV_P)) - np.log(np.expand_dims(t, -1))
            return np.exp(np.min(MARKOV_P * log_ratio, axis=-1))

    def rescale(self):
        """The least lambda >= 1 whose f / lambda has a normalized ladder:
        top <= lambda and n_k <= lambda sigma^(d-k) for k < d."""
        return max(1.0, self.top, max((nk / self.sigma ** (self.d - k)
                                       for k, nk in enumerate(self.rungs, start=1)),
                                      default=0.0))


# -- certificates ----------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """One checkable claim: a tail curve or an exp-moment cap.

    kind is "tail" or "expMoment". route names the bound family.
    constants holds every number the evaluators need; rescale_lambda reports
    the factor by which the function was divided to restore the hypotheses
    (bounds then apply to f / rescale_lambda).
    """

    kind: str
    route: str
    constants: dict = field(default_factory=dict)
    rescale_lambda: float = 1.0

    def __post_init__(self):
        if self.kind not in ("tail", "expMoment"):
            raise ValueError("unknown certificate kind %r" % (self.kind,))

    # ---- exp-moment interface

    def exp_params(self):
        """(rate a, power r, threshold): the claim is E exp(a|f|^r) <= threshold."""
        if self.kind != "expMoment":
            raise ValueError("not an exp-moment certificate")
        c = self.constants
        return float(c["rate"]), float(c["power"]), float(c["threshold"])

    # ---- tail interface

    def tail_bound(self, t):
        """Upper bound on P(|f| >= t); accepts scalars or arrays, capped at 1.

        A certificate issued for f / rescale_lambda bounds P(|f| >= t) by its
        curve at t / rescale_lambda.
        """
        if self.kind != "tail":
            raise ValueError("not a tail certificate")
        t_arr = np.asarray(t, dtype=np.float64) / self.rescale_lambda
        val = _tail_eval(self.route, self.constants, np.maximum(t_arr, 0.0))
        out = np.where(t_arr <= 0.0, 1.0, np.minimum(1.0, val))
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    # ---- serialization

    def to_dict(self):
        return {"kind": self.kind, "route": self.route,
                "constants": dict(self.constants), "rescale_lambda": self.rescale_lambda}


def _tail_eval(route, c, t):
    if route == "weighted-tail":
        d, p = c["d"], c["p"]
        scale = 2.0 ** ((d + 5) / 2.0) * c["C"]
        inside = np.exp(np.clip(-d * np.power(t, 1.0 / d) / (scale * e), -745.0, 0.0))
        with np.errstate(divide="ignore"):
            beyond = np.where(t > 0, ((scale * p) ** d / np.maximum(t, 1e-300)) ** p, np.inf)
        return c["prefactor"] * np.where(t <= c["window_end"], inside, beyond)
    return _ladder(route, c).tail(t)


def _ladder(route, c):
    """The Ladder behind a tail route's constants, as tabled in the module
    docstring (wigner-lss reads no d). A multilinear d-form in independent,
    centered, unit-variance coordinates has E |f^(k)|_HS^2 = hs^2 / (d-k)!."""
    if route == "ladder-tail":
        return Ladder(c["sigma"], c["d"], tuple(c["hs2"]), c["top_hs"])
    if route in ("multilinear-hs", "multilinear-inf"):
        d = c["d"]
        a = (c["hs_norm"] if route == "multilinear-hs"
             else c["dim_n"] ** (d / 2.0) * c["max_entry"])
        return Ladder(c["sigma"], d, tuple(a / sqrt(math.factorial(d - k))
                                           for k in range(1, d)), a)
    if route == "wigner-lss":
        n = c["matrix_size"]
        return Ladder(c["sigma"] * sqrt(2.0 / n), 2, (c["grad_l2"],), sqrt(n) * c["fpp_inf"])
    raise ValueError("no tail evaluator for route %r" % (route,))


# -- exponential-moment certificates ------------------------------------------------

def exp_moment_certificate(ladder, top_inf, route, top_inf_exact):
    """Certificate that E exp(rate * |f|^(1/d)) <= 2 for a centered f.

    ``ladder`` holds the exact HS rungs and top (``exact_hs_rungs``), top_inf
    the operator norm of the constant top derivative (``constant_top_op``),
    and top_inf_exact whether that norm is exact. Route "ladder-inf" needs
    the rungs below sigma^(d-k) and top_inf below 1; route "ladder-hs" needs
    every derivative of order < d centered and reads the HS top. The caller
    has checked E f = 0 and, on ladder-hs, the centered derivatives.
    Hypotheses failing by a factor are absorbed by rescaling: the
    certificate is issued for f / rescale_lambda, equivalently the rate
    already includes the lambda^(-1/d) factor so the claim holds for f itself.
    """
    if route not in EXP_MOMENT_ROUTES:
        raise ValueError("unknown exp-moment route %r" % (route,))
    if route == "ladder-inf":
        lam = replace(ladder, top=top_inf).rescale()
        used = {"norms2": list(ladder.rungs), "top_inf": top_inf}
    else:
        lam = max(1.0, top_inf, ladder.top)
        used = {"top_hs": ladder.top, "top_inf": top_inf}
    sigma, d = ladder.sigma, ladder.d
    rate = EXP_MOMENT_COEFF / (sigma * lam ** (1.0 / d))
    constants = {"c": EXP_MOMENT_COEFF, "sigma": sigma, "d": d,
                 "rate": rate, "power": 1.0 / d, "threshold": EXP_THRESHOLD,
                 "top_inf_exact": top_inf_exact}
    constants.update(used)
    return Certificate("expMoment", route, constants, rescale_lambda=lam)


# -- tail bounds -------------------------------------------------------------------

# Term pairs that exact_hs_rungs squares in one numpy pass: each order's
# canonical partials go through in runs of at most this many pairs (a partial
# with more takes a run alone), so the pass's temporaries stay at a few
# megabytes whatever the polynomial. The 120-term n=10, d=3 chaos needs
# 12960 pairs at order 1, the most of its three orders, and peaks at 1.1 MB
# of numpy temporaries; the 1140-term n=20 chaos peaks at 4.1 MB.
_PAIR_BLOCK = 1 << 15


def exact_hs_rungs(f, mspec, d):
    """(hs2, top_hs): the exact rungs n_k = (E |f^(k)|_HS^2)^(1/2) under
    ``mspec``, hs2 = (n_1, ..., n_(d-1)) and top_hs = n_d.

    |f^(k)|_HS^2 is the sum over canonical index tuples of their multiplicity
    times the squared partial, so n_k^2 is that sum of exact second moments.
    Pointwise |T|_op <= |T|_HS, so n_k bounds the L2 norm of |f^(k)|_op, and
    for a constant order-d derivative n_d bounds its sup operator norm.

    Each order is one numpy pass over ``f.terms`` (``_hs_square``) that does
    the sums of the term-by-term polynomial algebra -- each canonical
    partial, its square and that square's expectation, the reference the
    tests keep -- in the same floating-point order, so the rungs are the bits
    that algebra gives. A divergent moment that a square needs makes its
    rung inf: E g^2 >= 0.
    """
    exps, coeffs, moments = _term_moments(f, mspec)
    codes = _exponent_codes(exps, moments.shape[1])
    rungs = [sqrt(_hs_square(exps, coeffs, codes, moments, k)) for k in range(1, d + 1)]
    return tuple(rungs[:-1]), rungs[-1]


def centering(f, mspec, d):
    """(E f, whether E f = 0, whether every partial of order 1..d-1 has
    mean 0) under ``mspec``, from exact expectations: each partial's
    ``partial_table`` rows times E X_i^p, in the floating-point order of a
    term-by-term expectation (coordinates ascending, each term's product
    stopped at its first 0). A mean counts as 0 when it is within
    1e-12 * max(1, sum of its terms' |coefficient * E X^alpha|), since a
    moment such as E X^38 = 37!! is rounded at every step of its product
    and a coefficient that cancels it is rounded once. A divergent moment
    makes a mean inf or NaN, never 0; a divergent E f reads inf."""
    exps, coeffs, moments = _term_moments(f, mspec)
    zero = []
    for k in range(d):
        _, alpha, a_of, t_of, c = partial_table(exps, coeffs, k)
        mean, scale = np.zeros(len(alpha)), np.zeros(len(alpha))
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(f.dim):
                c *= moments[i, exps[t_of, i] - alpha[a_of, i]]
            np.add.at(mean, a_of, c)
            np.add.at(scale, a_of, np.abs(c))
        if k == 0:
            mean_f = float(mean[0])
        bound = 1e-12 * np.maximum(scale, 1.0)
        zero.append(bool((np.isfinite(mean) & (np.abs(mean) <= bound)).all()))
    return mean_f if math.isfinite(mean_f) else math.inf, zero[0], all(zero[1:])


def _term_moments(f, mspec):
    """(exps, coeffs, moments): the exponent rows and coefficients of f, and
    moments[i, p] = E X_i^p up to twice f's largest power, the most a
    square of a partial reads."""
    exps, coeffs = f.term_arrays()
    top = 2 * int(exps.max(initial=0))
    moments = np.array([[mspec.moment(i, p) for p in range(top + 1)] for i in range(f.dim)])
    return exps, coeffs, moments


def _exponent_codes(exps, radix):
    """Mixed-radix codes of the exponent rows, for rows whose pairwise sums
    have every exponent below ``radix``: the codes order like the rows
    (lexicographically) and the code of a sum of two rows is the sum of
    their codes. int64 while radix^dim fits, else Python ints in an object
    array, which numpy adds and sorts the same way."""
    dim = exps.shape[1]
    if radix ** dim <= 2 ** 63:
        return exps @ radix ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    weights = [radix ** (dim - 1 - i) for i in range(dim)]
    return np.array([sum(p * w for p, w in zip(row, weights)) for row in exps.tolist()],
                    dtype=object)


def _hs_square(exps, coeffs, codes, moments, k):
    """n_k^2 of the polynomial with terms (exps, coeffs), ``codes`` their
    ``_exponent_codes`` and ``moments`` the table E X_i^p.

    Goes through the partials of ``partial_table`` and reproduces each
    step's floating-point order of the term-by-term polynomial algebra:

    - square: the product of every pair (t, s) of partial terms, summed from
      0.0 per exponent key in t-major order (``np.add.at``), zero sums
      dropped (as ``PolyFunction.from_terms`` drops them);
    - expectation: in sorted-key order, each sum times E X_i^p in coordinate
      order (a factor 1.0 where p = 0), added left to right from 0.0;
    - n_k^2: multinomial(alpha) times each second moment, added left to
      right in canonical order.
    """
    dim = exps.shape[1]
    index, alpha, a_of, t_of, c = partial_table(exps, coeffs, k)
    n_alpha = len(index)
    size = np.bincount(a_of, minlength=n_alpha)
    row_start = np.concatenate(([0], np.cumsum(size)))
    pair_start = np.concatenate(([0], np.cumsum(size * size)))
    second = np.zeros(n_alpha)  # E partial^2 per alpha
    lo = 0
    while lo < n_alpha:
        hi = max(lo + 1, int(np.searchsorted(pair_start, pair_start[lo] + _PAIR_BLOCK,
                                             side="right")) - 1)
        rows = np.arange(row_start[lo], row_start[hi])
        partners = size[a_of[rows]]
        left = np.repeat(rows, partners)  # t-major pairs within each alpha
        right = (row_start[a_of[left]] + np.arange(len(left))
                 - np.repeat(np.cumsum(partners) - partners, partners))
        pair_alpha = a_of[left]
        key = codes[t_of[left]] + codes[t_of[right]]
        order = np.lexsort((key, pair_alpha))
        key, sorted_alpha = key[order], pair_alpha[order]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = (key[1:] != key[:-1]) | (sorted_alpha[1:] != sorted_alpha[:-1])
        group = np.empty(len(order), dtype=np.intp)
        group[order] = np.cumsum(starts) - 1
        sums = np.zeros(np.count_nonzero(starts))
        with np.errstate(over="ignore", invalid="ignore"):  # a square past the float range is inf
            np.add.at(sums, group, c[left] * c[right])
            first = order[starts]  # one pair of each group, groups in (alpha, key) order
            kept = sums != 0.0
            first, sums = first[kept], sums[kept]
            t, s, group_alpha = t_of[left[first]], t_of[right[first]], pair_alpha[first]
            for i in range(dim):
                factor = moments[i, exps[t, i] + exps[s, i] - 2 * alpha[group_alpha, i]]
                if np.isinf(factor).any():
                    return math.inf
                sums *= factor
            np.add.at(second, group_alpha, sums)
        lo = hi
    total = 0.0
    for idx, moment in zip(index.tolist(), second.tolist()):
        total += multinomial(idx) * moment
    return total


def tail_certificate(ladder):
    """P(|f| >= t) bound (route ladder-tail) for a centered f whose order-d
    derivative is constant, from the Ladder of its ``exact_hs_rungs``."""
    return Certificate("tail", "ladder-tail", {"sigma": ladder.sigma, "d": ladder.d,
                                               "hs2": list(ladder.rungs), "top_hs": ladder.top})


# -- weighted route ------------------------------------------------------------------

def weight_term_coefficient(k, p, wnorm):
    """(2^((k-2)/2) * p * wnorm)^k, the order-k coefficient of the weighted bounds."""
    return (2.0 ** ((k - 2) / 2.0) * p * wnorm) ** k


def weighted_moment_bounds(p, wnorms, norms2, top_mixed, top_2dp):
    """(bound_mixed, bound_plain) on ||f||_p under a weighted spectral-gap measure.

    wnorms[k-1] is ||w||_{2^k p} for k = 1..d. Both bounds add to the ladder
    sum over k < d of (2^((k-2)/2) p ||w||_{2^k p})^k * norms2[k-1] a top term:
    bound_mixed (2^((d-2)/2) p)^d ||w||_{2^(d-1)p}^(d-1) * top_mixed, with
    top_mixed = || w |f^(d)|_op ||_{2^(d-1) p}; bound_plain
    (2^((d-2)/2) p ||w||_{2^d p})^d * top_2dp, with top_2dp = || |f^(d)|_op ||_{2^d p}.
    """
    if p < 2:
        raise ValueError("the weighted bounds need p >= 2")
    d = len(wnorms)
    if len(norms2) != d - 1:
        raise ValueError("need one Op-2 norm per order 1..d-1")
    ladder = sum(weight_term_coefficient(k, p, wnorms[k - 1]) * norms2[k - 1]
                 for k in range(1, d))
    w_prev = wnorms[d - 2] if d > 1 else 1.0
    bound_mixed = ladder + (2.0 ** ((d - 2) / 2.0) * p) ** d * w_prev ** (d - 1) * top_mixed
    bound_plain = ladder + weight_term_coefficient(d, p, wnorms[d - 1]) * top_2dp
    return bound_mixed, bound_plain


def weighted_tail_certificate(C, p, d, rescale_lambda=1.0):
    """P(|f| >= t) bound for normalized f under a weighted inequality.

    Needs ||w||_{2^d p} <= C with C >= 2^(-(d-1)/2), p >= 2, and the
    normalized derivative ladder (sigma = 1 convention). Inside the window
    t <= (2^((d+5)/2) C e p)^d the bound decays like exp(-d t^(1/d) / ...);
    beyond it the general q = p moment-Markov form takes over.
    """
    floor = 2.0 ** (-(d - 1) / 2.0)
    if C < floor:
        raise ValueError(
            "C=%g is below the admissible floor 2^(-(d-1)/2)=%g" % (C, floor))
    if p < 2:
        raise ValueError("need p >= 2")
    scale = 2.0 ** ((d + 5) / 2.0) * C
    return Certificate("tail", "weighted-tail",
                       {"C": float(C), "p": float(p), "d": int(d),
                        "window_end": (scale * e * p) ** d,
                        "prefactor": math.exp(d / e)},
                       rescale_lambda=rescale_lambda)


# -- multilinear route -----------------------------------------------------------------

def multilinear_certificates(spec, sigma, unit_variance):
    """Certificates for a multilinear polynomial in independent centered
    coordinates.

    Returns {"exp_hs", "exp_inf", "tail_hs", "tail_inf"}; the tails need unit
    second moments and are omitted without them. The coefficient tensor norms
    drive everything: hs_norm counts every permutation of each increasing
    index tuple, max_entry is the largest absolute coefficient.
    """
    d, n = spec.order, spec.dim
    total = 0.0  # each of the d! permutations of an index tuple holds its coefficient
    for _, a in spec.coeffs:
        total += math.factorial(d) * a * a
    hs, amax = sqrt(total), max((abs(a) for _, a in spec.coeffs), default=0.0)
    certs = {}
    rate_hs = EXP_MOMENT_COEFF / (sigma * hs ** (1.0 / d)) if hs > 0 else math.inf
    certs["exp_hs"] = Certificate(
        "expMoment", "multilinear",
        {"c": EXP_MOMENT_COEFF, "sigma": sigma, "d": d, "form": "hs", "hs_norm": hs,
         "rate": rate_hs, "power": 1.0 / d, "threshold": EXP_THRESHOLD})
    rate_inf = EXP_MOMENT_COEFF / (sigma * sqrt(n) * amax ** (1.0 / d)) \
        if amax > 0 else math.inf
    certs["exp_inf"] = Certificate(
        "expMoment", "multilinear",
        {"c": EXP_MOMENT_COEFF, "sigma": sigma, "d": d, "form": "inf",
         "dim_n": n, "max_entry": amax,
         "rate": rate_inf, "power": 1.0 / d, "threshold": EXP_THRESHOLD})
    if unit_variance:
        certs["tail_hs"] = Certificate(
            "tail", "multilinear-hs", {"sigma": sigma, "d": d, "hs_norm": hs})
        certs["tail_inf"] = Certificate(
            "tail", "multilinear-inf", {"sigma": sigma, "d": d, "dim_n": n, "max_entry": amax})
    return certs


# -- exact constants --------------------------------------------------------------------

def constant_top_op(f, d):
    """(|f^(d)|_op, exact) of a constant order-d derivative, at the origin:
    exact at order <= 2 or in one dimension, else a power-iteration lower
    estimate."""
    if not f.top_is_constant(d):
        raise ValueError("need a constant order-d derivative")
    return (float(op_norms(f.derivative_dense(d, np.zeros((1, f.dim))))[0]),
            d <= 2 or f.dim == 1)

