"""Concentration bounds as explicit, checkable certificates.

Everything here evaluates a closed-form right-hand side from a profile of
derivative norms: iterated moment bounds, exponential-moment certificates
(with automatic rescaling when the normalization hypotheses fail by a factor
lambda), tail bounds built from the full ladder of derivative norms, and the
weighted variants for measures that only satisfy a weighted spectral-gap
inequality. Multilinear polynomials in independent centered coordinates get
their own sharper certificates driven by the coefficient tensor.

Certificates carry a ``route`` label naming the bound family (ladder-inf,
ladder-hs, ladder-tail, weighted-ladder, weighted-tail, multilinear-hs,
multilinear-inf, wigner-lss) plus every constant needed to re-evaluate them,
and serialize to JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from math import comb, e, sqrt

import numpy as np

from . import measures
from ._util import jsonable
from .polynomials import EVAL_BLOCK, from_multilinear
from .tensors import UnsupportedSizeError, hs_norms, op_norms

EXP_MOMENT_COEFF = 1.0 / (12.0 * e)  # universal constant in the exp-moment certificates
EXP_THRESHOLD = 2.0
TAIL_PREFACTOR = e**2

# Pointwise operator norms of order >= 3 derivative tensors have no closed
# form; cap the power-iteration work at this many sample points and let the
# reported standard error reflect the smaller sample.
OPNORM_POINT_CAP = 4096

# A block of dense derivative tensors holds at most this many floats (8 MB):
# order 4 on R^10 goes 100 points at a time, orders 1 and 2 on R^10 a whole
# EVAL_BLOCK.
_DENSE_BLOCK_FLOATS = 1 << 20

# fewest sample points profile_from_function accepts
MIN_PROFILE_SAMPLES = 10_000

_SQRT2 = sqrt(2.0)


class MissingNormError(ValueError):
    """A bound was requested without the derivative norm it needs."""


class MissingHypothesisError(ValueError):
    """A certificate was requested for a function violating its hypotheses."""


# -- profiles -------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeProfile:
    """Derivative-norm summary of one function under one measure.

    norms2[k-1] is the L2 norm of the pointwise operator norm of the order-k
    derivative, k = 1..order-1. top_inf bounds the operator norm of the
    order-d derivative uniformly (exact when that derivative is constant,
    otherwise a sampled lower bound and top_inf_exact is False). top_hs is
    the L2 norm of the pointwise Hilbert-Schmidt norm of the top derivative.
    top_p, when present, maps p to the L^p norm of the pointwise operator
    norm of the top derivative.
    """

    order: int
    sigma: float
    norms2: tuple
    top_inf: float | None = None
    top_hs: float | None = None
    top_p: object = None
    centered: bool = False
    derivs_centered: bool = False
    top_inf_exact: bool = True
    mean: float = 0.0
    norms2_se: tuple = ()
    top_hs_se: float = 0.0

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if len(self.norms2) != self.order - 1:
            raise ValueError("need one Op-2 norm per order 1..d-1")
        for v in self.norms2:
            if not (math.isfinite(v) and v >= 0):
                raise ValueError("norms must be finite and nonnegative")
        if self.top_inf is not None and not self.top_inf >= 0:
            raise ValueError("top_inf must be nonnegative")

    def scaled(self, lam):
        """Profile of f / lam."""
        if not lam > 0:
            raise ValueError("lam must be positive")
        top_p = self.top_p
        if top_p is not None:
            base = top_p
            top_p = lambda p: base(p) / lam
        return replace(
            self, norms2=tuple(v / lam for v in self.norms2),
            top_inf=None if self.top_inf is None else self.top_inf / lam,
            top_hs=None if self.top_hs is None else self.top_hs / lam,
            top_p=top_p, mean=self.mean / lam,
            norms2_se=tuple(v / lam for v in self.norms2_se),
            top_hs_se=self.top_hs_se / lam)


@dataclass(frozen=True)
class WeightedProfile:
    """Inputs of the weighted moment bounds at one fixed p.

    wnorms[k-1] is ||w||_{2^k p} for k = 1..d (None where unknown).
    top_mixed is the L^{2^(d-1) p} norm of w(x) * (pointwise operator norm of
    the top derivative); top_2dp is the plain L^{2^d p} operator-norm moment
    of the top derivative.
    """

    order: int
    p: float
    wnorms: tuple
    norms2: tuple
    top_mixed: float | None = None
    top_2dp: float | None = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.p < 2:
            raise ValueError("the weighted bounds need p >= 2")
        if len(self.wnorms) != self.order:
            raise ValueError("need ||w||_{2^k p} slots for k = 1..d")
        if len(self.norms2) != self.order - 1:
            raise ValueError("need one Op-2 norm per order 1..d-1")

    def wnorm(self, k):
        if k < 1 or k > self.order:
            raise ValueError("k out of range")
        v = self.wnorms[k - 1]
        if v is None:
            raise MissingNormError("missing ||w||_%g (k=%d)" % (2**k * self.p, k))
        return float(v)


# -- certificates ----------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """One checkable claim: a moment bound, a tail curve, or an exp-moment cap.

    kind is "moment", "tail", or "expMoment". route names the bound family.
    constants holds every number the evaluators need; rescale_lambda reports
    the factor by which the function was divided to restore the hypotheses
    (bounds then apply to f / rescale_lambda).
    """

    kind: str
    route: str
    constants: dict = field(default_factory=dict)
    rescale_lambda: float = 1.0

    def __post_init__(self):
        if self.kind not in ("moment", "tail", "expMoment"):
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

    # ---- moment interface

    def moment_bound(self, p):
        if self.kind != "moment":
            raise ValueError("not a moment certificate")
        c = self.constants
        if self.route == "ladder-inf":
            prof = DerivativeProfile(int(c["d"]), float(c["sigma"]),
                                     tuple(c["norms2"]), c.get("top_inf"))
            return iterated_moment_bound(prof, p)
        if self.route == "weighted-ladder":
            if p != c["p"]:
                raise ValueError("weighted moment certificate is pinned to p=%g" % c["p"])
            vals = [v for v in (c.get("bound_mixed"), c.get("bound_plain")) if v is not None]
            return min(vals)
        raise ValueError("no moment evaluator for route %r" % (self.route,))

    # ---- serialization

    def to_dict(self):
        return {"kind": self.kind, "route": self.route,
                "constants": dict(self.constants), "rescale_lambda": self.rescale_lambda}

    def to_json(self):
        return json.dumps(jsonable(self.to_dict()), sort_keys=True)

    @classmethod
    def from_dict(cls, data):
        return cls(data["kind"], data["route"], dict(data["constants"]),
                   float(data.get("rescale_lambda", 1.0)))

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def _tail_eval(route, c, t):
    if route == "ladder-tail":
        eta = _eta(c, t)
        return TAIL_PREFACTOR * np.exp(-eta / (c["d"] * e))
    if route == "weighted-tail":
        d, C, p = c["d"], c["C"], c["p"]
        scale = 2.0 ** ((d + 5) / 2.0) * C
        window = (scale * e * p) ** d
        inside = np.exp(np.clip(-d * np.power(t, 1.0 / d) / (scale * e), -745.0, 0.0))
        with np.errstate(divide="ignore"):
            beyond = np.where(t > 0, ((scale * p) ** d / np.maximum(t, 1e-300)) ** p, np.inf)
        return math.exp(d / e) * np.where(t <= window, inside, beyond)
    if route == "multilinear-hs":
        hs = c["hs_norm"]
        if hs == 0.0:
            return np.where(t > 0, 0.0, 1.0)
        arg = np.minimum(t / hs, np.power(t, 1.0 / c["d"]) / hs ** (1.0 / c["d"]))
        return TAIL_PREFACTOR * np.exp(-_SQRT2 * arg / (c["sigma"] * c["d"] * e))
    if route == "multilinear-inf":
        amax, n, d = c["max_entry"], c["dim_n"], c["d"]
        if amax == 0.0:
            return np.where(t > 0, 0.0, 1.0)
        arg = np.minimum(t / (n ** (d / 2.0) * amax),
                         np.power(t, 1.0 / d) / (sqrt(n) * amax ** (1.0 / d)))
        return TAIL_PREFACTOR * np.exp(-_SQRT2 * arg / (c["sigma"] * d * e))
    if route == "wigner-lss":
        n_dim, g2, fpp = c["matrix_size"], c["grad_l2"], c["fpp_inf"]
        terms = []
        if g2 > 0:
            terms.append(t * sqrt(n_dim) / g2)
        if fpp > 0:
            terms.append(np.sqrt(t) * n_dim ** 0.25 / sqrt(fpp))
        if not terms:
            return np.where(t > 0, 0.0, 1.0)
        arg = terms[0] if len(terms) == 1 else np.minimum(*terms)
        return TAIL_PREFACTOR * np.exp(-arg / (c["sigma"] * 2.0 * e))
    raise ValueError("no tail evaluator for route %r" % (route,))


def _eta(c, t):
    """Best decay exponent from the norm ladder; zero norms drop their term,
    a missing top norm forces the trivial bound."""
    sigma, d = c["sigma"], c["d"]
    top = c.get("top_inf")
    if top is None:
        return np.zeros_like(t)
    terms = []
    if top > 0:
        terms.append(_SQRT2 * np.power(t, 1.0 / d) / (sigma * top ** (1.0 / d)))
    for k, nk in enumerate(c["norms2"], start=1):
        if nk > 0:
            terms.append(_SQRT2 * np.power(t, 1.0 / k) / (sigma * nk ** (1.0 / k)))
    if not terms:
        return np.full_like(t, np.inf)
    return terms[0] if len(terms) == 1 else np.minimum.reduce(terms)


# -- moment bounds ----------------------------------------------------------------

def iterated_moment_bound(profile, p):
    """Closed-form bound on the L^p norm from the derivative ladder.

    Sum over k < d of (sigma*p/sqrt(2))^k * norms2[k-1], plus
    (sigma*p/sqrt(2))^d times the L^p operator-norm moment of the top
    derivative (top_inf substitutes when no p-dependent value is known).
    """
    if p < 2:
        raise ValueError("the iterated moment bound needs p >= 2")
    d, sigma = profile.order, profile.sigma
    if profile.top_p is not None:
        top = float(profile.top_p(p))
    elif profile.top_inf is not None:
        top = profile.top_inf
    else:
        raise MissingNormError("need top_p or top_inf for the top term")
    base = sigma * p / _SQRT2
    total = sum(base**k * profile.norms2[k - 1] for k in range(1, d))
    return total + base**d * top


def normalized_moment_cap(sigma, d, p):
    """4 (sigma p / sqrt 2)^d: the cap on the iterated bound when the norm
    ladder is at its normalized values."""
    return 4.0 * (sigma * p / _SQRT2) ** d


def moment_certificate(profile):
    """Moment-kind certificate wrapping the iterated bound (route ladder-inf)."""
    if profile.top_inf is None:
        raise MissingNormError("moment certificate needs top_inf")
    return Certificate("moment", "ladder-inf",
                       {"sigma": profile.sigma, "d": profile.order,
                        "norms2": list(profile.norms2), "top_inf": profile.top_inf,
                        "top_inf_exact": profile.top_inf_exact})


def gradient_moment_bound(sigma, p, grad_lp, l2=None):
    """One-step moment bound from the gradient.

    Centered form (l2 None): (sigma*p/sqrt 2) * ||grad f||_p bounds ||f||_p.
    General form: ||f||_2 + (sigma*p/sqrt 2) * ||grad f||_p.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    head = 0.0 if l2 is None else float(l2)
    return head + sigma * p / _SQRT2 * grad_lp


# -- exponential-moment certificates ------------------------------------------------

def exp_moment_certificate(profile, route=None):
    """Certificate that E exp(rate * |f|^(1/d)) <= 2.

    Route "ladder-inf" (default) needs the Op-2 norm ladder below sigma^(d-k) and a
    uniform operator-norm bound on the top derivative; route "ladder-hs" trades the
    ladder for centered derivatives plus an L2 Hilbert-Schmidt bound on the
    top derivative. Hypotheses failing by a factor are absorbed by rescaling:
    the certificate is issued for f / rescale_lambda, equivalently the rate
    already includes the lambda^(-1/d) factor so the claim holds for f itself.
    """
    if route is None:
        route = "ladder-hs" if (profile.derivs_centered and profile.top_hs is not None) else "ladder-inf"
    if route not in ("ladder-inf", "ladder-hs"):
        raise ValueError("unknown exp-moment route %r" % (route,))
    if not profile.centered:
        raise MissingHypothesisError("exp-moment certificates need E f = 0; recenter first")
    if profile.top_inf is None:
        raise MissingNormError("need a uniform operator-norm bound on the top derivative")
    d, sigma = profile.order, profile.sigma
    if route == "ladder-inf":
        lam = max(1.0, profile.top_inf,
                  max((profile.norms2[k - 1] / sigma ** (d - k) for k in range(1, d)),
                      default=0.0))
        used = {"norms2": list(profile.norms2), "top_inf": profile.top_inf}
    else:
        if not profile.derivs_centered:
            raise MissingHypothesisError(
                "route ladder-hs needs all derivatives of order < d centered")
        if profile.top_hs is None:
            raise MissingNormError("route ladder-hs needs the Hilbert-Schmidt top norm")
        lam = max(1.0, profile.top_inf, profile.top_hs)
        used = {"top_hs": profile.top_hs, "top_inf": profile.top_inf}
    rate = EXP_MOMENT_COEFF / (sigma * lam ** (1.0 / d))
    constants = {"c": EXP_MOMENT_COEFF, "sigma": sigma, "d": d,
                 "rate": rate, "power": 1.0 / d, "threshold": EXP_THRESHOLD,
                 "top_inf_exact": profile.top_inf_exact}
    constants.update(used)
    return Certificate("expMoment", route, constants, rescale_lambda=lam)


def subexponential_constant(gamma):
    """c = 1/(2*gamma*e): if ||f||_k <= gamma*k for all integers k >= 1 then
    E exp(c|f|) <= 2 (geometric series argument)."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return 1.0 / (2.0 * gamma * e)


# -- tail bounds -------------------------------------------------------------------

def derivative_tail_bound(profile, t):
    """P(|f| >= t) bound from the full derivative-norm ladder (route ladder-tail)."""
    return tail_certificate(profile).tail_bound(t)


def tail_certificate(profile):
    if not profile.centered:
        raise MissingHypothesisError("the tail bound needs E f = 0; recenter first")
    return Certificate("tail", "ladder-tail",
                       {"sigma": profile.sigma, "d": profile.order,
                        "norms2": list(profile.norms2), "top_inf": profile.top_inf,
                        "top_inf_exact": profile.top_inf_exact})


# -- weighted route ------------------------------------------------------------------

def weight_term_coefficient(k, p, wnorm):
    """(2^((k-2)/2) * p * wnorm)^k, the order-k coefficient of the weighted bounds."""
    return (2.0 ** ((k - 2) / 2.0) * p * wnorm) ** k


def _weight_term_coefficient_iterated(k, p, wnorm):
    """The same coefficient in the unreduced iterated form 2^C(k,2) (p*wnorm/sqrt2)^k."""
    return 2.0 ** comb(k, 2) * (p * wnorm / _SQRT2) ** k


def weighted_moment_bounds(wp):
    """(bound_mixed, bound_plain) on ||f||_p under a weighted spectral-gap measure.

    Both share the ladder sum over k < d of
    (2^((k-2)/2) p ||w||_{2^k p})^k * norms2[k-1]. bound_mixed tops it with
    (2^((d-2)/2) p)^d ||w||_{2^(d-1)p}^(d-1) * top_mixed; bound_plain with
    (2^((d-2)/2) p ||w||_{2^d p})^d * top_2dp. A bound whose top norm is
    unavailable comes back as None.
    """
    if wp.top_mixed is None and wp.top_2dp is None:
        raise MissingNormError("need top_mixed or top_2dp for the top term")
    d, p = wp.order, wp.p
    ladder = sum(weight_term_coefficient(k, p, wp.wnorm(k)) * wp.norms2[k - 1]
                 for k in range(1, d))
    bound_mixed = None
    if wp.top_mixed is not None:
        w_prev = wp.wnorm(d - 1) if d > 1 else 1.0
        bound_mixed = ladder + (2.0 ** ((d - 2) / 2.0) * p) ** d \
            * w_prev ** (d - 1) * wp.top_mixed
    bound_plain = None
    if wp.top_2dp is not None:
        bound_plain = ladder + weight_term_coefficient(d, p, wp.wnorm(d)) * wp.top_2dp
    return bound_mixed, bound_plain


def weighted_moment_certificate(wp):
    bm, bp = weighted_moment_bounds(wp)
    return Certificate("moment", "weighted-ladder",
                       {"p": wp.p, "d": wp.order, "bound_mixed": bm, "bound_plain": bp,
                        "wnorms": list(wp.wnorms), "norms2": list(wp.norms2)})


def weighted_tail_bound(C, p, d, t):
    """P(|f| >= t) bound for normalized f under a weighted inequality.

    Needs ||w||_{2^d p} <= C with C >= 2^(-(d-1)/2), p >= 2, and the
    normalized derivative ladder (sigma = 1 convention). Inside the window
    t <= (2^((d+5)/2) C e p)^d the bound decays like exp(-d t^(1/d) / ...);
    beyond it the general q = p moment-Markov form takes over.
    """
    return weighted_tail_certificate(C, p, d).tail_bound(t)


def weighted_tail_certificate(C, p, d, rescale_lambda=1.0):
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

def multilinear_certificates(spec, sigma, centered, unit_variance):
    """Certificates for a multilinear polynomial in independent coordinates.

    Returns {"exp_hs", "exp_inf", "tail_hs", "tail_inf"}; the tails need unit
    second moments and are omitted without them. The coefficient tensor norms
    drive everything: hs_norm counts every permutation of each increasing
    index tuple, max_entry is the largest absolute coefficient.
    """
    if not centered:
        raise MissingHypothesisError("multilinear certificates need E X_i = 0 for all i")
    _, tensor = from_multilinear(spec)
    hs = tensor.hs_norm()
    amax = tensor.max_abs_entry()
    d, n = spec.order, spec.dim
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


# -- profile estimation ------------------------------------------------------------------

def constant_opnorm(tensor):
    """Operator norm of a constant derivative tensor, certified when the
    grid oracle supports the size."""
    try:
        return tensor.op_norm("certified")
    except UnsupportedSizeError:
        return tensor.op_norm("iterative")


def _opnorm_values(f, k, points):
    """Pointwise operator norms of the order-k derivative at sample points.

    The points go block by block, each block's dense derivative stack to one
    ``op_norms`` call, so no (m, dim, dim) Hessian batch is built; every
    point's norm is computed as in a whole-batch call. Orders >= 3 use at
    most OPNORM_POINT_CAP points (deterministic prefix of the sample).
    """
    pts = np.asarray(points)
    if k >= 3:
        pts = pts[:OPNORM_POINT_CAP]
    rows = max(1, min(EVAL_BLOCK, _DENSE_BLOCK_FLOATS // f.dim ** k))
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], rows):
        out[start:start + rows] = op_norms(f.derivative_dense(k, pts[start:start + rows]))
    return out


def _l2_with_se(values):
    m = values.size
    sq = values * values
    mean = float(np.mean(sq))
    est = sqrt(mean)
    if m < 2 or est == 0.0:
        return est, 0.0
    se_mean = float(np.std(sq, ddof=1)) / sqrt(m)
    return est, se_mean / (2.0 * est)


def profile_from_function(f, mspec, d, m=100_000, seed=0):
    """Estimate a DerivativeProfile for ``f`` under ``mspec``.

    Constant derivative tensors get exact norms; the rest are Monte Carlo
    with standard errors. The top operator-norm bound is exact only when the
    order-d derivative is constant, otherwise it is the sample max and the
    profile is flagged as a lower-bound estimate. Centering flags come from
    exact expectations, not samples.
    """
    if m < MIN_PROFILE_SAMPLES:
        raise ValueError("need m >= %d samples for a usable profile"
                         % MIN_PROFILE_SAMPLES)
    if d < 1:
        raise ValueError("d must be >= 1")
    sigma = mspec.sigma()
    pts = measures.sample(mspec, m, seed)
    norms2, ses = [], []
    for k in range(1, d):
        if f.top_is_constant(k):
            norms2.append(constant_opnorm(f.derivative_tensor(k)))
            ses.append(0.0)
        else:
            vals = _opnorm_values(f, k, pts)
            est, se = _l2_with_se(vals)
            norms2.append(est)
            ses.append(se)
    if f.top_is_constant(d):
        tensor = f.derivative_tensor(d)
        top_inf, exact = constant_opnorm(tensor), True
        top_hs, top_hs_se = tensor.hs_norm(), 0.0
        top_p = (lambda v: (lambda p: v))(top_inf)
    else:
        vals = _opnorm_values(f, d, pts)
        top_inf, exact = float(np.max(vals)), False
        top_hs, top_hs_se = _l2_with_se(hs_norms(f.derivative_batch(d, pts)[1], d, f.dim))
        top_p = (lambda arr: (lambda p: float(np.mean(np.abs(arr) ** p) ** (1.0 / p))))(vals)
    mean = f.expectation(mspec.moment)
    centered = math.isfinite(mean) and abs(mean) <= 1e-12
    derivs_centered = True
    for k in range(1, d):
        for poly in f._order_partials(k).values():
            ev = poly.expectation(mspec.moment)
            if not (math.isfinite(ev) and abs(ev) <= 1e-12):
                derivs_centered = False
                break
        if not derivs_centered:
            break
    return DerivativeProfile(
        d, sigma, tuple(norms2), top_inf, top_hs, top_p,
        centered, derivs_centered, exact,
        mean if math.isfinite(mean) else math.inf,
        tuple(ses), top_hs_se)
