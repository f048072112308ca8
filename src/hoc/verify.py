"""Monte Carlo ground truth: empirical moments, tails, exponential moments,
and domination reports against certificates.

Conventions, used everywhere and documented in every report:
  - tail fractions get Wilson 95% intervals; a tail certificate passes at t
    when bound >= Wilson lower endpoint;
  - L^p norms get delta-method standard errors; moment bounds pass when
    estimate <= bound + 5*SE (two-estimate comparisons combine relative SEs);
  - exponential moments pass when estimate <= threshold + 3*SE, where the SE
    may fold in externally propagated (e.g. calibration) error in quadrature;
    a half-sample split flags heavy-tailed instability.

Means use compensated summation so results do not depend on reduction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import sqrt

import numpy as np

Z95 = 1.959963984540054
TAIL_SLACK_RULE = "bound >= wilson95_low"
MOMENT_SLACK_RULE = "estimate <= bound + 5*SE"
EXP_SLACK_RULE = "estimate <= threshold + 3*SE"

# fewest values a tail estimate and a raw Monte Carlo exp-moment estimate accept
MIN_TAIL_SAMPLES = 1_000
MIN_EXP_SAMPLES = 100_000


def _mean(values):
    """Order-insensitive (exactly rounded) mean."""
    values = np.asarray(values, dtype=np.float64)
    return math.fsum(values.ravel()) / values.size


def wilson_interval(k, m, z=Z95):
    """Wilson 95% score interval for k successes out of m."""
    if m < 1 or k < 0 or k > m:
        raise ValueError("need 0 <= k <= m, m >= 1")
    phat = k / m
    denom = 1.0 + z * z / m
    center = (phat + z * z / (2 * m)) / denom
    half = z * sqrt(phat * (1 - phat) / m + z * z / (4 * m * m)) / denom
    # clamp into [0, phat] x [phat, 1]: the score interval always contains
    # phat, but roundoff can push an endpoint past it by an ulp at k=0 or k=m
    return min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)


def empirical_lp(values, p):
    """(mean |v|^p)^(1/p) with its delta-method standard error."""
    v = np.abs(np.asarray(values, dtype=np.float64)).ravel()
    if v.size < 2:
        raise ValueError("need at least two samples")
    if p <= 0:
        raise ValueError("need p > 0")
    powered = v**p
    mean = _mean(powered)
    est = mean ** (1.0 / p)
    if mean == 0.0:
        return 0.0, 0.0
    se_mean = float(np.std(powered, ddof=1)) / sqrt(v.size)
    return est, se_mean * est / (p * mean)


@dataclass(frozen=True)
class TailPoint:
    t: float
    fraction: float
    ci_low: float
    ci_high: float

    def to_dict(self):
        return {"t": self.t, "fraction": self.fraction,
                "ci_low": self.ci_low, "ci_high": self.ci_high}


def empirical_tail(values, t_grid):
    """Per-t empirical P(|f| >= t) with Wilson intervals."""
    v = np.abs(np.asarray(values, dtype=np.float64)).ravel()
    if v.size < MIN_TAIL_SAMPLES:
        raise ValueError("tail estimation needs at least %d samples" % MIN_TAIL_SAMPLES)
    out = []
    sv = np.sort(v)
    m = sv.size
    for t in t_grid:
        k = m - int(np.searchsorted(sv, t, side="left"))
        low, high = wilson_interval(k, m)
        out.append(TailPoint(float(t), k / m, low, high))
    return out


@dataclass(frozen=True)
class ExpMomentEstimate:
    value: float
    se: float
    stable: bool
    halves: tuple

    def to_dict(self):
        return {"value": self.value, "se": self.se, "stable": self.stable,
                "halves": list(self.halves)}


def empirical_exp_moment(values, a, r, min_samples=MIN_EXP_SAMPLES):
    """Sample mean of exp(a|v|^r) with SE and a half-sample stability flag.

    ``min_samples`` is the contract default for raw Monte Carlo; callers with
    intrinsically expensive draws (matrix ensembles) may lower it explicitly.
    Halves differing by more than 10% relative flag the estimate unstable.
    """
    v = np.abs(np.asarray(values, dtype=np.float64)).ravel()
    if v.size < min_samples:
        raise ValueError("exp-moment estimation needs at least %d samples" % min_samples)
    ev = np.exp(a * v**r)
    est = _mean(ev)
    se = float(np.std(ev, ddof=1)) / sqrt(v.size)
    half = v.size // 2
    h1, h2 = _mean(ev[:half]), _mean(ev[half:])
    ref = 0.5 * (h1 + h2)
    stable = ref == 0.0 or abs(h1 - h2) <= 0.1 * ref
    return ExpMomentEstimate(est, se, stable, (h1, h2))


def relative_domination(lhs, lhs_se, rhs, rhs_se, slack=5.0):
    """lhs <= rhs * (1 + slack * combined relative SE); both sides estimated."""
    if rhs <= 0:
        return lhs <= 0
    rel = 0.0
    if lhs > 0:
        rel += (lhs_se / lhs) ** 2
    rel += (rhs_se / rhs) ** 2
    return lhs <= rhs * (1.0 + slack * sqrt(rel))


# -- domination reports ---------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    label: str
    bound: float
    empirical: float
    slack: float
    passed: bool
    extra: dict

    def to_dict(self):
        out = {"label": self.label, "bound": self.bound,
               "empirical": self.empirical, "slack": self.slack,
               "passed": self.passed}
        out.update(self.extra)
        return out


@dataclass(frozen=True)
class EmpiricalReport:
    m: int
    kind: str
    slack_rule: str
    rows: tuple
    passed: bool

    def to_dict(self):
        return {"m": self.m, "kind": self.kind, "slack_rule": self.slack_rule,
                "passed": self.passed, "rows": [r.to_dict() for r in self.rows]}


def check_tail_certificate(cert, values, t_grid):
    """Domination report: certificate tail curve vs Wilson lower endpoints."""
    if cert.kind != "tail":
        raise ValueError("certificate kind %r is not 'tail'" % (cert.kind,))
    points = empirical_tail(values, t_grid)
    rows = []
    for pt in points:
        bound = cert.tail_bound(pt.t)
        rows.append(CheckRow("t=%g" % pt.t, bound, pt.fraction,
                             pt.fraction - pt.ci_low, bound >= pt.ci_low,
                             {"t": pt.t, "ci_low": pt.ci_low, "ci_high": pt.ci_high}))
    return EmpiricalReport(np.asarray(values).size, "tail", TAIL_SLACK_RULE,
                           tuple(rows), all(r.passed for r in rows))


def check_exp_certificate(cert, values, extra_se=0.0, min_samples=MIN_EXP_SAMPLES):
    """Exp-moment report; extra_se (calibration and the like) adds in quadrature."""
    if cert.kind != "expMoment":
        raise ValueError("certificate kind %r is not 'expMoment'" % (cert.kind,))
    rate, power, threshold = cert.exp_params()
    est = empirical_exp_moment(values, rate, power, min_samples=min_samples)
    se = sqrt(est.se**2 + extra_se**2)
    passed = est.value <= threshold + 3.0 * se
    row = CheckRow("exp_moment", threshold, est.value, 3.0 * se, passed,
                   {"se": se, "mc_se": est.se, "extra_se": extra_se,
                    "stable": est.stable, "rate": rate, "power": power})
    return EmpiricalReport(np.asarray(values).size, "expMoment", EXP_SLACK_RULE,
                           (row,), passed)


def check_moment_bound(bound, values, p, label=""):
    """Moment report: empirical L^p vs a closed-form bound, 5*SE additive slack."""
    est, se = empirical_lp(values, p)
    passed = est <= bound + 5.0 * se
    row = CheckRow(label or ("p=%g" % p), bound, est, 5.0 * se, passed,
                   {"p": p, "se": se})
    return EmpiricalReport(np.asarray(values).size, "moment", MOMENT_SLACK_RULE,
                           (row,), passed)


def check_certificate(cert, values, t_grid=None, p=None, extra_se=0.0,
                      min_samples=MIN_EXP_SAMPLES):
    """Dispatch on certificate kind; wrong inputs for the kind are rejected."""
    if cert.kind == "tail":
        if t_grid is None:
            raise ValueError("tail certificates need a t_grid")
        return check_tail_certificate(cert, values, t_grid)
    if cert.kind == "expMoment":
        return check_exp_certificate(cert, values, extra_se=extra_se,
                                     min_samples=min_samples)
    if cert.kind == "moment":
        if p is None:
            raise ValueError("moment certificates need p")
        return check_moment_bound(cert.moment_bound(p), values, p)
    raise ValueError("unknown certificate kind %r" % (cert.kind,))
