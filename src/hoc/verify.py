"""Monte Carlo ground truth: empirical moments, tails, exponential moments,
and domination reports against certificates.

Conventions, used everywhere and documented in every report:
  - a tail fraction is k/m with k the count of values not below t in
    absolute value (``tail_counts``; ties, infinities and NaN count), taken
    block by block where the values are streamed; it gets a Wilson 95%
    interval, and a tail certificate passes at t when bound >= Wilson lower
    endpoint;
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


def _sample_std(v):
    """np.std(v, ddof=1) of a 1-D float array, in the steps numpy's std takes
    and so with its bits, but overwriting v instead of allocating a copy."""
    v -= np.add.reduce(v, keepdims=True) / v.size
    np.square(v, out=v)
    return float(np.sqrt(np.add.reduce(v) / (v.size - 1)))


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
    v **= p  # v is this function's own array: power it in place
    mean = _mean(v)
    est = mean ** (1.0 / p)
    if mean == 0.0:
        return 0.0, 0.0
    se_mean = _sample_std(v) / sqrt(v.size)
    return est, se_mean * est / (p * mean)


def tail_counts(values, t_grid):
    """Per-t count of the values with not |v| < t, as an int64 array.

    A value equal to t, an infinite value and a NaN each count. Counts of the
    blocks of an array add up to the counts of the whole, so a caller can
    stream its values through here without holding them.
    """
    return abs_tail_counts(np.abs(np.asarray(values, dtype=np.float64)).ravel(), t_grid)


def abs_tail_counts(a, t_grid):
    """``tail_counts`` of the values whose absolute values are the 1-D
    float64 array ``a``: per t, the count of a with not a < t. A caller free
    to overwrite its values takes |v| in place (``np.abs(v, out=v)``) and
    passes that, so no copy is made."""
    return np.array([a.size - np.count_nonzero(a < t) for t in t_grid], dtype=np.int64)


@dataclass(frozen=True)
class ExpMomentEstimate:
    value: float
    se: float
    stable: bool


def empirical_exp_moment(values, a, r, min_samples=MIN_EXP_SAMPLES):
    """Sample mean of exp(a|v|^r) with SE and a half-sample stability flag.

    ``min_samples`` is the contract default for raw Monte Carlo; callers with
    intrinsically expensive draws (matrix ensembles) may lower it explicitly.
    Halves differing by more than 10% relative flag the estimate unstable.
    """
    v = np.abs(np.asarray(values, dtype=np.float64)).ravel()
    if v.size < min_samples:
        raise ValueError("exp-moment estimation needs at least %d samples" % min_samples)
    # v is this function's own array: exp(a v^r) in place
    v **= r
    v *= a
    ev = np.exp(v, out=v)
    est = _mean(ev)
    half = v.size // 2
    h1, h2 = _mean(ev[:half]), _mean(ev[half:])
    ref = 0.5 * (h1 + h2)
    stable = ref == 0.0 or abs(h1 - h2) <= 0.1 * ref
    se = _sample_std(ev) / sqrt(v.size)  # last: it overwrites ev
    return ExpMomentEstimate(est, se, stable)


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


def check_tail_certificate(cert, m, counts, t_grid):
    """Domination report: certificate tail curve vs Wilson lower endpoints.

    ``counts[i]`` of ``m`` values reached ``t_grid[i]`` (``tail_counts``).
    """
    if cert.kind != "tail":
        raise ValueError("certificate kind %r is not 'tail'" % (cert.kind,))
    if m < MIN_TAIL_SAMPLES:
        raise ValueError("tail estimation needs at least %d samples" % MIN_TAIL_SAMPLES)
    if len(counts) != len(t_grid):
        raise ValueError("need one count per t, got %d for %d" % (len(counts), len(t_grid)))
    rows = []
    curve = cert.tail_bound(np.array(t_grid, dtype=np.float64)).tolist()  # M(p) once per grid
    for t, k, bound in zip(t_grid, counts, curve):
        t, k = float(t), int(k)
        low, high = wilson_interval(k, m)
        rows.append(CheckRow("t=%g" % t, bound, k / m, k / m - low, bound >= low,
                             {"t": t, "ci_low": low, "ci_high": high}))
    return EmpiricalReport(m, "tail", TAIL_SLACK_RULE, tuple(rows), all(r.passed for r in rows))


def check_exp_certificate(cert, values, extra_rel_se=0.0, min_samples=MIN_EXP_SAMPLES):
    """Exp-moment report; extra_se = extra_rel_se * estimate (calibration and
    the like) adds in quadrature."""
    if cert.kind != "expMoment":
        raise ValueError("certificate kind %r is not 'expMoment'" % (cert.kind,))
    rate, power, threshold = cert.exp_params()
    est = empirical_exp_moment(values, rate, power, min_samples=min_samples)
    extra_se = extra_rel_se * est.value
    se = sqrt(est.se**2 + extra_se**2)
    passed = est.value <= threshold + 3.0 * se
    row = CheckRow("exp_moment", threshold, est.value, 3.0 * se, passed,
                   {"se": se, "mc_se": est.se, "extra_se": extra_se,
                    "stable": est.stable, "rate": rate, "power": power})
    return EmpiricalReport(np.asarray(values).size, "expMoment", EXP_SLACK_RULE,
                           (row,), passed)


def check_moment_bound(bound, values, p):
    """Moment report: empirical L^p vs a closed-form bound, 5*SE additive slack."""
    est, se = empirical_lp(values, p)
    passed = est <= bound + 5.0 * se
    row = CheckRow("p=%g" % p, bound, est, 5.0 * se, passed,
                   {"p": p, "se": se})
    return EmpiricalReport(np.asarray(values).size, "moment", MOMENT_SLACK_RULE,
                           (row,), passed)

