"""Shipped fixtures: (measure, function) pairs with their certificate route.

Routes name which certificate family a fixture exercises:
  ladder-inf / ladder-hs   exponential-moment certificates from the derivative
                           ladder (sup-norm top term / Hilbert-Schmidt top term)
  ladder-tail              tail bounds from the derivative-norm ladder
  weighted-ladder /        moment and tail bounds for measures with only a
  weighted-tail            weighted spectral-gap inequality (heavy tails)
  multilinear              chaos certificates from the coefficient tensor
  wigner-lss               Wigner linear eigenvalue statistics

Each payload holds only the fields its kind's runner reads; ``experiments``
refuses any other. The inventory is deterministic: multilinear coefficients
come from a fixed counter-based stream keyed by (dim, order) and are
normalized so the coefficient tensor has unit Hilbert-Schmidt norm, which
makes Var f = 1/d! and standard-deviation-scaled tail grids meaningful
across fixtures.

The d=3 chaos family substitutes dim 3 for the impossible dim 2 (a strictly
increasing triple needs at least three coordinates).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import sqrt

import numpy as np

from ._util import substream
from .polynomials import MultilinearSpec, PolyFunction

COEFF_SEED = 20240817

# tail grids: multiples of the standard deviation of f
TAIL_GRID_MULTIPLIERS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0)

CHAOS_SHAPES = ((2, 2), (5, 2), (10, 2), (3, 3), (5, 3), (10, 3))
CHAOS_MEASURES = ("gaussian", "laplace_unit")  # laplace scaled to unit variance

STUDENT_BETA = 10.0
WIGNER_SIZES = (50, 100, 200)


@dataclass(frozen=True)
class Fixture:
    name: str
    route: str
    kind: str
    description: str
    payload: dict


def chaos_spec(dim, order):
    """Fixed multilinear coefficients for one (dim, order) shape, unit HS norm."""
    tuples = list(itertools.combinations(range(dim), order))
    if not tuples:
        raise ValueError("no strictly increasing index tuples for dim=%d order=%d"
                         % (dim, order))
    rng = substream(COEFF_SEED, dim, order)
    vals = rng.uniform(-1.0, 1.0, len(tuples))
    # unit HS norm of the symmetrized tensor: sum over tuples of d! * a^2 = 1
    vals /= sqrt(math.factorial(order) * float(np.sum(vals * vals)))
    return MultilinearSpec.from_coeffs(dim, order, dict(zip(tuples, vals.tolist())))


def chaos_tail_grid(order):
    sd = 1.0 / sqrt(math.factorial(order))
    return [m * sd for m in TAIL_GRID_MULTIPLIERS]


def _measure_payload(tag, dim):
    if tag == "gaussian":
        return {"dim": dim, "coords": [{"dist": "gaussian", "params": {}}] * dim}
    if tag == "laplace_unit":
        # scale 1/sqrt(2) makes the coordinate variance exactly 1
        return {"dim": dim,
                "coords": [{"dist": "laplace", "params": {"scale": 1.0 / sqrt(2.0)}}] * dim}
    raise ValueError(tag)


def _bilinear_payload():
    f = PolyFunction.from_terms(2, {(1, 1): 1.0 / sqrt(2.0)})
    return {"measure": _measure_payload("gaussian", 2), "function": f.to_dict(),
            "samples": 1_000_000}


def _chaos_fixtures():
    out = []
    for dim, order in CHAOS_SHAPES:
        spec = chaos_spec(dim, order)
        for tag in CHAOS_MEASURES:
            base = {"measure": _measure_payload(tag, dim),
                    "multilinear": spec.to_dict(),
                    "t_grid": chaos_tail_grid(order),
                    "samples": 1_000_000}
            stem = "%s-chaos-n%d-d%d" % (tag.split("_")[0], dim, order)
            out.append(Fixture(
                stem + "-tails", "ladder-tail", "tails",
                "derivative-ladder tail bound for a unit-HS multilinear form", base))
            out.append(Fixture(
                stem + "-multilinear", "multilinear", "multilinear",
                "coefficient-tensor certificates for the same multilinear form",
                base))
    return out


def _student_measure(dim):
    return {"dim": dim,
            "coords": [{"dist": "student", "params": {"beta": STUDENT_BETA}}] * dim}


def _weighted_fixtures():
    f1 = PolyFunction.from_terms(1, {(1,): 1.0})
    f2 = PolyFunction.from_terms(2, {(1, 1): 1.0})
    sd1 = sqrt(1.0 / 17.0)          # E X^2 for the beta=10 law
    sd2 = 1.0 / 17.0                # E (X1 X2)^2 = (E X^2)^2
    base1 = {"measure": _student_measure(1), "function": f1.to_dict(), "samples": 1_000_000}
    base2 = {"measure": _student_measure(2), "function": f2.to_dict(), "samples": 1_000_000}
    return [
        Fixture("student-weighted-moments-d1", "weighted-ladder", "weighted",
                "weighted moment bounds, identity map on the heavy-tailed demo law",
                dict(base1, p_values=[2, 4])),
        Fixture("student-weighted-moments-d2", "weighted-ladder", "weighted",
                "weighted moment bounds, bilinear form on the 2-D demo product",
                dict(base2, p_values=[2, 4])),
        Fixture("student-weighted-tail-d1", "weighted-tail", "weighted-tail",
                "weighted tail bound, d=1 window and beyond-window regimes",
                dict(base1, t_grid=[m * sd1 for m in TAIL_GRID_MULTIPLIERS])),
        Fixture("student-weighted-tail-d2", "weighted-tail", "weighted-tail",
                "weighted tail bound, d=2 window and beyond-window regimes",
                dict(base2, t_grid=[m * sqrt(sd2) for m in TAIL_GRID_MULTIPLIERS])),
    ]


def _wigner_fixtures():
    out = []
    for n in WIGNER_SIZES:
        out.append(Fixture(
            "wigner-gaussian-n%d" % n, "wigner-lss", "rmt",
            "recentered linear eigenvalue statistic of x^2/2, gaussian entries",
            {"matrix_size": n, "entry": {"dist": "gaussian", "params": {}},
             "draws": 2000, "cal_draws": 2000, "coeffs": [0.0, 0.0, 0.5],
             "t_grid": [1.0, 2.0, 4.0]}))
    return out


def inventory():
    """All shipped fixtures, deterministically ordered."""
    items = [
        Fixture("gauss-bilinear-exp-opnorm", "ladder-inf", "certify",
                "exp-moment certificate via the operator-norm ladder, f = x1*x2/sqrt(2)",
                _bilinear_payload()),
        Fixture("gauss-bilinear-exp-hs", "ladder-hs", "certify",
                "exp-moment certificate via centered derivatives + HS top norm",
                _bilinear_payload()),
    ]
    items.extend(_chaos_fixtures())
    items.extend(_weighted_fixtures())
    items.extend(_wigner_fixtures())
    return tuple(items)


def by_name(name):
    for fx in inventory():
        if fx.name == name:
            return fx
    raise KeyError("no fixture named %r" % (name,))
