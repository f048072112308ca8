"""Reference implementations the tests compare hoc against, and two
constructors only the tests use.

The whole-sample draw (``sample``, ``fill_block``) is what
``measures.stream`` must give piece by piece. The term-by-term polynomial
algebra (``partial``, ``mul``, ``expectation``, ``shifted`` and
``order_partials``) is what the partial table, ``derivative_dense`` and
the exact rungs must give bit for bit, and so is ``grouped_eval`` for
``PolyFunction.evaluate``. The cyclic Jacobi solver checks LAPACK's
``eigvalsh``, ``weighted_spectral_gap`` the closed-form weighted kappa, and
``relative_domination`` compares two estimated norms. ``iid`` builds a
product of one law and ``certificate_from_dict`` reads a report's
certificate back. Nothing in ``src/hoc`` imports this module.
"""

from __future__ import annotations

import itertools
import math
from math import sqrt

import numpy as np

from hoc._util import SAMPLE_BLOCK, substream
from hoc.bounds import Certificate
from hoc.measures import CoordinateDist, MeasureSpec, draw_coordinate
from hoc.polynomials import PolyFunction

JACOBI_MAX_SIZE = 64


# -- the whole evaluation sample ------------------------------------------------

def fill_block(spec, seed, block_index, out):
    """Draw block ``block_index`` of ``sample(spec, m, seed)`` into ``out``.

    The block's rows come from substream (seed, block_index), one coordinate
    column at a time, so every column of ``out`` (shape (rows, dim)) must be
    contiguous: a column-major array or a row slice of one. ``rows`` is
    SAMPLE_BLOCK for every block but the last, which holds the remainder.
    """
    rng = substream(seed, block_index)
    for j, coord in enumerate(spec.coords):
        draw_coordinate(rng, coord, out.shape[0], out=out[:, j])
    return out


def sample(spec, m, seed):
    """(m, dim) draws from the product measure; deterministic in (seed, m).

    The array is column-major, so ``fill_block`` writes each block into it
    in place.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    out = np.empty((m, spec.dim), order="F")
    for block_index, start in enumerate(range(0, m, SAMPLE_BLOCK)):
        fill_block(spec, seed, block_index, out[start:start + SAMPLE_BLOCK])
    return out


# -- polynomial algebra -----------------------------------------------------------

def mul(f, other):
    """f * other."""
    if other.dim != f.dim:
        raise ValueError("dimension mismatch")
    prod = {}
    for e1, c1 in f.terms:
        for e2, c2 in other.terms:
            key = tuple(a + b for a, b in zip(e1, e2))
            prod[key] = prod.get(key, 0.0) + c1 * c2
    return PolyFunction.from_terms(f.dim, prod)


def shifted(f, constant):
    """f + constant."""
    zero_key = (0,) * f.dim
    return PolyFunction.from_terms(f.dim, list(f.terms) + [(zero_key, constant)])


def partial(f, alpha):
    """Mixed partial derivative for a multi-exponent alpha (length dim)."""
    steps = [(i, a) for i, a in enumerate(alpha) if a]  # at most k of dim
    out = {}
    for exps, coeff in f.terms:
        if any(exps[i] < a for i, a in steps):
            continue
        c, new = coeff, list(exps)
        for i, a in steps:
            c *= math.perm(exps[i], a)
            new[i] -= a
        key = tuple(new)
        out[key] = out.get(key, 0.0) + c
    return PolyFunction.from_terms(f.dim, out)


def order_partials(f, k):
    """{canonical index tuple: partial PolyFunction} for order k, in
    ``tensors.canonical_layout`` order."""
    table = {}
    for idx in itertools.combinations_with_replacement(range(f.dim), k):
        alpha = [0] * f.dim
        for i in idx:
            alpha[i] += 1
        table[idx] = partial(f, tuple(alpha))
    return table


def grouped_eval(f, pts):
    """f at each row of ``pts`` (shape (m, dim)) by prefix groups, whole
    columns at a time.

    Each term c x^alpha is split as (x^alpha / x_k)(c x_k), k its last
    coordinate with a nonzero exponent. The constant term is added first;
    then each prefix, in the order of its first term, adds
    (sum of c x_k over its terms, in term order) times its factors x_i^e,
    ascending in i, a power as ``col ** e``.
    """
    pts = np.asarray(pts, dtype=np.float64)
    out = np.zeros(pts.shape[0])
    groups = {}
    for exps, coeff in f.terms:
        k = max((i for i, e in enumerate(exps) if e), default=None)
        if k is None:
            out = out + coeff
            continue
        prefix = list(exps)
        prefix[k] -= 1
        groups.setdefault(tuple(prefix), []).append((coeff, k))
    for prefix, linear in groups.items():
        y = None
        for coeff, k in linear:
            y = coeff * pts[:, k] if y is None else y + coeff * pts[:, k]
        for i, e in enumerate(prefix):
            if e:
                y = y * (pts[:, i] if e == 1 else pts[:, i] ** e)
        out = out + y
    return out


def expectation(f, moment):
    """E f(X) for independent coordinates; ``moment(i, k)`` = E X_i^k."""
    total = 0.0
    for exps, coeff in f.terms:
        prod = coeff
        for i, e in enumerate(exps):
            if e > 0:
                m = moment(i, e)
                if math.isinf(m):
                    return math.inf if prod > 0 else -math.inf
                prod *= m
            if prod == 0.0:
                break
        total += prod
    return total


# -- eigenvalues ---------------------------------------------------------------------

def jacobi_eigenvalues(matrix, tol=1e-14, max_sweeps=60):
    """Cyclic Jacobi eigenvalues of a small symmetric matrix, ascending.

    Independent of the LAPACK path on purpose: this is the oracle the
    production solver is checked against. Limited to N <= 64.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > JACOBI_MAX_SIZE:
        raise ValueError("the Jacobi oracle is limited to N <= %d" % JACOBI_MAX_SIZE)
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    scale = np.max(np.abs(a)) or 1.0
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                off = max(off, abs(apq))
                if abs(apq) <= tol * scale:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = math.copysign(1.0, theta) / (abs(theta) + sqrt(theta * theta + 1.0))
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
        if off <= tol * scale:
            break
    return np.sort(np.diag(a))


# -- the weighted spectral gap --------------------------------------------------

def _weighted_gap_once(density, weight, lo, hi, gridpoints):
    from scipy.linalg import eigh_tridiagonal

    x = np.linspace(lo, hi, gridpoints)
    h = x[1] - x[0]
    mid = 0.5 * (x[:-1] + x[1:])
    w_mid = np.asarray(weight(mid), dtype=np.float64)
    flux = np.asarray(density(mid), dtype=np.float64) * w_mid * w_mid / h**2
    mass = np.array(density(x), dtype=np.float64)
    if np.any(mass <= 0.0):
        raise ValueError("density must be positive on the interval")
    mass[[0, -1]] *= 0.5
    diag = np.zeros(gridpoints)
    diag[:-1] += flux
    diag[1:] += flux
    vals = eigh_tridiagonal(diag / mass, -flux / np.sqrt(mass[:-1] * mass[1:]),
                            select="i", select_range=(0, 1), eigvals_only=True)
    return float(vals[1])


def weighted_spectral_gap(density, weight, lo, hi, gridpoints):
    """(lambda1, stable) of -(p w^2 u')' = lambda p u with zero-flux ends on
    [lo, hi]: the finite-difference Neumann problem, symmetrized to a
    tridiagonal one, at ``gridpoints`` and at double resolution, stable when
    the two agree within 1e-3 relative. 1/lambda1 certifies the weighted
    inequality with weight w/sqrt(lambda1)."""
    coarse = _weighted_gap_once(density, weight, lo, hi, gridpoints)
    fine = _weighted_gap_once(density, weight, lo, hi, 2 * gridpoints - 1)
    return fine, abs(fine - coarse) <= 1e-3 * abs(fine)


# -- checks and constructors ----------------------------------------------------------

def relative_domination(lhs, lhs_se, rhs, rhs_se, slack=5.0):
    """lhs <= rhs * (1 + slack * combined relative SE); both sides estimated."""
    if rhs <= 0:
        return lhs <= 0
    rel = 0.0
    if lhs > 0:
        rel += (lhs_se / lhs) ** 2
    rel += (rhs_se / rhs) ** 2
    return lhs <= rhs * (1.0 + slack * sqrt(rel))


def iid(dist, dim, **params):
    """The product measure of ``dim`` copies of one catalog law."""
    coord = CoordinateDist.make(dist, **params)
    return MeasureSpec(dim, (coord,) * dim)


def certificate_from_dict(data):
    """The Certificate a ``Certificate.to_dict`` (or report.json) holds."""
    return Certificate(data["kind"], data["route"], dict(data["constants"]),
                       float(data.get("rescale_lambda", 1.0)))
