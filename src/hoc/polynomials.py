"""Multivariate polynomial test functions with exact derivatives.

Polynomials are stored as sparse exponent-vector terms, so every mixed
partial derivative is available in closed form. Values are taken by prefix
groups (``adder``): each term c x^alpha is (x^alpha / x_k)(c x_k), k its
last nonzero coordinate, and the terms of one prefix share one pass per
prefix factor, as in a one-level multivariate Horner scheme (Pena & Sauer,
SIAM J. Numer. Anal. 37, 2000); every step is an elementwise ufunc, so a
row's bits do not depend on the batch. The order-k partials of all
terms form one numpy table (``partial_table``): ``derivative_dense``
evaluates its rows, as a constant symmetric tensor once the requested order
reaches the total degree or at each point otherwise, and ``hoc.bounds``
reads the same table for the exact rungs and the centering test. The
homogeneous multilinear family (coefficients on strictly increasing index
tuples) gets a dedicated spec type whose order-d derivative is a constant
hypermatrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._util import EVAL_BLOCK, is_finite_number, is_integer, require_all
from .tensors import canonical_layout, op_norms


@dataclass(frozen=True)
class PolyFunction:
    """Polynomial R^dim -> R as a tuple of (exponent tuple, coefficient)."""

    dim: int
    terms: tuple

    def __post_init__(self):
        for exps, coeff in self.terms:
            if len(exps) != self.dim or any(e < 0 for e in exps):
                raise ValueError("bad exponent tuple %r for dim %d" % (exps, self.dim))
            if coeff == 0.0:
                raise ValueError("zero-coefficient term stored at %r" % (exps,))

    @classmethod
    def from_terms(cls, dim, terms):
        """Build from {exponents: coeff} or an iterable of pairs; merges duplicates."""
        merged = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exps, coeff in items:
            key = tuple(int(e) for e in exps)
            merged[key] = merged.get(key, 0.0) + float(coeff)
        cleaned = tuple(sorted((k, v) for k, v in merged.items() if v != 0.0))
        return cls(dim, cleaned)

    @property
    def degree(self):
        return max((sum(e) for e, _ in self.terms), default=0)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x):
        """Value at a point (shape (dim,)) or a batch (shape (m, dim)).

        A batch is evaluated EVAL_BLOCK rows at a time by one ``adder``, so
        its scratch rows stay in cache; every step is elementwise, so each
        row sees the same operations in the same order whatever the batch
        size, and values are bit-identical to a whole-batch evaluation. This
        block is much smaller than the 65536-row ``SAMPLE_BLOCK`` of the
        sampler, which is fixed by the random-stream layout, not by the
        cache.
        """
        pts = np.asarray(x, dtype=np.float64)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.shape[1] != self.dim:
            raise ValueError("points of dimension %d, polynomial has dim %d"
                             % (pts.shape[1], self.dim))
        m = pts.shape[0]
        out = np.zeros(m)
        add = self.adder()
        if m <= EVAL_BLOCK:
            add(pts.T, out)
        else:
            for start in range(0, m, EVAL_BLOCK):
                stop = start + EVAL_BLOCK
                add(pts[start:stop].T, out[start:stop])
        return float(out[0]) if single else out

    @functools.cached_property
    def _groups(self):
        """(constant, groups): the constant term's coefficient (None when
        there is none) and the other terms grouped by prefix.

        A term c x^alpha is (x^alpha / x_k)(c x_k), k its last coordinate
        with a nonzero exponent. Each group is (linear, prefix): the (c, k)
        of its terms, in term order, and the (i, e) factors x_i^e of their
        common prefix x^alpha / x_k, ascending in i. Built at the first
        evaluation, so ``resolve`` never pays for it, and kept on the
        instance rather than in a module cache, which the many short-lived
        partials of ``derivative_dense`` would fill.
        """
        constant, groups = None, {}
        for exps, coeff in self.terms:
            nonzero = [i for i, e in enumerate(exps) if e]
            if not nonzero:
                constant = coeff
                continue
            k = nonzero[-1]
            prefix = list(exps)
            prefix[k] -= 1
            factors = tuple((i, e) for i, e in enumerate(prefix) if e)
            groups.setdefault(factors, []).append((coeff, k))
        return constant, tuple((tuple(linear), factors) for factors, linear in groups.items())

    def adder(self):
        """A function add(cols, out) doing out += f at the rows whose
        coordinate i is ``cols[i]``: a batch's ``pts.T``, or the separate
        column pieces of one chunk of ``measures.stream``.

        The constant term goes in first. Then, per group of ``_groups``, one
        scratch row y gets the linear part sum c * x_k (the first term as
        c * x_k, each further one through a second scratch row), is
        multiplied by each prefix factor once (a power as ``col ** e``) and
        is added to out. Every step is an elementwise ufunc, and no term
        costs more than one multiply and one add, so this makes no more
        passes than evaluating term by term. The two scratch rows are made
        at the first call and serve every later call of as many rows or
        fewer: one per ``evaluate`` or per sample stream. They are two
        allocations, not one (2, rows) array: at EVAL_BLOCK rows each fits
        the 128 kB blocks the heap holds free between runs, where one
        256 kB block raised chaos-tails' peak RSS by about 0.25 MB.
        """
        constant, groups = self._groups
        scratch = ()

        def add(cols, out):
            nonlocal scratch
            rows = out.shape[0]
            if not scratch or scratch[0].size < rows:
                scratch = (np.empty(rows), np.empty(rows))
            y, term = (row[:rows] for row in scratch)
            if constant is not None:
                out += constant
            for linear, prefix in groups:
                (coeff, k), *rest = linear
                np.multiply(coeff, cols[k], out=y)
                for coeff, k in rest:
                    y += np.multiply(coeff, cols[k], out=term)
                for i, e in prefix:
                    y *= cols[i] if e == 1 else cols[i] ** e
                out += y

        return add

    def term_arrays(self):
        """(exps, coeffs): the exponent rows of the terms as an
        (n_terms, dim) int64 array and their coefficients, in term order."""
        exps = np.array([p for p, _ in self.terms], dtype=np.int64)
        return (exps.reshape(len(self.terms), self.dim),
                np.array([c for _, c in self.terms], dtype=np.float64))

    # -- differentiation ------------------------------------------------------

    def top_is_constant(self, k):
        """True when every order-k partial is constant (k >= total degree)."""
        return k >= self.degree

    def derivative_dense(self, k, points):
        """Order-k derivatives at each row of ``points`` as a dense
        (m,) + (dim,)*k stack, for ``tensors.op_norms``.

        Each canonical partial is the polynomial of its ``partial_table``
        rows, merged and sorted by ``from_terms``, evaluated at every row;
        ``tensors.canonical_layout`` spreads the partials over the slots.
        """
        pts = np.asarray(points, dtype=np.float64)
        exps, coeffs = self.term_arrays()
        _, alpha, a_of, t_of, c = partial_table(exps, coeffs, k)
        rows, c = (exps[t_of] - alpha[a_of]).tolist(), c.tolist()
        ends = np.searchsorted(a_of, np.arange(len(alpha) + 1)).tolist()
        vals = np.empty((pts.shape[0], len(alpha)))
        for a, (lo, hi) in enumerate(zip(ends, ends[1:])):
            partial = PolyFunction.from_terms(self.dim, zip(rows[lo:hi], c[lo:hi]))
            vals[:, a] = partial.evaluate(pts)
        _, slots = canonical_layout(k, self.dim)
        return vals[:, slots].reshape((vals.shape[0],) + (self.dim,) * k)

    # -- serialization -----------------------------------------------------------

    def to_dict(self):
        return {"dim": self.dim,
                "terms": [{"exponents": list(e), "coeff": c} for e, c in self.terms]}

    @classmethod
    def from_dict(cls, data):
        terms = [(t["exponents"], t["coeff"]) for t in data["terms"]]
        require_all(is_integer, "dim and exponents must be integers",
                    [data["dim"]] + [e for exps, _ in terms for e in exps])
        require_all(is_finite_number, "coefficients must be finite numbers", [c for _, c in terms])
        return cls.from_terms(data["dim"], terms)


def partial_table(exps, coeffs, k):
    """(index, alpha, a_of, t_of, c): the order-k partials of the terms
    (exps, coeffs), as one table of rows.

    index and alpha hold the canonical alpha in combinations_with_replacement
    order, as sorted index tuples and as exponent rows. Row r, alpha-major
    and in term order, is the term exps[t] - alpha[a] of partial a = a_of[r]
    for each term t = t_of[r] with exponents >= alpha. Its coefficient c[r]
    is the term's times the falling factorial of each differentiated
    coordinate, ascending, each an exact integer rounded once (inf past the
    float range).
    """
    dim = exps.shape[1]
    index = np.array(list(itertools.combinations_with_replacement(range(dim), k)),
                     dtype=np.intp)
    n_alpha = len(index)
    alpha = np.zeros((n_alpha, dim), dtype=np.int64)
    np.add.at(alpha, (np.arange(n_alpha)[:, None], index), 1)
    counts = np.take_along_axis(alpha, index, axis=1)  # alpha's count of each position
    at_least = exps.T[:, None, :] >= np.arange(k + 1)[:, None]  # [i, c, t]: exps[t, i] >= c
    valid = np.ones((n_alpha, len(exps)), dtype=bool)  # [a, t]: term t survives alpha a
    for j in range(k):
        valid &= at_least[index[:, j], counts[:, j]]
    # a coordinate's falling factorial sits at its first position in the
    # sorted index; a repeat position takes falling(e, 0) = 1.0
    steps = counts.copy()
    steps[:, 1:][index[:, 1:] == index[:, :-1]] = 0
    falling = np.array([[_rounded(math.perm(p, c)) for c in range(k + 1)]
                        for p in range(int(exps.max(initial=0)) + 1)])
    a_of, t_of = np.nonzero(valid)
    c = coeffs[t_of]
    with np.errstate(over="ignore"):
        for j in range(k):
            c *= falling[exps[t_of, index[a_of, j]], steps[a_of, j]]
    return index, alpha, a_of, t_of, c


def _rounded(n):
    """The integer n as a float, inf past the float range."""
    try:
        return float(n)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class MultilinearSpec:
    """Coefficients of a homogeneous multilinear polynomial.

    Coefficients live on strictly increasing index tuples; the symmetrized
    hypermatrix extends them to all permutations, with repeated-index entries
    zero.
    """

    dim: int
    order: int
    coeffs: tuple

    def __post_init__(self):
        if self.order < 1 or self.dim < self.order:
            raise ValueError("need 1 <= order <= dim")
        for idx, val in self.coeffs:
            if len(idx) != self.order:
                raise ValueError("index %r has wrong length" % (idx,))
            if any(b <= a for a, b in zip(idx, idx[1:])) or len(idx) != len(set(idx)):
                raise ValueError("index %r must be strictly increasing "
                                 "(repeated-index coefficients are not allowed)" % (idx,))
            if any(i < 0 or i >= self.dim for i in idx):
                raise ValueError("index %r out of range" % (idx,))
            if not math.isfinite(val):
                raise ValueError("non-finite coefficient at %r" % (idx,))

    @classmethod
    def from_coeffs(cls, dim, order, mapping):
        items = tuple(sorted((tuple(int(i) for i in k), float(v))
                             for k, v in mapping.items() if float(v) != 0.0))
        return cls(dim, order, items)

    def to_dict(self):
        return {"dim": self.dim, "order": self.order,
                "coeffs": [{"index": list(i), "value": v} for i, v in self.coeffs]}

    @classmethod
    def from_dict(cls, data):
        coeffs = [(c["index"], c["value"]) for c in data["coeffs"]]
        require_all(is_integer, "dim, order and indices must be integers",
                    [data["dim"], data["order"]] + [i for idx, _ in coeffs for i in idx])
        require_all(is_finite_number, "coefficients must be finite numbers", [v for _, v in coeffs])
        mapping = {tuple(i): v for i, v in coeffs}
        if len(mapping) < len(coeffs):  # the dict keeps one value per index
            raise ValueError("coeffs must not repeat an index, got %r"
                             % ([idx for idx, _ in coeffs],))
        return cls.from_coeffs(data["dim"], data["order"], mapping)


def from_multilinear(spec):
    """The PolyFunction of a multilinear spec, one term X_{i1}...X_{id} per
    coefficient; its constant order-d derivative is the symmetrized spec."""
    terms = {}
    for idx, val in spec.coeffs:
        exps = [0] * spec.dim
        for i in idx:
            exps[i] = 1
        terms[tuple(exps)] = val
    return PolyFunction.from_terms(spec.dim, terms)


def opnorm_gradient_check(f, k, x, h=1e-5):
    """Finite-difference check that the gradient of |f^(k-1)|_Op is bounded
    by |f^(k)|_Op at ``x``.

    Returns (lhs, rhs): lhs is the Euclidean norm of the central-difference
    gradient of y -> op_norm(f^(k-1)(y)); rhs is op_norm(f^(k)(x)). The
    2*dim perturbed points go to ``op_norms`` in one stack.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    x = np.asarray(x, dtype=np.float64)
    steps = h * np.eye(f.dim)
    g = op_norms(f.derivative_dense(k - 1, np.concatenate([x + steps, x - steps])))
    grad = (g[:f.dim] - g[f.dim:]) / (2.0 * h)
    lhs = float(np.linalg.norm(grad))
    rhs = float(op_norms(f.derivative_dense(k, x[None, :]))[0])
    return lhs, rhs
