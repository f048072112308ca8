"""Multivariate polynomial test functions with exact derivatives.

Polynomials are stored as sparse exponent-vector terms, so every mixed
partial derivative is available in closed form: as a constant symmetric
tensor once the requested order reaches the total degree, or evaluated at a
point otherwise. The homogeneous multilinear family (coefficients on strictly
increasing index tuples) gets a dedicated spec type whose order-d derivative
is a constant hypermatrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import is_finite_number, is_integer, require_all
from .tensors import canonical_layout, op_norms

# Rows per evaluation block, so each term's temporaries (128 kB at 16384
# rows) stay in cache. Evaluating the 120-term n=10, d=3 chaos on 16
# column-major 65536-row sample blocks took 0.19 s with blocks of 16384 or
# 32768 rows, 0.27-0.28 s with 8192 and 0.26 s with 65536 (best of 5,
# 2-vCPU Xeon with 2 MB of L2 per core, numpy 2.4). It is also the piece
# size in which ``experiments._eval_blocks`` draws each sample column, so it
# must divide the sampler's SAMPLE_BLOCK: a row chunk never straddles two
# blocks, which come from different substreams.
EVAL_BLOCK = 16384


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

        A batch is evaluated EVAL_BLOCK rows at a time, so every per-term
        temporary stays in cache; each row sees the same operations in the
        same order whatever the batch size, so values are bit-identical to a
        whole-batch evaluation. This block is much smaller than the
        65536-row ``SAMPLE_BLOCK`` of the sampler, which is fixed by the
        random-stream layout, not by the cache.
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
        if m <= EVAL_BLOCK:
            self._add_terms(pts.T, out)
        else:
            for start in range(0, m, EVAL_BLOCK):
                stop = start + EVAL_BLOCK
                self._add_terms(pts[start:stop].T, out[start:stop])
        return float(out[0]) if single else out

    def _add_terms(self, cols, out):
        """out += every term evaluated at the rows whose coordinate i is
        ``cols[i]``: a batch's ``pts.T``, or the separate column pieces of
        one chunk of ``experiments._eval_blocks``.

        One ``term`` buffer serves every term. Its first factor goes in as
        coeff * column, the same product as filling with coeff and then
        multiplying by the column; a constant term is coeff itself.
        """
        term = np.empty(out.shape[0])
        for exps, coeff in self.terms:
            started = False
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                col = cols[i] if e == 1 else cols[i] ** e
                if started:
                    term *= col
                else:
                    np.multiply(coeff, col, out=term)
                    started = True
            if not started:
                term.fill(coeff)
            out += term

    # -- algebra --------------------------------------------------------------

    def __mul__(self, other):
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        prod = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                prod[key] = prod.get(key, 0.0) + c1 * c2
        return PolyFunction.from_terms(self.dim, prod)

    def shifted(self, constant):
        """f + constant."""
        zero_key = (0,) * self.dim
        return PolyFunction.from_terms(self.dim, list(self.terms) + [(zero_key, constant)])

    # -- differentiation ------------------------------------------------------

    def partial(self, alpha):
        """Mixed partial derivative for a multi-exponent alpha (length dim)."""
        steps = [(i, a) for i, a in enumerate(alpha) if a]  # at most k of dim
        out = {}
        for exps, coeff in self.terms:
            if any(exps[i] < a for i, a in steps):
                continue
            c, new = coeff, list(exps)
            for i, a in steps:
                c *= math.perm(exps[i], a)
                new[i] -= a
            key = tuple(new)
            out[key] = out.get(key, 0.0) + c
        return PolyFunction.from_terms(self.dim, out)

    @cached_property
    def gradient(self):
        """Tuple of the dim first partials."""
        return tuple(self._order_partials(1).values())

    @cached_property
    def _partials_by_order(self):
        return {}

    def _order_partials(self, k):
        """{canonical index tuple: partial PolyFunction} for order k.

        Worked out once per order and kept on the (immutable) polynomial;
        callers must not modify the returned table.
        """
        table = self._partials_by_order.get(k)
        if table is None:
            table = {}
            # canonical_layout's order, without building its dim^k slot table
            for idx in itertools.combinations_with_replacement(range(self.dim), k):
                alpha = [0] * self.dim
                for i in idx:
                    alpha[i] += 1
                table[idx] = self.partial(tuple(alpha))
            self._partials_by_order[k] = table
        return table

    def top_is_constant(self, k):
        """True when every order-k partial is constant (k >= total degree)."""
        return k >= self.degree

    def derivative_batch(self, k, points):
        """Canonical order-k derivative values per point.

        Returns (canonical index list, (m, n_canonical) value array), the
        columns in ``tensors.canonical_layout`` order.
        """
        pts = np.asarray(points, dtype=np.float64)
        partials = self._order_partials(k)
        indices = list(partials)
        vals = np.empty((pts.shape[0], len(indices)))
        for col, idx in enumerate(indices):
            vals[:, col] = partials[idx].evaluate(pts)
        return indices, vals

    def derivative_dense(self, k, points):
        """Order-k derivatives at each row of ``points`` as a dense
        (m,) + (dim,)*k stack, for ``tensors.op_norms``."""
        _, vals = self.derivative_batch(k, points)
        _, slots = canonical_layout(k, self.dim)
        return vals[:, slots].reshape((vals.shape[0],) + (self.dim,) * k)

    # -- exact expectations ----------------------------------------------------

    def expectation(self, moment):
        """E f(X) for independent coordinates; ``moment(i, k)`` = E X_i^k."""
        total = 0.0
        for exps, coeff in self.terms:
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
