"""Multivariate polynomial test functions with exact derivatives.

Polynomials are stored as sparse exponent-vector terms, so every mixed
partial derivative is available in closed form: as a constant symmetric
tensor once the requested order reaches the total degree, or evaluated at a
point otherwise. The homogeneous multilinear family (coefficients on strictly
increasing index tuples) gets a dedicated spec type whose order-d derivative
is a constant hypermatrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensors import SymTensor, canonical_layout, op_norms

# Rows per evaluation block, so each term's temporaries (64 kB at 8192 rows)
# stay in cache. Evaluating the 120-term n=10, d=3 chaos on 10^6 row-major
# points took 0.5 s with blocks of 4096-16384 rows and 1.4 s with blocks of
# 65536 rows (2-vCPU Xeon, numpy 2.4).
EVAL_BLOCK = 8192


def _falling(e, k):
    out = 1
    for j in range(k):
        out *= e - j
    return out


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

    @classmethod
    def zero(cls, dim):
        return cls(dim, ())

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
            self._add_terms(pts, out)
        else:
            for start in range(0, m, EVAL_BLOCK):
                stop = start + EVAL_BLOCK
                self._add_terms(pts[start:stop], out[start:stop])
        return float(out[0]) if single else out

    def _add_terms(self, pts, out):
        """out += every term evaluated at the rows of ``pts``."""
        for exps, coeff in self.terms:
            term = np.full(pts.shape[0], coeff)
            for i, e in enumerate(exps):
                if e == 1:
                    term *= pts[:, i]
                elif e > 1:
                    term *= pts[:, i] ** e
            out += term

    # -- algebra --------------------------------------------------------------

    def __add__(self, other):
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return PolyFunction.from_terms(self.dim, list(self.terms) + list(other.terms))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return PolyFunction.from_terms(
                self.dim, [(e, c * other) for e, c in self.terms])
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        prod = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                prod[key] = prod.get(key, 0.0) + c1 * c2
        return PolyFunction.from_terms(self.dim, prod)

    __rmul__ = __mul__

    def shifted(self, constant):
        """f + constant."""
        zero_key = (0,) * self.dim
        return PolyFunction.from_terms(self.dim, list(self.terms) + [(zero_key, constant)])

    # -- differentiation ------------------------------------------------------

    def partial(self, alpha):
        """Mixed partial derivative for a multi-exponent alpha (length dim)."""
        out = {}
        for exps, coeff in self.terms:
            c = coeff
            new = []
            for e, a in zip(exps, alpha):
                if e < a:
                    c = 0.0
                    break
                c *= _falling(e, a)
                new.append(e - a)
            if c != 0.0:
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
            for idx in canonical_layout(k, self.dim)[0]:
                alpha = [0] * self.dim
                for i in idx:
                    alpha[i] += 1
                table[idx] = self.partial(tuple(alpha))
            self._partials_by_order[k] = table
        return table

    def top_is_constant(self, k):
        """True when every order-k partial is constant (k >= total degree)."""
        return k >= self.degree

    def derivative_tensor(self, k, x=None):
        """Exact order-k derivative as a SymTensor.

        ``x`` may be omitted when the order-k derivative is constant; orders
        beyond the total degree give the zero tensor.
        """
        if k < 1:
            raise ValueError("derivative order must be >= 1")
        if k > self.degree:
            return SymTensor.zeros(k, self.dim)
        if x is None:
            if not self.top_is_constant(k):
                raise ValueError("order-%d derivative is not constant; a point is required" % k)
            x = np.zeros(self.dim)
        indices, vals = self.derivative_batch(k, np.asarray(x, dtype=np.float64)[None, :])
        return SymTensor.from_entries(k, self.dim, dict(zip(indices, vals[0].tolist())))

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

    def second_moment(self, moment):
        """E f(X)^2 via exact squaring."""
        return (self * self).expectation(moment)

    # -- serialization -----------------------------------------------------------

    def to_dict(self):
        return {"dim": self.dim,
                "terms": [{"exponents": list(e), "coeff": c} for e, c in self.terms]}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data):
        return cls.from_terms(int(data["dim"]),
                              [(tuple(t["exponents"]), float(t["coeff"])) for t in data["terms"]])

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


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

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data):
        return cls.from_coeffs(int(data["dim"]), int(data["order"]),
                               {tuple(c["index"]): float(c["value"]) for c in data["coeffs"]})

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def from_multilinear(spec):
    """(PolyFunction, constant order-d SymTensor) for a multilinear spec.

    The tensor entry at any permutation of (i_1 < ... < i_d) is the
    coefficient itself: differentiating the single term a*X_{i1}...X_{id} by
    each variable once leaves a.
    """
    terms = {}
    tensor_entries = {}
    for idx, val in spec.coeffs:
        exps = [0] * spec.dim
        for i in idx:
            exps[i] = 1
        terms[tuple(exps)] = val
        tensor_entries[idx] = val
    f = PolyFunction.from_terms(spec.dim, terms)
    A = SymTensor.from_entries(spec.order, spec.dim, tensor_entries)
    return f, A


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
