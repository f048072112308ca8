"""Dense symmetric-tensor kernels in numpy.

Tensors are dense float64 arrays of shape (n,)*d, points (m, n) batches. The
public functions check shapes once; the power-iteration loop calls the
unchecked contractions.
"""

import numpy as np


def _coerce(tensor, points):
    t = np.ascontiguousarray(tensor, dtype=np.float64)
    p = np.ascontiguousarray(points, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("points must be a 2-D batch, got shape %r" % (p.shape,))
    if t.ndim < 1 or any(s != p.shape[1] for s in t.shape):
        raise ValueError("tensor shape %r does not match point dimension %d"
                         % (t.shape, p.shape[1]))
    return t, p


def _fold(tensor, points, keep):
    """Contract all but ``keep`` slots of ``tensor`` with each row of ``points``."""
    m, n = points.shape
    out = points @ tensor.reshape(n, -1)
    for _ in range(tensor.ndim - 1 - keep):
        out = np.matmul(points[:, None, :], out.reshape(m, n, -1))[:, 0, :]
    return out


def _apply(tensor, points):
    m, n = points.shape
    if tensor.ndim == 1:
        return np.broadcast_to(tensor, (m, n)).copy()
    return _fold(tensor, points, 1)


def diagonal_values(tensor, points):
    """T[v, ..., v] for each row v of ``points``. Returns shape (m,)."""
    t, p = _coerce(tensor, points)
    if t.ndim == 1:
        return p @ t
    return _fold(t, p, 0)[:, 0]


def diagonal_apply(tensor, points):
    """Gradient map T[v, ..., v, .] for each row v. Returns shape (m, n)."""
    return _apply(*_coerce(tensor, points))


def power_opnorm(tensor, starts, shift, tol=1e-10, max_iter=10000):
    """Largest fixed-point value of the shifted power map x -> T[x..x,.] + shift*x.

    All restart rows of ``starts`` run in lockstep until every row's form
    value T[x,...,x] moved by at most ``tol`` in one step, so the result
    depends only on the inputs. The caller is responsible for the +/- sweep.
    """
    t, s = _coerce(tensor, starts)
    shift = float(shift)
    x = s / np.linalg.norm(s, axis=1, keepdims=True)
    w = _apply(t, x)
    vals = np.einsum("ij,ij->i", x, w)
    for _ in range(int(max_iter)):
        y = w + shift * x
        norms = np.linalg.norm(y, axis=1, keepdims=True)
        np.clip(norms, 1e-300, None, out=norms)
        x = y / norms
        w = _apply(t, x)
        new_vals = np.einsum("ij,ij->i", x, w)
        done = np.all(np.abs(new_vals - vals) <= tol)
        vals = new_vals
        if done:
            break
    return float(np.max(vals))
