"""Kernel contracts: contractions against einsum, power iteration against eigh."""

import numpy as np
import pytest

from hoc import kernels


def sym_dense(order, dim, seed):
    import itertools
    import math
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim,) * order)
    out = np.zeros_like(a)
    for perm in itertools.permutations(range(order)):
        out += a.transpose(perm)
    return np.ascontiguousarray(out / math.factorial(order))


def einsum_diagonal(tensor, points):
    d = tensor.ndim
    letters = "abcdef"[:d]
    spec = ",".join("z" + c for c in letters)
    return np.einsum(letters + "," + spec + "->z", tensor,
                     *([points] * d))


def test_diagonal_values_matches_einsum():
    for order in (1, 2, 3, 4, 5):
        t = sym_dense(order, 4, order)
        pts = np.random.default_rng(50 + order).standard_normal((20, 4))
        want = einsum_diagonal(t, pts)
        got = kernels.diagonal_values(t, pts)
        assert np.allclose(got, want, rtol=1e-10)


def test_diagonal_apply_matches_fd_of_form():
    # T[v,..,v,.] is (1/d) * gradient of v -> T[v..v] for symmetric T
    order, dim = 3, 3
    t = sym_dense(order, dim, 9)
    pts = np.random.default_rng(1).standard_normal((5, dim))
    grad = kernels.diagonal_apply(t, pts)
    h = 1e-6
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        num = (einsum_diagonal(t, pts + e) - einsum_diagonal(t, pts - e)) / (2 * h)
        assert np.allclose(order * grad[:, j], num, rtol=1e-5, atol=1e-7)


def test_power_opnorm_matrix_sweep():
    # +/- sweep over the shifted power map recovers the spectral norm
    t = sym_dense(2, 6, 31)
    starts = np.random.default_rng(2).standard_normal((32, 6))
    shift = 1.0 + float(np.abs(t).sum())
    hi = kernels.power_opnorm(t[None], starts, [shift])[0]
    lo = kernels.power_opnorm(-t[None], starts, [shift])[0]
    eig = np.linalg.eigvalsh(t)
    assert hi == pytest.approx(float(eig[-1]), rel=1e-8)
    assert lo == pytest.approx(float(-eig[0]), rel=1e-8)
    assert max(hi, lo) == pytest.approx(float(np.max(np.abs(eig))), rel=1e-8)


def test_power_opnorm_stack_matches_one_tensor_calls(monkeypatch):
    # each tensor stops on its own restarts, so its value is what it gives in a
    # stack of one, whatever else shares the stack or the chunk
    starts = np.random.default_rng(3).standard_normal((16, 3))
    for order in (1, 2, 3, 4):
        stack = np.stack([sym_dense(order, 3, 10 * order + i) for i in range(6)]
                         + [np.zeros((3,) * order)])
        scale = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 0.0])
        shifts = scale * np.sqrt((stack.reshape(7, -1) ** 2).sum(axis=1))
        whole = kernels.power_opnorm(stack, starts, shifts)
        alone = [kernels.power_opnorm(stack[i:i + 1], starts, shifts[i:i + 1])[0]
                 for i in range(7)]
        assert np.array_equal(whole, alone)
        assert whole[-1] == 0.0
        if order > 1:
            # step counts differ: after 20 steps some tensors have stopped, some not
            early = kernels.power_opnorm(stack, starts, shifts, max_iter=20)
            assert 0 < np.sum(early == whole) < 7
        monkeypatch.setattr(kernels, "_CHUNK_FLOATS", 1)  # one tensor per chunk
        assert np.array_equal(kernels.power_opnorm(stack, starts, shifts), whole)
        monkeypatch.undo()


def test_shape_validation():
    t = sym_dense(2, 3, 1)
    with pytest.raises(ValueError):
        kernels.diagonal_values(t, np.zeros(3))          # 1-D points
    with pytest.raises(ValueError):
        kernels.diagonal_values(t, np.zeros((4, 2)))     # dim mismatch
    with pytest.raises(ValueError):
        kernels.power_opnorm(t[None], np.ones((4, 3)), [1.0, 2.0])  # one shift per tensor
