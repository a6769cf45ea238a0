import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

from stablerank import (
    SparseTensor,
    ascend,
    flatten,
    grank_upper_search,
    mode_apply,
    objective,
    sandwich,
    spectral_norm,
    stationarity_residual,
    to_dense_complex,
)

from conftest import indicator_tensor, random_support

W_DENSE = np.zeros((2, 2, 2), dtype=complex)
W_DENSE[1, 0, 0] = W_DENSE[0, 1, 0] = W_DENSE[0, 0, 1] = 1.0


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_boxtimes(a, b):
    """Dense Kronecker product per mode, for the product-inequality oracle."""
    d = a.ndim
    t = np.tensordot(a, b, axes=0)
    order = [k for i in range(d) for k in (i, d + i)]
    t = np.transpose(t, order)
    return t.reshape([a.shape[i] * b.shape[i] for i in range(d)])


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-12)

    def test_w_flattening(self):
        assert spectral_norm(flatten(W_DENSE, 0)) == pytest.approx(
            np.sqrt(2.0), abs=1e-12
        )

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 4))) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectral_norm(np.zeros((0, 2)))

    def test_against_eigendecomposition_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            m = rng.integers(1, 65)
            n = rng.integers(1, 65)
            a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            gram_eigs = np.linalg.eigvalsh(a @ a.conj().T)
            assert spectral_norm(a) == pytest.approx(
                float(np.sqrt(gram_eigs[-1])), abs=1e-10
            )

    @pytest.mark.parametrize("gap", [1e-8, 1e-10])
    @pytest.mark.parametrize("k,n", [(4, 16), (5, 25), (3, 27)])
    def test_near_degenerate_singular_values(self, k, n, gap):
        # rows of a unitary scaled by 1, 1+gap, ...: the singular values are
        # known exactly, without a Gram matrix
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        a = (1.0 + gap * np.arange(k))[:, None] * q[:k]
        exact = 1.0 + gap * (k - 1)
        assert abs(spectral_norm(a) - exact) <= 1e-14 * exact


class TestObjective:
    def test_w_state_at_identity(self):
        eye = [np.eye(2)] * 3
        assert objective(W_DENSE, eye, (1, 1, 1)) == pytest.approx(1.5, abs=1e-9)

    def test_rank_one(self):
        rng = np.random.default_rng(3)
        t = np.einsum("i,j,k->ijk", *[rng.normal(size=n) for n in (2, 3, 2)])
        eye = [np.eye(n) for n in (2, 3, 2)]
        assert objective(t, eye, (1, 1, 1)) == pytest.approx(1.0, abs=1e-9)

    def test_per_mode_scaling_invariance(self):
        gs = [np.eye(2), 3.5 * np.eye(2), -2.0 * np.eye(2)]
        base = objective(W_DENSE, [np.eye(2)] * 3, (1, 2, 1))
        assert objective(W_DENSE, gs, (1, 2, 1)) == pytest.approx(base, abs=1e-9)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        t = rng.normal(size=(2, 3, 2)) + 1j * rng.normal(size=(2, 3, 2))
        base = objective(t, [np.eye(2), np.eye(3), np.eye(2)], (1, 1, 1))
        for _ in range(5):
            us = [random_unitary(rng, n) for n in (2, 3, 2)]
            assert objective(t, us, (1, 1, 1)) == pytest.approx(base, abs=1e-9)

    def test_mode_permutation_invariance(self):
        rng = np.random.default_rng(11)
        t = rng.normal(size=(2, 2, 3))
        alpha = (F(1), F(2), F(3))
        eyes = [np.eye(2), np.eye(2), np.eye(3)]
        base = objective(t, eyes, alpha)
        for perm in itertools.permutations(range(3)):
            pt = np.transpose(t, perm)
            p_alpha = tuple(alpha[i] for i in perm)
            p_eyes = [eyes[i] for i in perm]
            assert objective(pt, p_eyes, p_alpha) == pytest.approx(base, abs=1e-9)

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            objective(np.zeros((2, 2)), [np.eye(2)] * 2, (1, 1))


class TestStationarityResidual:
    def test_w_state_at_its_rank(self):
        assert stationarity_residual(W_DENSE, (1, 1, 1), 1.5) <= 1e-12

    def test_zero_level_always_holds(self):
        rng = np.random.default_rng(13)
        t = rng.normal(size=(3, 2, 2))
        assert stationarity_residual(t, (1, 1, 1), 0.0) == 0.0

    def test_w_state_above_its_rank(self):
        assert stationarity_residual(W_DENSE, (1, 1, 1), 3.0) > 0.5


class TestAscend:
    def test_w_state(self):
        report = ascend(W_DENSE, (1, 1, 1))
        assert abs(report.bound - 1.5) <= 1e-6
        assert report.stationarity_residual <= 1e-9

    def test_rank_one_reaches_min_weight(self):
        t = np.zeros((2, 2, 2), dtype=complex)
        t[0, 1, 0] = 2.0
        report = ascend(t, (F(2), F(3), F(5)))
        assert abs(report.bound - 2.0) <= 1e-9

    def test_diagonal_tensors(self):
        for r in (2, 3, 4):
            t = np.zeros((r, r, r), dtype=complex)
            for i in range(r):
                t[i, i, i] = 1.0
            assert abs(ascend(t, (1, 1, 1)).bound - r) <= 1e-4

    def test_bound_is_monotone_in_iterations(self):
        rng = np.random.default_rng(17)
        t = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        short = ascend(t, max_iters=5, tol=0.0)
        long = ascend(t, max_iters=50, tol=0.0)
        assert long.bound >= short.bound - 1e-12

    def test_group_reproduces_bound(self):
        rng = np.random.default_rng(19)
        t = rng.normal(size=(2, 3, 2))
        report = ascend(t, (1, 1, 1), max_iters=40)
        assert objective(t, report.group, (1, 1, 1)) == pytest.approx(
            report.bound, abs=1e-9
        )

    def test_lower_bound_below_search_upper_bound(self):
        rng = random.Random(23)
        for _ in range(6):
            s = random_support(rng, order=3, max_dim=3, max_elems=6)
            v = indicator_tensor(s)
            lower = ascend(to_dense_complex(v), max_iters=80).bound
            upper = grank_upper_search(v, budget=40, seed=1)
            assert lower <= float(upper) + 1e-6


class TestProductInequality:
    def test_objective_at_paired_transforms(self):
        # min ratio at g (x) h on the mode-paired product is at least the
        # product of the min ratios at g and at h
        rng = np.random.default_rng(29)
        for _ in range(5):
            a = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
            b = rng.normal(size=(2, 3, 2)) + 1j * rng.normal(size=(2, 3, 2))
            ga = ascend(a, max_iters=30).group
            gb = ascend(b, max_iters=30).group
            alpha = (F(1), F(2), F(1))
            beta = (F(3), F(1), F(1))
            prod = dense_boxtimes(a, b)
            paired = [np.kron(x, y) for x, y in zip(ga, gb)]
            alphabeta = tuple(x * y for x, y in zip(alpha, beta))
            lhs = objective(prod, paired, alphabeta)
            rhs = objective(a, ga, alpha) * objective(b, gb, beta)
            assert lhs >= rhs - 1e-4

    def test_ascend_products(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            a = rng.normal(size=(2, 2, 2))
            b = rng.normal(size=(2, 2, 2))
            bound_prod = ascend(dense_boxtimes(a, b), max_iters=60).bound
            bound_a = ascend(a, max_iters=60).bound
            bound_b = ascend(b, max_iters=60).bound
            assert bound_prod >= bound_a * bound_b - 1e-4


class TestSandwich:
    def test_w_state(self):
        v = SparseTensor((2, 2, 2), {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
        res = sandwich(v)
        assert res.upper == F(3, 2)
        assert abs(res.lower - 1.5) <= 1e-6
        assert res.lower <= float(res.upper) + 1e-9

    def test_rank_one(self):
        v = SparseTensor((2, 2), {(1, 1): F(5, 2)})
        res = sandwich(v)
        assert res.upper == 1 and abs(res.lower - 1.0) <= 1e-6

    def test_two_term_diagonal(self):
        v = SparseTensor((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
        res = sandwich(v)
        assert res.upper == 2 and abs(res.lower - 2.0) <= 1e-6

    def test_zero_tensor(self):
        res = sandwich(SparseTensor((2, 2), {}))
        assert res.lower == 0.0 and res.upper == 0

    def test_mod_tensor_rejected(self):
        from stablerank import mod_domain

        v = SparseTensor((2, 2), {(0, 0): 1}, mod_domain(2))
        with pytest.raises(ValueError):
            sandwich(v)

    def test_mode_apply_matches_einsum(self):
        rng = np.random.default_rng(37)
        t = rng.normal(size=(2, 3, 4))
        gs = [rng.normal(size=(n, n)) for n in (2, 3, 4)]
        expect = np.einsum("ai,bj,ck,ijk->abc", gs[0], gs[1], gs[2], t)
        assert np.allclose(mode_apply(t, gs), expect)
