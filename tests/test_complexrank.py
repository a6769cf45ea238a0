import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

from stablerank import (
    MatrixTuple,
    SparseTensor,
    Support,
    grank_upper_search,
    ncrk_bruteforce,
    ncrk_via_grank,
    tslice,
)
from stablerank import complexrank
from stablerank.complexrank import (
    ascend,
    flatten,
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

    def test_transform_to_zero_rejected(self):
        # a singular transform can map a nonzero tensor to zero
        with pytest.raises(ValueError, match="zero tensor"):
            objective(W_DENSE, [np.zeros((2, 2)), np.eye(2), np.eye(2)], (1, 1, 1))


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

    def test_input_checked_before_search(self, monkeypatch):
        from stablerank import complexrank, mod_domain

        def no_search(*args, **kwargs):
            raise AssertionError("the basis search ran")

        monkeypatch.setattr(complexrank, "grank_upper_search", no_search)
        v = SparseTensor((3, 3, 3), {(0, 0, 0): 1, (1, 1, 1): 2}, mod_domain(3))
        with pytest.raises(ValueError, match="no canonical complex embedding"):
            sandwich(v)
        with pytest.raises(ValueError, match="underflow"):
            sandwich(SparseTensor((2, 2), {(0, 0): F(1, 10**400)}))
        res = sandwich(SparseTensor((2, 2), {}, mod_domain(3)))
        assert res.lower == 0.0 and res.upper == 0
        # a weight with no positive finite double, 0.0 or none, is refused
        # by its mode, by the ascent too; the zero tensor's bounds take none
        swap = SparseTensor((2, 2), {(0, 1): 1, (1, 0): 1})
        for alpha, mode in (((F(1, 10**400), 1), 0), ((1, F(10**400)), 1)):
            message = f"weight of mode {mode} is outside double precision"
            with pytest.raises(ValueError, match=message):
                sandwich(swap, alpha)
            with pytest.raises(ValueError, match=message):
                ascend(to_dense_complex(swap), alpha)
            res = sandwich(SparseTensor((2, 2), {}), alpha)
            assert res.lower == 0.0 and res.upper == 0

    def test_mode_apply_matches_einsum(self):
        rng = np.random.default_rng(37)
        t = rng.normal(size=(2, 3, 4))
        gs = [rng.normal(size=(n, n)) for n in (2, 3, 4)]
        expect = np.einsum("ai,bj,ck,ijk->abc", gs[0], gs[1], gs[2], t)
        assert np.allclose(mode_apply(t, gs), expect)


# Reference ascent: the loop as it was before each step multiplied only the
# whitened mode, with the helpers it called copied alongside.  It multiplies
# every mode (identities on all but the whitened one) and scales each
# flattening on its own.  ``ascend`` must reproduce it bit for bit.  The
# oracle runs in the test, not from a golden file, because the float bits
# depend on the BLAS build.


def _reference_flatten(a, mode):
    arr = np.asarray(a)
    return np.moveaxis(arr, mode, 0).reshape(arr.shape[mode], -1)


def _reference_spectral_norm(m):
    a = np.asarray(m, dtype=complex)
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return 0.0
    a = a / scale
    gram = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
    return float(scale * np.sqrt(np.linalg.eigvalsh(gram)[-1]))


def _reference_mode_apply(v, mats):
    a = np.asarray(v, dtype=complex)
    for i, g in enumerate(mats):
        a = np.moveaxis(np.tensordot(np.asarray(g, dtype=complex),
                                     np.moveaxis(a, i, 0), axes=1), 0, i)
    return a


def _reference_ratios(w, alpha_f):
    n2 = float(np.vdot(w, w).real)
    out = []
    for i in range(w.ndim):
        sigma = _reference_spectral_norm(_reference_flatten(w, i))
        out.append(alpha_f[i] * n2 / (sigma * sigma))
    return out


def _reference_residual(a, w, r):
    n2 = float(np.vdot(a, a).real)
    worst = 0.0
    for i in range(a.ndim):
        f = _reference_flatten(a, i)
        scale = float(w[i]) * n2
        h = scale * np.eye(a.shape[i]) - float(r) * (f @ f.conj().T)
        lam_min = float(np.linalg.eigvalsh(h)[0])
        worst = max(worst, max(0.0, -lam_min) / scale)
    return worst


def _reference_ascend(v, alpha=None, max_iters=400, tol=1e-10):
    a = np.asarray(v, dtype=complex)
    w = (F(1),) * a.ndim if alpha is None else tuple(F(x) for x in alpha)
    alpha_f = [float(x) for x in w]
    exp = -int(np.frexp(np.max(np.abs(a)))[1])
    a = np.ldexp(a.real, exp) + 1j * np.ldexp(a.imag, exp)
    norm = np.linalg.norm(a)

    cur = a / norm
    gs = [np.eye(n, dtype=complex) for n in a.shape]
    ratios = _reference_ratios(cur, alpha_f)
    best = min(ratios)
    best_gs = [g.copy() for g in gs]
    best_ratios = list(ratios)
    prev = best
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        i = int(np.argmin(ratios))
        f = _reference_flatten(cur, i)
        gram = f @ f.conj().T
        eps = 1e-12 * float(np.vdot(cur, cur).real)
        evals, evecs = np.linalg.eigh(gram)
        whiten = (evecs * (evals + eps) ** -0.5) @ evecs.conj().T
        blend = (1.0 - 0.3) * np.eye(a.shape[i]) + 0.3 * whiten
        gs[i] = blend @ gs[i]
        cur = _reference_mode_apply(cur, [blend if k == i else np.eye(a.shape[k])
                                          for k in range(a.ndim)])
        norm = np.linalg.norm(cur)
        cur = cur / norm
        gs[i] = gs[i] / norm
        ratios = _reference_ratios(cur, alpha_f)
        val = min(ratios)
        if val > best:
            best = val
            best_gs = [g.copy() for g in gs]
            best_ratios = list(ratios)
        if abs(val - prev) <= tol * max(1.0, abs(prev)):
            break
        prev = val
    residual = _reference_residual(_reference_mode_apply(a, best_gs), w, best)
    return best, best_gs, best_ratios, residual, iterations


def _outcome(run):
    """Every bit of an ascent's result, or the type and text of its error."""
    with np.errstate(all="ignore"):
        try:
            res = run()
        except Exception as exc:  # the divergent inputs may fail; so must both
            return type(exc).__name__, str(exc)
    if not isinstance(res, tuple):
        res = (res.bound, res.group, res.ratios, res.stationarity_residual, res.iterations)
    bound, group, ratios, residual, iterations = res
    return (
        float.hex(bound),
        [(g.shape, g.dtype.str, g.tobytes()) for g in group],
        [float.hex(r) for r in ratios],
        float.hex(residual),
        iterations,
    )


def _grank_ascent_corpus():
    """The tensors of the ``grank-ascent`` benchmark workload."""
    rng = random.Random(0)
    w_state = SparseTensor((2, 2, 2), {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    tensors = [w_state]
    for shape, density in (((3, 3, 3), 0.6), ((4, 4, 4), 1.0), ((5, 5, 5), 1.0),
                           ((3, 3, 3, 3), 0.5)):
        entries = {}
        for idx in itertools.product(*[range(n) for n in shape]):
            if rng.random() < density:
                entries[idx] = rng.choice((-2, -1, 1, 2))
        tensors.append(SparseTensor(shape, entries))
    return [to_dense_complex(t) for t in tensors]


def _random_cases(count=40):
    """Seeded tensors of order 2-4 with mostly non-cubic shapes, real or
    complex, half of them with a weight."""
    cases = []
    for seed in range(count):
        rng = np.random.default_rng(1000 + seed)
        shape = tuple(int(n) for n in rng.integers(1, 5, size=int(rng.integers(2, 5))))
        t = rng.normal(size=shape)
        if seed % 3 == 0:
            t = t + 1j * rng.normal(size=shape)
        if seed % 4 == 1:  # sparse, with exact zeros
            t = t * (rng.random(size=shape) < 0.5)
        if not np.any(t):
            t.flat[0] = 1.0
        alpha = None if seed % 2 else tuple(F(int(k), 2) for k in rng.integers(1, 5, size=len(shape)))
        cases.append((t, alpha))
    cases.append((rng.normal(size=(3, 2, 4)), None))
    cases.append((rng.normal(size=(3, 2, 4)), (F(1), F(2), F(1, 3))))
    return cases


# The inputs on which the ascent diverges (ROADMAP item 3): warnings, then an
# error or a residual that disagrees with the iterate.
DIVERGENT = [
    ((4, 2, 2), {(0, 0, 1): 2, (0, 1, 0): 3, (2, 0, 1): F(1, 5)}),
    ((4, 3, 4), {(0, 0, 0): F(7, 4), (0, 0, 2): F(7, 3), (0, 2, 3): F(1, 2),
                 (2, 0, 0): F(-3, 4), (3, 2, 3): F(-1, 2)}),
    ((2, 2, 4), {(0, 0, 0): F(4, 3), (0, 0, 1): -8, (0, 0, 3): F(7, 3), (0, 1, 0): 2,
                 (0, 1, 1): F(-1, 3), (0, 1, 2): F(-1, 2), (0, 1, 3): F(-1, 2),
                 (1, 0, 2): F(9, 5), (1, 1, 2): F(-1, 4)}),
]


class TestAscendMatchesReference:
    @pytest.mark.parametrize("k", range(5))
    def test_grank_ascent_corpus(self, k):
        t = _grank_ascent_corpus()[k]
        assert _outcome(lambda: ascend(t)) == _outcome(lambda: _reference_ascend(t))

    @pytest.mark.parametrize("k", range(42))
    def test_random_tensors(self, k):
        t, alpha = _random_cases()[k]
        assert _outcome(lambda: ascend(t, alpha)) == _outcome(
            lambda: _reference_ascend(t, alpha))

    @pytest.mark.parametrize("shape,entries", DIVERGENT)
    def test_divergent_inputs(self, shape, entries):
        t = to_dense_complex(SparseTensor(shape, entries))
        assert _outcome(lambda: ascend(t)) == _outcome(lambda: _reference_ascend(t))


def _edge_case(shape, seed, complex_entries=False):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=shape)
    if complex_entries:
        t = t + 1j * rng.normal(size=shape)
    return t


# Shapes and stopping rules the 50 cases above miss: a mode whose flattening
# is taller than wide, modes of size 1, order 5, a complex weighted cubic,
# and runs stopped after 0 or 1 steps or only by the iteration count.
EDGE_CASES = [
    pytest.param(_edge_case((6, 2, 2), 1), None, {}, id="tall-mode"),
    pytest.param(_edge_case((1, 3, 1), 2), None, {}, id="size-1-modes"),
    pytest.param(_edge_case((3, 1, 1, 2), 3), (F(1), F(2), F(1, 2), F(3)), {},
                 id="size-1-modes-order-4"),
    pytest.param(_edge_case((2, 2, 2, 2, 2), 4), None, {}, id="order-5"),
    pytest.param(_edge_case((3, 3, 3), 5, complex_entries=True), (F(3, 2), F(1), F(2, 3)), {},
                 id="complex-weighted-cubic"),
    pytest.param(W_DENSE, None, {"max_iters": 0}, id="max_iters-0"),
    pytest.param(_edge_case((2, 3, 2), 6, complex_entries=True), None, {"max_iters": 1},
                 id="max_iters-1"),
    pytest.param(_edge_case((3, 2, 2), 7), None, {"max_iters": 60, "tol": 0.0},
                 id="tol-0"),
]


@pytest.mark.parametrize("t,alpha,stop", EDGE_CASES)
def test_ascend_matches_reference_on_edge_cases(t, alpha, stop):
    assert _outcome(lambda: ascend(t, alpha, **stop)) == _outcome(
        lambda: _reference_ascend(t, alpha, **stop))


@pytest.mark.parametrize("values", [
    [2.0, 1.0, 1.0],
    [1.0, float("nan"), 0.5, float("nan")],
    [float("nan"), 1.0],
    [0.0, -0.0],
    [float("inf"), 3.0, 3.0, float("-inf")],
    [5.0],
])
def test_mode_choice_matches_argmin(values):
    # ties go to the first minimum, and a nan wins wherever it stands
    assert complexrank._first_argmin(values) == int(np.argmin(values))


def _random_invertible_group(rng, shape):
    return [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in shape]


@pytest.mark.parametrize("k", range(42))
@pytest.mark.parametrize("group", ["identity", "random"])
def test_objective_matches_reference(k, group):
    t, alpha = _random_cases()[k]
    if group == "identity":
        gs = [np.eye(n, dtype=complex) for n in t.shape]
    else:
        gs = _random_invertible_group(np.random.default_rng(2000 + k), t.shape)
    alpha_f = [1.0] * t.ndim if alpha is None else [float(x) for x in alpha]
    expect = min(_reference_ratios(_reference_mode_apply(t, gs), alpha_f))
    assert float.hex(objective(t, gs, alpha)) == float.hex(expect)


def test_ascend_skips_unneeded_work(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0, "vdot": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # Every eigensolve of the module goes through its two LAPACK helpers.
    monkeypatch.setattr(complexrank, "_eigh", counted("eigh", complexrank._eigh))
    monkeypatch.setattr(complexrank, "_eigvalsh", counted("eigvalsh", complexrank._eigvalsh))
    monkeypatch.setattr(np, "vdot", counted("vdot", np.vdot))
    for t in _grank_ascent_corpus() + [_edge_case((3, 2, 3, 2), 8)]:
        calls.update(eigh=0, eigvalsh=0, vdot=0)
        iterations = ascend(t).iterations
        # One eigh per step; one eigvalsh per mode size for the start, for
        # each step's ratios and for the residual; one vdot for the start,
        # for each step and for the residual.
        assert calls["eigh"] == iterations
        assert calls["eigvalsh"] == len(set(t.shape)) * (iterations + 2)
        assert calls["vdot"] == iterations + 2


@pytest.mark.parametrize("k", range(5))
def test_bound_is_the_objective_at_the_group_on_the_bench_corpus(k):
    # The ascent reads its bound from the renormalised iterate; on these
    # well-conditioned tensors the iterate stays g.a, so the objective at
    # the reported group gives the bound back.
    t = _grank_ascent_corpus()[k]
    report = ascend(t)
    assert abs(report.bound - objective(t, report.group, None)) <= 1e-9


def _hermitian_stacks(n):
    """Seeded Hermitian n x n Grams: one plain matrix, then stacks of depth
    1 to 5."""
    rng = np.random.default_rng(50 + n)
    out = []
    for depth in (None, 1, 2, 3, 4, 5):
        size = (n, n) if depth is None else (depth, n, n)
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        out.append(x @ np.swapaxes(x.conj(), -1, -2))
    return out


def _special_grams():
    """A Gram with a repeated eigenvalue, and a rank-deficient one."""
    rng = np.random.default_rng(60)
    u = random_unitary(rng, 4)
    repeated = (u * np.array([2.0, 2.0, 1.0, 3.0])) @ u.conj().T
    f = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    return [repeated, f @ f.conj().T]


def _arrays(result):
    return [(x.shape, x.dtype.str, x.tobytes()) for x in result]


@pytest.mark.parametrize("n", range(1, 7))
def test_lapack_helpers_match_numpy_linalg(n):
    for h in _hermitian_stacks(n) + (_special_grams() if n == 1 else []):
        assert _arrays([complexrank._eigvalsh(h)]) == _arrays([np.linalg.eigvalsh(h)])
        assert _arrays(complexrank._eigh(h)) == _arrays(np.linalg.eigh(h))


# The Gram at which the ascent on the (4,2,2) tensor of DIVERGENT fails.
_NAN = complex(np.nan, np.nan)
NONCONVERGENT_GRAM = np.array([[[_NAN, _NAN, _NAN, np.nan],
                                [_NAN, _NAN, _NAN, np.nan],
                                [_NAN, _NAN, _NAN, np.nan],
                                [np.nan, np.nan, np.nan, np.inf]]], dtype=complex)


@pytest.mark.parametrize("name", ["eigvalsh", "eigh"])
def test_lapack_helpers_fail_as_numpy_linalg_does(name):
    outcomes = []
    for solve in (getattr(complexrank, "_" + name), getattr(np.linalg, name)):
        with pytest.raises(np.linalg.LinAlgError) as info:
            solve(NONCONVERGENT_GRAM)
        outcomes.append((type(info.value), str(info.value)))
    assert outcomes[0] == outcomes[1] == (np.linalg.LinAlgError, "Eigenvalues did not converge")


# Modes that share a size are read together; these shapes group them every
# way: partly shared sizes, all sizes distinct, a tall mode, modes of size 1,
# order 5.
GROUPING_SHAPES = [(3, 2, 3, 2), (2, 3, 4), (6, 2, 2), (1, 3, 1), (2, 3, 2, 1, 3)]


@pytest.mark.parametrize("shape", GROUPING_SHAPES, ids=str)
@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_grouped_flattenings_match_reference(shape, complex_entries):
    # complex dtype throughout, as ascend and objective hand it to _ratios
    t = np.asarray(_edge_case(shape, 9, complex_entries), dtype=complex)
    alpha = tuple(F(k + 1, 2) for k in range(len(shape))) if complex_entries else None
    alpha_f = [1.0] * t.ndim if alpha is None else [float(x) for x in alpha]
    expect = _reference_ratios(t, alpha_f)
    _, ratios = complexrank._ratios(t, alpha_f, complexrank._plan(t.shape))
    assert [float.hex(x) for x in ratios] == [float.hex(x) for x in expect]
    w = (F(1),) * t.ndim if alpha is None else alpha
    for r in (min(expect), 1.5 * min(expect)):
        assert float.hex(stationarity_residual(t, alpha, r)) == float.hex(
            _reference_residual(t, w, r))


W_SPARSE = SparseTensor((2, 2, 2), {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: tslice(Support((2, 2, 2), list(W_SPARSE.entries)), limit=-1),
                     "limit", id="tslice-limit"),
        pytest.param(lambda: ncrk_bruteforce(MatrixTuple([[[1, 0], [0, 1]]], 2), limit=-1),
                     "limit", id="ncrk_bruteforce-limit"),
        pytest.param(lambda: ncrk_via_grank(MatrixTuple([[[0, 0], [0, 0]]], 2), budget=-1),
                     "budget", id="ncrk_via_grank-zero-tuple"),
        pytest.param(lambda: grank_upper_search(W_SPARSE, budget=-3),
                     "budget", id="grank_upper_search-budget"),
        pytest.param(lambda: grank_upper_search(SparseTensor((2, 2), {}), budget=-1),
                     "budget", id="grank_upper_search-zero-tensor"),
        pytest.param(lambda: ascend(W_DENSE, max_iters=-1), "max_iters", id="ascend-max_iters"),
        pytest.param(lambda: ascend(W_DENSE, tol=-1e-10), "tol", id="ascend-tol-negative"),
        pytest.param(lambda: ascend(W_DENSE, tol=float("nan")), "tol", id="ascend-tol-nan"),
        pytest.param(lambda: ascend(W_DENSE, tol=float("inf")), "tol", id="ascend-tol-inf"),
        pytest.param(lambda: sandwich(W_SPARSE, max_iters=-3),
                     "max_iters", id="sandwich-max_iters"),
        pytest.param(lambda: sandwich(W_SPARSE, tol=float("nan")), "tol", id="sandwich-tol-nan"),
        pytest.param(lambda: sandwich(SparseTensor((2, 2), {}), tol=-1.0),
                     "tol", id="sandwich-zero-tensor"),
        pytest.param(lambda: sandwich(SparseTensor((2, 2), {}), budget=-2),
                     "budget", id="sandwich-zero-tensor-budget"),
    ],
)
def test_library_entry_points_reject_bad_counts(monkeypatch, call, message):
    # sandwich checks its stopping rule before the basis search runs
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(complexrank, "grank_upper_search", no_search)
    with pytest.raises(ValueError, match=f"^{message} must be a"):
        call()


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: mode_apply(W_DENSE, [np.eye(2)] * 2),
                     "need exactly one matrix per mode", id="mode_apply-too-few"),
        pytest.param(lambda: mode_apply(W_DENSE, [np.eye(2)] * 4),
                     "need exactly one matrix per mode", id="mode_apply-too-many"),
        pytest.param(lambda: stationarity_residual(np.zeros((2, 2, 2)), None, 1.0),
                     "residual undefined for the zero tensor", id="residual-zero-tensor"),
        pytest.param(lambda: ascend(np.zeros((2, 3), dtype=complex)),
                     "cannot bound the zero tensor", id="ascend-zero-tensor"),
    ],
)
def test_dense_entry_points_reject_bad_input(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
