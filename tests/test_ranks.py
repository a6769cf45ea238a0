import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest

from stablerank import (
    MatrixTuple,
    SliceLimitError,
    SparseTensor,
    SubspaceLimitError,
    Support,
    boxplus,
    boxtimes,
    build_lp,
    dual_trank,
    grank_upper_search,
    matrix_tuple_tensor,
    mod_domain,
    ncrk_bruteforce,
    ncrk_via_grank,
    outer,
    psg_slope,
    support_of,
    trank,
    tslice,
)
from stablerank import INFEASIBLE, LinearProgram, LPSizeError, LPSolution, capset, ranks, tensors
from stablerank import lp as lp_module
from stablerank.ranks import _annihilator_mod_p, _echelon_mod_p, _packing_bound, _subspace_value
from stablerank.tensors import as_weight, mode_transform, modulus_of

from conftest import (
    count_simplex,
    exhaustive_min_cover,
    fraction_mode_transform,
    indicator_tensor,
    random_support,
)

W_SUPPORT = Support((2, 2, 2), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
CAPSET_SUPPORT = Support(
    (3, 3, 3),
    [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0)],
)


class TestBuildLp:
    def test_w_dimensions(self):
        lp = build_lp(W_SUPPORT, (1, 1, 1))
        assert lp.num_vars == 6 and lp.num_rows == 3

    def test_capset_dimensions(self):
        lp = build_lp(CAPSET_SUPPORT, (1, 1, 1))
        assert lp.num_vars == 9 and lp.num_rows == 7

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            build_lp(W_SUPPORT, (1, 1))


class TestTrank:
    def test_w_state(self):
        r = trank(W_SUPPORT)
        assert r.value == F(3, 2) and r.certificate_ok

    def test_single_element_gives_min_weight(self):
        s = Support((2, 3, 2), [(0, 0, 0)])
        assert trank(s, (F(5), F(2, 3), F(7))).value == F(2, 3)

    def test_capset_support(self):
        assert trank(CAPSET_SUPPORT).value == F(9, 4)

    def test_inverse_dim_weights_at_most_one(self):
        rng = random.Random(17)
        for _ in range(15):
            s = random_support(rng)
            alpha = tuple(F(1, n) for n in s.shape)
            assert trank(s, alpha).value <= 1

    def test_empty_support(self):
        r = trank(Support((2, 2), []))
        assert r.value == 0 and r.certificate_ok and r.dual == {}

    def test_depends_only_on_support(self):
        base = indicator_tensor(W_SUPPORT)
        scaled = SparseTensor(
            base.shape, {idx: F(7, 3) * val for idx, val in base.entries.items()}
        )
        assert trank(support_of(scaled)).value == trank(support_of(base)).value

    def test_at_least_min_weight(self):
        rng = random.Random(23)
        for _ in range(10):
            s = random_support(rng)
            alpha = tuple(F(rng.randint(1, 4), rng.randint(1, 3)) for _ in s.shape)
            assert trank(s, alpha).value >= min(alpha)

    def test_permuting_slices_keeps_value(self):
        rng = random.Random(41)
        for _ in range(25):
            s = random_support(rng)
            perms = [rng.sample(range(n), n) for n in s.shape]
            moved = Support(s.shape, [tuple(p[j] for p, j in zip(perms, e)) for e in s.elements])
            alpha = tuple(F(rng.randint(1, 4), rng.randint(1, 3)) for _ in s.shape)
            before, after = trank(s, alpha), trank(moved, alpha)
            assert after.value == before.value
            assert before.certificate_ok and after.certificate_ok

    def test_scaling_alpha_scales_value(self):
        # c = 3/7 makes the objective coefficients non-integers.
        c = F(3, 7)
        rng = random.Random(43)
        for _ in range(25):
            s = random_support(rng)
            alpha = tuple(F(rng.randint(1, 4)) for _ in s.shape)
            base, scaled = trank(s, alpha), trank(s, tuple(c * a for a in alpha))
            assert scaled.value == c * base.value
            assert base.certificate_ok and scaled.certificate_ok


class TestDualTrank:
    def test_matches_primal_on_corpus(self):
        rng = random.Random(5)
        for _ in range(25):
            s = random_support(rng)
            r, d = trank(s), dual_trank(s)
            assert r.value == d.value
            assert r.certificate_ok and d.certificate_ok

    def test_w_state_uniform_dual_is_optimal(self):
        # y = 1/2 on each element: every slice load is at most 1, total 3/2
        y = F(1, 2)
        for i in range(3):
            for j in range(2):
                load = sum(y for s in W_SUPPORT if s[i] == j)
                assert load <= 1
        assert 3 * y == dual_trank(W_SUPPORT).value == F(3, 2)

    def test_known_capset_dual_is_optimal(self):
        # The pinned dual assignment is feasible and attains the optimum.
        y = {
            (0, 0, 0): F(0),
            (2, 0, 0): F(1, 4),
            (0, 2, 0): F(1, 4),
            (0, 0, 2): F(1, 4),
            (0, 1, 1): F(1, 2),
            (1, 0, 1): F(1, 2),
            (1, 1, 0): F(1, 2),
        }
        for i in range(3):
            for j in range(3):
                load = sum(v for s, v in y.items() if s[i] == j)
                assert load <= 1
        assert sum(y.values()) == F(9, 4) == dual_trank(CAPSET_SUPPORT).value

    def test_empty_support(self):
        assert dual_trank(Support((2, 2), [])).value == 0


@pytest.mark.parametrize("rank", [trank, dual_trank])
@pytest.mark.parametrize("shape", [(2, 2), (1, 3, 2), (5, 5)])
def test_empty_support_is_the_lp_without_rows(rank, shape):
    # (5, 5) has more slots than 2 * 0 + 8, so dual_trank's program, with
    # no columns, is pivoted on its own dual side.
    r = rank(Support(shape, []), (F(2),) + (F(1, 3),) * (len(shape) - 1))
    assert r.value == 0 and r.dual == {} and r.certificate_ok
    assert r.primal == tuple((F(0),) * n for n in shape)


@pytest.mark.parametrize("rank", [trank, dual_trank])
@pytest.mark.parametrize(
    "alpha,message",
    [((1, 1), "weight has length 2, tensor order is 3"),
     ((0, 1, 1), "must be positive"),
     ((-1, 1, 1), "must be positive")],
)
def test_empty_support_validates_alpha(rank, alpha, message):
    with pytest.raises(ValueError, match=message):
        rank(Support((2, 2, 2), []), alpha)


@pytest.mark.parametrize("rank", [trank, dual_trank])
def test_failed_certificate_raises(monkeypatch, rank):
    monkeypatch.setattr(lp_module, "verify_certificate", lambda lp, sol: False)
    with pytest.raises(RuntimeError, match="certificate"):
        rank(W_SUPPORT)


class TestSlopeConsistency:
    def test_integer_scaled_optimum_has_matching_slope(self):
        rng = random.Random(29)
        for _ in range(15):
            s = random_support(rng)
            alpha = tuple(F(rng.randint(1, 3)) for _ in s.shape)
            r = trank(s, alpha)
            if r.value == 0:
                continue
            denom = math.lcm(
                *(v.denominator for mode in r.primal for v in mode)
            )
            x = [[int(v * denom) for v in mode] for mode in r.primal]
            assert psg_slope(x, s, alpha) == r.value


class TestTslice:
    def test_w_state(self):
        res = tslice(W_SUPPORT)
        assert res.value == 2
        assert all(any((i, e[i]) in res.chosen for i in range(3)) for e in W_SUPPORT)

    def test_singleton(self):
        assert tslice(Support((2, 2, 2), [(1, 1, 1)])).value == 1

    def test_empty(self):
        res = tslice(Support((2, 2), []))
        assert res.value == 0 and res.chosen == frozenset()

    def test_capset_support(self):
        assert tslice(CAPSET_SUPPORT).value == 3

    @pytest.mark.parametrize("n,value", [(1, 3), (2, 7)])
    def test_capset_powers_meet_the_prime_bound(self, n, value):
        # the slice rank of the n-fold power's support is eg_prime_bound(n)
        power = capset.base_tensor()
        for _ in range(n - 1):
            power = boxtimes(power, capset.base_tensor())
        assert tslice(support_of(power)).value == capset.eg_prime_bound(n) == value

    def test_root_weight_of_exactly_one_over_d_joins_the_first_cover(self):
        # Three root weights here are exactly 1/3: left out of the first
        # incumbent, the slices would not cover, and the search would
        # return 2 against the oracle's 3.
        s = Support(
            (3, 3, 3),
            [(1, 2, 1), (0, 2, 1), (1, 0, 1), (0, 1, 0), (1, 2, 0), (1, 1, 2), (2, 2, 1), (1, 1, 1)],
        )
        assert sum(v == F(1, 3) for mode in trank(s).primal for v in mode) == 3
        assert tslice(s).value == exhaustive_min_cover(s) == 3

    def test_limit_enforced(self):
        big = Support((21, 21), [(0, 0)])
        with pytest.raises(SliceLimitError):
            tslice(big, limit=40)

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(77)
        checked = 0
        while checked < 25:
            s = random_support(rng, max_dim=3, max_elems=10)
            if sum(s.shape) > 12:
                continue
            assert tslice(s).value == exhaustive_min_cover(s)
            checked += 1

    def test_sandwich_against_trank(self):
        rng = random.Random(88)
        for _ in range(20):
            s = random_support(rng)
            d = s.order
            lp_val = trank(s).value
            cover = tslice(s).value
            assert F(2, d) * cover <= lp_val <= cover

    @pytest.mark.parametrize("support,solves", [(CAPSET_SUPPORT, 1), (W_SUPPORT, 3)])
    def test_root_lp_solved_once(self, monkeypatch, support, solves):
        calls = []
        solve = ranks.solve

        def counting(lp, *args, **kwargs):
            calls.append(lp)
            return solve(lp, *args, **kwargs)

        monkeypatch.setattr(ranks, "solve", counting)
        tslice(support)
        assert len(calls) == solves

    def test_chosen_pinned_on_acceptance_corpus(self):
        rng = random.Random(20240814)
        results = [tslice(random_support(rng)) for _ in range(200)]
        text = json.dumps(
            [[r.value, sorted(list(c) for c in r.chosen)] for r in results],
            separators=(",", ":"),
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b037e983bd6ab2648d3d30a974b9542d0bf75814e1753758f95b80c822d986bf"
        )

    def test_trank_and_tslice_pinned_on_acceptance_corpus(self):
        """One sha256 over ``trank``'s value, primal and dual at unit
        weights and at weight (k+1)/2 for mode k, and ``tslice``'s value
        and chosen slots, on the 200 acceptance supports.  ``tslice`` runs
        right after the unit ``trank``, so its root comes from ``_root``'s
        memo, and the weighted ``trank`` misses it."""

        def rank_json(r):
            return [
                str(r.value),
                [[str(v) for v in mode] for mode in r.primal],
                [[list(e), str(v)] for e, v in sorted(r.dual.items())],
            ]

        rng = random.Random(20240814)
        pinned = []
        for _ in range(200):
            s = random_support(rng)
            unit = trank(s)
            cover = tslice(s)
            weighted = trank(s, tuple(F(k + 1, 2) for k in range(s.order)))
            chosen = sorted(list(c) for c in cover.chosen)
            pinned.append([rank_json(unit), rank_json(weighted), [cover.value, chosen]])
        text = json.dumps(pinned, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "789b60dfc722c3f74de1f53d9b5c8740b98566fcc141748c13ac630557d786f3"
        )

    def test_every_solve_certified_on_acceptance_corpus(self, monkeypatch):
        solved, verified = [], []
        real_solve, real_verify = ranks.solve, lp_module.verify_certificate

        def counting_solve(lp, *args, **kwargs):
            solved.append(lp)
            return real_solve(lp, *args, **kwargs)

        def counting_verify(lp, sol):
            verified.append(lp)
            return real_verify(lp, sol)

        monkeypatch.setattr(ranks, "solve", counting_solve)
        monkeypatch.setattr(lp_module, "verify_certificate", counting_verify)
        rng = random.Random(20240814)
        for _ in range(200):
            tslice(random_support(rng))
        # 200 roots and 16 nodes below them, each checked once
        assert len(solved) == len(verified) == 216
        assert all(a is b for a, b in zip(solved, verified))

    def test_infeasible_node_lp_raises(self, monkeypatch):
        real = ranks.solve
        calls = []

        def root_only(lp, *args, **kwargs):
            calls.append(lp)
            if len(calls) == 1:
                return real(lp, *args, **kwargs)
            return LPSolution(INFEASIBLE, None, (), ())

        monkeypatch.setattr(ranks, "solve", root_only)
        with pytest.raises(RuntimeError, match="unexpectedly infeasible"):
            tslice(W_SUPPORT)
        assert len(calls) == 2

    def test_failed_root_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(lp_module, "verify_certificate", lambda lp, sol: False)
        with pytest.raises(RuntimeError, match="certificate"):
            tslice(W_SUPPORT)


class TestRootMemo:
    """``_root`` keeps the last certified covering-LP solution, keyed by
    the support and the weights, for ``trank`` and ``tslice``'s root."""

    @pytest.mark.parametrize("alpha", [None, (2, 1, 3), (F(1, 2), F(3, 4), 2)])
    def test_equal_support_and_weights_pivot_once(self, monkeypatch, alpha):
        runs = count_simplex(monkeypatch)
        again = Support(W_SUPPORT.shape, W_SUPPORT.elements)
        assert again == W_SUPPORT and again is not W_SUPPORT
        first = trank(W_SUPPORT, alpha)
        weights = None if alpha is None else tuple(F(a) for a in alpha)
        assert trank(again, weights) == first
        assert len(runs) == 1

    def test_tslice_and_trank_share_the_unit_weight_root(self, monkeypatch):
        runs = count_simplex(monkeypatch)
        tslice(CAPSET_SUPPORT)  # solved at its root
        assert trank(CAPSET_SUPPORT, (1, 1, 1)).value == F(9, 4)
        tslice(CAPSET_SUPPORT)
        assert len(runs) == 1

    def test_other_weights_or_support_are_solved_again(self, monkeypatch):
        runs = count_simplex(monkeypatch)
        trank(W_SUPPORT)
        trank(W_SUPPORT, (1, 2, 1))
        trank(CAPSET_SUPPORT, (1, 2, 1))
        tslice(CAPSET_SUPPORT)  # unit weights: a root of its own
        assert len(runs) == 4

    def test_one_entry_only(self, monkeypatch):
        runs = count_simplex(monkeypatch)
        a, b = trank(W_SUPPORT), trank(CAPSET_SUPPORT)
        assert trank(W_SUPPORT) == a and trank(CAPSET_SUPPORT) == b
        assert len(runs) == 4

    def test_row_cap_is_checked_on_a_hit(self, monkeypatch):
        runs = count_simplex(monkeypatch)
        trank(CAPSET_SUPPORT)
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", str(len(CAPSET_SUPPORT) - 1))
        for rank in (trank, tslice):
            with pytest.raises(LPSizeError):
                rank(CAPSET_SUPPORT)
        assert len(runs) == 1
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", str(len(CAPSET_SUPPORT)))
        assert tslice(CAPSET_SUPPORT).value == 3 and len(runs) == 1

    def test_failed_certificate_stores_nothing(self, monkeypatch):
        runs = count_simplex(monkeypatch)
        real = lp_module.verify_certificate
        monkeypatch.setattr(lp_module, "verify_certificate", lambda lp, sol: False)
        for rank in (trank, trank, tslice):
            with pytest.raises(RuntimeError, match="failed its certificate check"):
                rank(W_SUPPORT)
        assert len(runs) == 3 and ranks._last_root is None
        monkeypatch.setattr(lp_module, "verify_certificate", real)
        assert trank(W_SUPPORT).value == F(3, 2) and len(runs) == 4
        assert trank(W_SUPPORT).value == F(3, 2) and len(runs) == 4

    @pytest.mark.parametrize("support,nodes", [(CAPSET_SUPPORT, 0), (W_SUPPORT, 2)])
    def test_tslice_after_trank_builds_no_root_program(self, monkeypatch, support, nodes):
        trank(support)
        root = build_lp(support, None)
        built = []
        real = LinearProgram.__init__

        def spy(self, *args, **kwargs):
            real(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(LinearProgram, "__init__", spy)
        expected = tslice(support)
        assert len(built) == nodes and root not in built
        monkeypatch.undo()
        ranks._last_root = None
        assert tslice(support) == expected


class TestProducts:
    def test_block_additivity(self):
        rng = random.Random(101)
        for _ in range(12):
            d = rng.choice((3, 4))
            a = indicator_tensor(random_support(rng, order=d, max_dim=3, max_elems=6))
            b = indicator_tensor(random_support(rng, order=d, max_dim=3, max_elems=6))
            total = trank(support_of(boxplus(a, b))).value
            assert total == trank(support_of(a)).value + trank(support_of(b)).value

    def test_product_dual_certificate_feasible(self):
        rng = random.Random(103)
        for _ in range(8):
            d = 3
            sa = random_support(rng, order=d, max_dim=3, max_elems=6)
            sb = random_support(rng, order=d, max_dim=3, max_elems=6)
            alpha = tuple(F(rng.randint(1, 3)) for _ in range(d))
            beta = tuple(F(rng.randint(1, 3)) for _ in range(d))
            ya = trank(sa, alpha).dual
            yb = trank(sb, beta).dual
            prod = boxtimes(indicator_tensor(sa), indicator_tensor(sb))
            sp = support_of(prod)
            # paired slice loads stay within the paired weights
            for i in range(d):
                for j in range(sa.shape[i]):
                    for jp in range(sb.shape[i]):
                        load = sum(
                            ya[s] * yb[sp_]
                            for s in sa
                            for sp_ in sb
                            if s[i] == j and sp_[i] == jp
                        )
                        assert load <= alpha[i] * beta[i]
            combined = trank(sp, tuple(a * b for a, b in zip(alpha, beta)))
            assert combined.value >= trank(sa, alpha).value * trank(sb, beta).value

    def test_horizontal_product_equality(self):
        rng = random.Random(107)
        for _ in range(10):
            a = indicator_tensor(random_support(rng, order=2, max_dim=3, max_elems=5))
            b = indicator_tensor(random_support(rng, order=3, max_dim=3, max_elems=5))
            joined = trank(support_of(outer(a, b))).value
            assert joined == min(trank(support_of(a)).value, trank(support_of(b)).value)


class TestGrankSearch:
    def test_w_state_attained_at_identity(self):
        v = indicator_tensor(W_SUPPORT)
        assert grank_upper_search(v, budget=30) == F(3, 2)

    def test_diagonal_never_below_two(self):
        diag = SparseTensor((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
        assert grank_upper_search(diag, budget=60, seed=4) == 2

    def test_rank_one_reaches_min_weight(self):
        v = SparseTensor((2, 2, 2), {(1, 1, 0): 1})
        assert grank_upper_search(v, (F(2), F(3), F(5)), budget=10) == 2

    def test_zero_tensor(self):
        assert grank_upper_search(SparseTensor((2, 2), {})) == 0

    def test_deterministic(self):
        v = indicator_tensor(CAPSET_SUPPORT)
        a = grank_upper_search(v, budget=25, seed=3)
        b = grank_upper_search(v, budget=25, seed=3)
        assert a == b

    def test_mod_domain_search(self):
        v = SparseTensor((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1}, mod_domain(3))
        assert grank_upper_search(v, budget=30) == 2

    def test_search_proves_modulus_prime_once(self):
        # Proven once, then looked up a fixed number of times per search,
        # never once per sample.
        p = 2**61 - 1
        is_prime = tensors._is_prime
        hits = []
        for budget in (20, 200):
            is_prime.cache_clear()
            v = SparseTensor((3, 3), {(0, 0): 1, (1, 2): 5, (2, 1): p - 1}, mod_domain(p))
            grank_upper_search(v, budget=budget)
            assert is_prime.cache_info().misses == 1
            hits.append(is_prime.cache_info().hits)
        assert hits[0] == hits[1]


def _reference_search(v, alpha=None, budget=64, seed=0):
    """``grank_upper_search`` as it was before pruning: every sample is
    transformed, by the Fraction reference transform, and its support LP
    solved once."""
    w = as_weight(alpha, v.order)
    if v.is_zero():
        return F(0)
    cache: dict[frozenset, F] = {}

    def rank_of(t: SparseTensor) -> F:
        key = frozenset(t.entries)  # support_of(t).elements, without the checks
        if key not in cache:
            cache[key] = trank(support_of(t), w).value
        return cache[key]

    best = rank_of(v)
    rng = random.Random(seed)
    p = modulus_of(v.domain)
    for count in range(1, max(1, budget)):
        kind = count % 3
        mats = [_reference_basis_change(rng, n, p, kind) for n in v.shape]
        best = min(best, rank_of(fraction_mode_transform(v, mats)))
    return best


def _rank_mod_p(vectors, p):
    """The rank mod p that ``_echelon_mod_p`` finds: its number of pivots."""
    return len(_echelon_mod_p(vectors, p)[0])


def _reference_rank_mod_p(vectors, p):
    """``_rank_mod_p`` as it was, verbatim: reduces to row-reduced echelon form."""
    rows = [list(v) for v in vectors if any(x % p for x in v)]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), -1)
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


# The basis-change sampler as it was, verbatim apart from the names, so that
# _reference_search pins the random stream the search draws from.  Its rank
# routine is _reference_rank_mod_p, whose ranks equal _rank_mod_p's
# (test_rank_mod_p_matches_reference), so no live code is called.
def _reference_det_rational(mat):
    n = len(mat)
    a = [[F(v) for v in row] for row in mat]
    det = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), -1)
        if piv < 0:
            return F(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def _reference_random_invertible(rng, n, p):
    for _ in range(64):
        if p is None:
            mat = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
            if _reference_det_rational(mat):
                return mat
        else:
            mat = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            if _reference_rank_mod_p(mat, p) == n:
                return mat
    return _reference_permutation(rng, n)  # vanishing-probability fallback


def _reference_permutation(rng, n):
    perm = rng.sample(range(n), n)
    return [[1 if c == perm[r] else 0 for c in range(n)] for r in range(n)]


def _reference_transvection(rng, n, p):
    mat = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    if n == 1:
        return mat
    a, b = rng.sample(range(n), 2)
    mat[a][b] = rng.choice((1, -1)) if p is None else rng.randrange(1, p)
    return mat


def _reference_basis_change(rng, n, p, kind):
    if kind == 0:
        return _reference_permutation(rng, n)
    if kind == 1:
        return _reference_transvection(rng, n, p)
    return _reference_random_invertible(rng, n, p)


def _random_tensor(rng, p):
    """An order 2-4 tensor with dimensions at most 3 over the rationals
    (``p`` None) or F_p, which may be zero.  A quarter have a random
    density; the rest are one to three entries hidden by a random basis
    change, so that the search lowers some of their values."""
    shape = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
    domain = "rational" if p is None else mod_domain(p)
    if rng.random() < 0.25:
        density = rng.choice((0.2, 0.5, 0.9))
        entries = {}
        for idx in itertools.product(*[range(n) for n in shape]):
            if rng.random() < density:
                entries[idx] = rng.randint(-3, 3) if p is None else rng.randrange(p)
        return SparseTensor(shape, entries, domain)
    entries = {tuple(rng.randrange(n) for n in shape): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}
    mats = [ranks._random_invertible(rng, n, p) for n in shape]
    return mode_transform(SparseTensor(shape, entries, domain), mats)


def _random_weight(rng, order):
    return tuple(F(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(order))


def _acceptance_ncrk_tuples():
    """The first 12 tuples of the acceptance generator (F_2, seed 4242)."""
    rng = random.Random(4242)
    tuples = []
    for _ in range(12):
        size, count = rng.choice((2, 3)), rng.randint(1, 3)
        mats = [[[rng.randrange(2) for _ in range(size)] for _ in range(size)] for _ in range(count)]
        tuples.append(MatrixTuple(mats, 2))
    return tuples


class TestPackingBound:
    @staticmethod
    def _check(support, weight):
        scale = math.lcm(*(a.denominator for a in weight))
        caps = [int(a * scale) for a in weight]
        bound = _packing_bound(support.shape, support.elements, caps)
        assert 0 < bound <= scale * trank(support, weight).value

    @pytest.mark.parametrize("weight_seed", [None, 1, 2, 3])
    def test_at_most_scaled_trank_on_acceptance_corpus(self, weight_seed):
        rng = random.Random(20240814)
        weight_rng = random.Random(weight_seed)
        for _ in range(200):
            s = random_support(rng)
            weight = as_weight(None if weight_seed is None else _random_weight(weight_rng, s.order),
                               s.order)
            self._check(s, weight)

    def test_at_most_scaled_trank_on_mod_p_supports(self):
        rng = random.Random(59)
        for p in (2, 3, 5):
            checked = 0
            while checked < 10:
                v = _random_tensor(rng, p)
                mats = [ranks._random_invertible(rng, n, p) for n in v.shape]
                t = mode_transform(v, mats)
                if t.is_zero():
                    continue
                self._check(support_of(t), as_weight(_random_weight(rng, t.order), t.order))
                checked += 1

    def test_diagonal_packing_is_tight(self):
        # Each slice holds one element, so every element gets its full cap.
        diagonal = Support((2, 2, 2), [(0, 0, 0), (1, 1, 1)])
        assert _packing_bound((2, 2, 2), diagonal.elements, (3, 3, 3)) == 6 == 3 * trank(diagonal).value

    def test_w_state_takes_caps_in_order(self):
        # (0, 0, 1) comes first among equal degree sums and empties slices
        # that both other elements need: 2 of 4 * 3/2.
        assert _packing_bound((2, 2, 2), W_SUPPORT.elements, (2, 2, 2)) == 2


class TestSearchMatchesReference:
    @pytest.mark.parametrize("p", [None, 2, 3, 5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_same_value_and_type(self, p, weighted):
        rng = random.Random(f"search-{p}-{weighted}")
        for _ in range(40):
            v = _random_tensor(rng, p)
            alpha = _random_weight(rng, v.order) if weighted else None
            budget = rng.choice((1, 2, 4, 8, 16, 32, 64))
            seed = rng.randrange(1000)
            got = grank_upper_search(v, alpha, budget=budget, seed=seed)
            want = _reference_search(v, alpha, budget=budget, seed=seed)
            assert type(got) is type(want) and got == want, (v, alpha, budget, seed)

    def test_fractional_rationals(self):
        # Entries +-(1..2)/(1..3) and no common denominator: g . v and
        # g . (numerators of v) can have different supports, so a search
        # that drops the denominators can report a bound below the search's
        # true value.
        rng = random.Random("search-fractions")
        for _ in range(300):
            shape = tuple(rng.randint(2, 3) for _ in range(3))
            cells = list(itertools.product(*[range(n) for n in shape]))
            picked = rng.sample(cells, rng.randint(2, len(cells)))
            v = SparseTensor(shape, {idx: F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)) for idx in picked})
            alpha = _random_weight(rng, v.order) if rng.random() < 0.5 else None
            budget, seed = rng.choice((4, 8, 16, 32)), rng.randrange(1000)
            got = grank_upper_search(v, alpha, budget=budget, seed=seed)
            assert got == _reference_search(v, alpha, budget=budget, seed=seed), (v, alpha, budget, seed)

    def test_ncrk_search_tuples(self):
        for k, tup in enumerate(_acceptance_ncrk_tuples()):
            t = matrix_tuple_tensor(tup)
            alpha = (1, 1, F(min(tup.rows, tup.cols)))
            got = grank_upper_search(t, alpha, budget=200, seed=k)
            assert got == _reference_search(t, alpha, budget=200, seed=k)

    def test_rank_mod_p_matches_reference(self):
        rng = random.Random(61)
        for _ in range(2000):
            p = rng.choice((2, 3, 5, 7))
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.randrange(-p, 2 * p) for _ in range(cols)] for _ in range(rows)]
            assert _rank_mod_p(m, p) == _reference_rank_mod_p(m, p)


class TestSampler:
    @pytest.mark.parametrize("p", [None, 2, 3, 5, 7, 2**61 - 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stream_matches_reference(self, p, n):
        # The kinds in the search's rotation.  The search draws a permutation
        # without building it; _permutation draws it the same way.
        got_rng, want_rng = random.Random(f"sampler-{p}-{n}"), random.Random(f"sampler-{p}-{n}")
        for count in range(2000):
            kind = count % 3
            if kind == 0:
                got = ranks._permutation(got_rng, n)
            elif kind == 1:
                got = ranks._transvection(got_rng, n, p)
            else:
                got = ranks._random_invertible(got_rng, n, p)
            assert got == _reference_basis_change(want_rng, n, p, kind), count
        assert got_rng.getstate() == want_rng.getstate()

    def test_det_int_matches_fraction_elimination(self):
        rng = random.Random(71)
        for k in range(3000):
            n = rng.randint(1, 5)
            bound = rng.choice((1, 3, 2**64))
            m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            if k % 3 == 0:
                m[0][0] = 0  # a zero leading pivot
            if k % 5 == 0 and n > 1:
                m[rng.randrange(n)] = list(m[rng.randrange(n)])  # often singular
            det = ranks._det_int(m)
            assert type(det) is int and det == _reference_det_rational(m), m

    def test_det_mod_p_decides_rank(self):
        rng = random.Random(73)
        for _ in range(3000):
            p = rng.choice((2, 3, 5, 7, 2**61 - 1))
            n = rng.randint(1, 5)
            m = [[rng.randrange(min(p, 4) if rng.random() < 0.5 else p) for _ in range(n)]
                 for _ in range(n)]
            assert (ranks._det_int(m) % p != 0) == (_rank_mod_p(m, p) == n), (m, p)


def _count_calls(monkeypatch, *names):
    """Count the calls ``ranks`` makes to each named function of its own."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(ranks, name, counted(name, getattr(ranks, name)))
    return calls


def test_search_skips_unneeded_work(monkeypatch):
    calls = _count_calls(monkeypatch, "trank", "_transform_ints")
    for k, tup in enumerate(_acceptance_ncrk_tuples()):
        alpha = (1, 1, F(min(tup.rows, tup.cols)))
        bound = grank_upper_search(matrix_tuple_tensor(tup), alpha, budget=200, seed=k)
        assert math.floor(bound) == ncrk_bruteforce(tup)
    # Per tuple: 199 samples, of which 66 are permutations and go unsolved.
    # Before pruning, the search made 994 trank calls and 2,388 transforms.
    assert calls["_transform_ints"] == 12 * 133
    assert calls["trank"] <= 24


def test_ncrk_search_stops_at_the_lower_bound(monkeypatch):
    # On these tuples the largest single-matrix rank is the ncrk.  In 11 of
    # 12 a one-mode slice cover already meets it; the first tuple, a rank-2
    # 3 x 3 matrix with no zero row or column, has cover 3, and its stacked
    # rank (the value of its kernel) meets it.  No LP is solved.
    calls = _count_calls(monkeypatch, "trank", "_transform_ints")
    for k, tup in enumerate(_acceptance_ncrk_tuples()):
        assert ncrk_via_grank(tup, budget=200, seed=k) == ncrk_bruteforce(tup)
    assert calls == {"trank": 0, "_transform_ints": 0}


def _grank_ascent_tensors():
    """The five tensors of the benchmark's ``grank-ascent`` workload: the
    W-state, then (3,3,3) at density 0.6, dense (4,4,4) and (5,5,5), and
    (3,3,3,3) at density 0.5, entries +-1 or +-2 drawn from seed 0."""
    rng = random.Random(0)
    tensors = [indicator_tensor(W_SUPPORT)]
    for shape, density in (((3, 3, 3), 0.6), ((4, 4, 4), 1.0), ((5, 5, 5), 1.0), ((3, 3, 3, 3), 0.5)):
        entries = {}
        for idx in itertools.product(*[range(n) for n in shape]):
            if rng.random() < density:
                entries[idx] = rng.choice((-2, -1, 1, 2))
        tensors.append(SparseTensor(shape, entries))
    return tensors


# Every entry is nonzero, so the support is all 27 cells.
DENSE_333 = SparseTensor((3, 3, 3), {idx: 1 + (idx[0] + 2 * idx[1] + 4 * idx[2]) % 3
                                     for idx in itertools.product(range(3), repeat=3)})
DIAGONAL = SparseTensor((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})


class TestCoverCertificate:
    """The search takes a support's rank as its one-mode slice cover C /
    scale where the greedy packing reaches C, once the packing is checked."""

    def test_bench_tensors_solve_two_lps(self, monkeypatch):
        # The identities of the four tensors after the W-state are certified;
        # only the W-state's identity and one of its samples are solved.
        calls = _count_calls(monkeypatch, "solve")
        got = [grank_upper_search(v, budget=8, seed=0) for v in _grank_ascent_tensors()]
        assert got == [F(3, 2), 3, 4, 5, 3]
        assert calls == {"solve": 2}

    def test_dense_tensor_solves_no_lp(self, monkeypatch):
        calls = _count_calls(monkeypatch, "solve")
        assert grank_upper_search(DENSE_333, budget=64, seed=0) == 3
        assert calls == {"solve": 0}

    @pytest.mark.parametrize("tamper,message", [
        pytest.param(lambda m: m.update({(0, 0, 0): 2, (1, 1, 1): 0}), "overloads slot", id="overload"),
        pytest.param(lambda m: m.update({(0, 0, 0): 3, (1, 1, 1): -1}), "not a dual variable", id="negative"),
        pytest.param(lambda m: m.update({(0, 1, 1): m.pop((1, 1, 1))}), "not a dual variable", id="off-support"),
        pytest.param(lambda m: m.pop((1, 1, 1)), "sum to 1", id="short-sum"),
    ])
    def test_tampered_packing_raises(self, monkeypatch, tamper, message):
        # The diagonal's packing, 1 on each element, meets its cover 2.  A
        # greedy that reports 2 but whose multipliers are no feasible dual of
        # value 2 must not pass its value into the minimum.
        real = ranks._packing_bound

        def tampered(shape, elements, caps, multipliers=None):
            bound = real(shape, elements, caps, multipliers)
            tamper(multipliers)
            return bound

        monkeypatch.setattr(ranks, "_packing_bound", tampered)
        calls = _count_calls(monkeypatch, "solve")
        with pytest.raises(RuntimeError, match=message):
            grank_upper_search(DIAGONAL, budget=1)
        assert calls == {"solve": 0}

    @pytest.mark.parametrize("alpha", [None, (2, 3, 5), (F(1, 2), 1, 3)])
    def test_short_packing_takes_the_lp(self, monkeypatch, alpha):
        # The diagonal's and the dense tensor's packings meet their covers;
        # one unit short, each identity goes to trank and gets its value.
        real = ranks._packing_bound
        monkeypatch.setattr(ranks, "_packing_bound", lambda *args: real(*args) - 1)
        calls = _count_calls(monkeypatch, "trank")
        for v in (DIAGONAL, DENSE_333, indicator_tensor(W_SUPPORT)):
            assert grank_upper_search(v, alpha, budget=1) == trank(support_of(v), alpha).value
        assert calls == {"trank": 3}

    # How many of the 200 supports each weighting certifies.
    @pytest.mark.parametrize("weight_seed,certified", [(None, 193), (1, 195), (2, 196), (3, 191)])
    def test_certificate_is_sound_on_acceptance_corpus(self, weight_seed, certified):
        # The draws of TestPackingBound's acceptance corpus test.
        rng = random.Random(20240814)
        weight_rng = random.Random(weight_seed)
        count = 0
        for _ in range(200):
            s = random_support(rng)
            weight = as_weight(None if weight_seed is None else _random_weight(weight_rng, s.order),
                               s.order)
            scale = math.lcm(*(a.denominator for a in weight))
            caps = [int(a * scale) for a in weight]
            multipliers = {}
            bound = _packing_bound(s.shape, s.elements, caps, multipliers)
            cover = min(caps[i] * len({e[i] for e in s.elements}) for i in range(s.order))
            if bound == cover:
                ranks._check_packing(s.shape, s.elements, caps, multipliers, cover)
                assert trank(s, weight).value == F(cover, scale)
                count += 1
            v = indicator_tensor(s)
            assert grank_upper_search(v, weight, budget=1) == trank(s, weight).value
        assert count == certified


def _alternating_triple(p):
    """E12 - E21, E13 - E31, E23 - E32: every matrix has rank 2, the ncrk is 3."""
    mats = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        m = [[0] * 3 for _ in range(3)]
        m[i][j], m[j][i] = 1, -1
        mats.append(m)
    return MatrixTuple(mats, p)


def _random_matrix_tuple(rng):
    p = rng.choice((2, 3, 5))
    rows, cols, count = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
    return MatrixTuple(
        [[[rng.randrange(p) for _ in range(cols)] for _ in range(rows)] for _ in range(count)], p
    )


class TestNcrkEarlyStop:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_alternating_triple_has_a_gap(self, p):
        tup = _alternating_triple(p)
        assert ranks._raise_lower(0, 3, tup.matrices, p) == 2
        assert ranks._ncrk_bounds(tup) == (2, 3)
        assert ncrk_bruteforce(tup) == ncrk_via_grank(tup, budget=200, seed=p) == 3

    def test_matches_the_full_search(self):
        # The stop may only skip samples that cannot change the floor; the
        # result is that floor capped at the certified upper bound U0.
        rng = random.Random(23)
        cases = [(_alternating_triple(p), 200, p) for p in (2, 3, 5)]
        cases += [(_random_matrix_tuple(rng), rng.randint(0, 200), rng.randrange(1000)) for _ in range(300)]
        for tup, budget, seed in cases:
            alpha = (1, 1, F(min(tup.rows, tup.cols)))
            full = grank_upper_search(matrix_tuple_tensor(tup), alpha, budget=budget, seed=seed)
            want = min(math.floor(full), ranks._ncrk_bounds(tup)[1])
            assert ncrk_via_grank(tup, budget=budget, seed=seed) == want, (tup, budget, seed)

    @pytest.mark.parametrize("tup", [MatrixTuple([[[1, 0], [0, 1]]], 2), _alternating_triple(3)])
    def test_minimum_below_the_lower_bound_raises(self, monkeypatch, tup):
        # Bounds that do not meet, the lower one above the true rank.
        lower = ncrk_bruteforce(tup) + 1
        monkeypatch.setattr(ranks, "_ncrk_bounds", lambda mats: (lower, lower + 1))
        with pytest.raises(RuntimeError, match=f"^ncrk search reached {lower - 1}, below the certified lower bound {lower}$"):
            ncrk_via_grank(tup, budget=200)

    @pytest.mark.parametrize("tup", [MatrixTuple([[[1, 0], [0, 1]]], 2),
                                     MatrixTuple([[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], 3)])
    def test_bruteforce_below_the_lower_bound_raises(self, monkeypatch, tup):
        # Every line has value cols, below the bound, and comes first.
        lower = ncrk_bruteforce(tup) + 1
        monkeypatch.setattr(ranks, "_ncrk_bounds", lambda mats: (lower, lower + 1))
        with pytest.raises(RuntimeError, match=f"^ncrk brute force reached {lower - 1}, below the certified lower bound {lower}$"):
            ncrk_bruteforce(tup)

    @pytest.mark.parametrize("run", [ncrk_bruteforce, ncrk_via_grank])
    @pytest.mark.parametrize("tup", [MatrixTuple([[[1, 0], [0, 1]]], 2), _alternating_triple(3)])
    def test_lower_bound_above_the_slice_cover_raises(self, monkeypatch, tup, run):
        # Both take their bounds from _ncrk_bounds, which checks the first
        # upper bound, C, against L.
        cover = ncrk_bruteforce(tup)
        monkeypatch.setattr(ranks, "_raise_lower", lambda lower, upper, matrices, p: cover + 1)
        with pytest.raises(RuntimeError, match=f"^ncrk slice cover reached {cover}, below the certified lower bound {cover + 1}$"):
            run(tup)

    @pytest.mark.parametrize("run", [ncrk_bruteforce, ncrk_via_grank])
    def test_singular_minor_raises(self, monkeypatch, run):
        # E11, E12 has ncrk 1 and common kernel 0.  An elimination that
        # claims one pivot too many lifts the bound to 2 = cols, where brute
        # force would stop at once and return 2; the minor on the claimed
        # pivots is singular, so the bound is refused instead.
        tup = MatrixTuple([[[1, 0], [0, 0]], [[0, 1], [0, 0]]], 2)
        assert ncrk_bruteforce(tup) == 1
        real = ranks._echelon_mod_p

        def one_pivot_too_many(m, p):
            pivots, rows = real(m, p)
            return pivots + [(1, 1)], rows + [[0, 1]]

        monkeypatch.setattr(ranks, "_echelon_mod_p", one_pivot_too_many)
        with pytest.raises(RuntimeError, match="^the 2 x 2 minor certifying the ncrk lower bound is singular mod 2$"):
            run(tup)

    def test_pivot_minor_is_nonsingular(self):
        rng = random.Random(29)
        for _ in range(300):
            p = rng.choice((2, 3, 5, 101))
            width = rng.randint(1, 5)
            m = [[rng.randrange(min(p, 3)) for _ in range(width)] for _ in range(rng.randint(1, 5))]
            pivots, echelon = _echelon_mod_p(m, p)
            rows, cols = [r for r, _ in pivots], [c for _, c in pivots]
            assert len(set(rows)) == len(rows) and cols == sorted(set(cols))
            assert len(pivots) == len(echelon) == _reference_rank_mod_p(m, p)
            if pivots:
                assert ranks._det_int([[m[r][c] for c in cols] for r in rows]) % p, (m, p)
            # Each echelon row is zero mod p left of its pivot, and the rows
            # span the space of m.
            for c, row in zip(cols, echelon):
                assert row[c] % p and not any(x % p for x in row[:c]), (m, p)
            assert _reference_rank_mod_p(m + echelon, p) == len(pivots), (m, p)


# Three tuples over F_101 on which the basis-change search alone, at its
# default budget, stays at 2, 3 and 3: dense uniform samples expose no low rank.
_F101_RANK1 = MatrixTuple([[[23, 92, 36], [63, 50, 2], [36, 43, 30]]], 101)
_F101_PAIR = MatrixTuple([[[49, 75, 5], [62, 31, 29], [18, 9, 41]],
                          [[40, 33, 61], [33, 55, 68], [26, 77, 75]]], 101)
_F101_RANK2 = MatrixTuple([[[55, 63, 14], [49, 89, 16], [45, 52, 21]]], 101)


def _images(tup, basis):
    """The images A_j u mod p of the vectors u of ``basis``, j-major."""
    p = tup.modulus
    return [[sum(a * b for a, b in zip(row, u)) % p for row in m] for m in tup.matrices for u in basis]


def _drop_last_pivot_on(monkeypatch, target):
    """Make ``_echelon_mod_p`` lose its last pivot, and that pivot's echelon
    row, whenever it eliminates exactly the vectors ``target``."""
    real = ranks._echelon_mod_p

    def tampered(vectors, p):
        pivots, rows = real(vectors, p)
        if [list(v) for v in vectors] == target:
            return pivots[:-1], rows[:-1]
        return pivots, rows

    monkeypatch.setattr(ranks, "_echelon_mod_p", tampered)


class TestNcrkBounds:
    """The certified bounds L' <= ncrk <= U0 of ``_ncrk_bounds``."""

    @pytest.mark.parametrize("tup,lower,stacked,side,want", [
        (_F101_RANK1, 1, 1, 1, 1),
        (_F101_PAIR, 1, 2, 2, 2),
        (_F101_RANK2, 2, 2, 2, 2),
    ])
    def test_witnesses_close_the_f101_tuples(self, monkeypatch, tup, lower, stacked, side, want):
        # The value of the common kernel is the rank of the matrices
        # stacked; that of the whole space, their rank side by side.
        stack = [row for m in tup.matrices for row in m]
        kernel = [x for _, x in _annihilator_mod_p(stack, 101, 3)]
        assert ranks._raise_lower(0, 3, tup.matrices, 101) == lower
        assert _subspace_value(tup, kernel, "common kernel") == stacked
        assert _subspace_value(tup, [[int(r == c) for c in range(3)] for r in range(3)], "whole space") == side
        calls = _count_calls(monkeypatch, "trank", "matrix_tuple_tensor")
        assert ranks._ncrk_bounds(tup) == (want, want)
        assert ncrk_via_grank(tup) == ncrk_bruteforce(tup) == want
        assert calls == {"trank": 0, "matrix_tuple_tensor": 0}

    def test_pair_needs_a_combination(self, monkeypatch):
        # L = 1 is below U0 = 2, and A1 + A2, the first combination, has
        # rank 2.  The combinations draw no random numbers.
        def no_rng(*args):
            raise AssertionError("random.Random constructed")

        monkeypatch.setattr(ranks.random, "Random", no_rng)
        real, drawn = ranks._combinations, []
        monkeypatch.setattr(ranks, "_combinations", lambda k, p: (drawn.append(c) or c for c in real(k, p)))
        assert ranks._ncrk_bounds(_F101_PAIR) == (2, 2)
        assert drawn == [[1, 1]]

    def test_pairs_reach_what_the_curve_misses(self):
        # Over F_3 the curve has two points, A1 + A2 + A3 and A1 + 2 A2 + A3,
        # both of rank 1; the pair A2 + A3 has rank 2 = U0.
        tup = MatrixTuple([[[0, 2], [0, 2]], [[2, 1], [0, 0]], [[0, 0], [0, 1]]], 3)
        assert list(ranks._combinations(3, 3)) == [
            [1, 1, 1], [1, 2, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1],
        ]
        assert ranks._raise_lower(0, 2, tup.matrices, 3) == 1
        assert ranks._ncrk_bounds(tup) == (2, 2)
        # At most 16 combinations; at k = 2 no pair repeats the curve's t = 1.
        assert len(list(ranks._combinations(8, 101))) == 16
        assert list(ranks._combinations(2, 2)) == [[1, 1]]

    def test_annihilator_has_the_kernel_dimension(self):
        rng = random.Random(37)
        for _ in range(500):
            p = rng.choice((2, 3, 5, 7, 101, 2**61 - 1))
            width = rng.randint(1, 5)
            vectors = [[rng.randrange(min(p, 3)) for _ in range(width)] for _ in range(rng.randint(1, 5))]
            basis = _annihilator_mod_p(vectors, p, width)
            assert all(sum(a * b for a, b in zip(u, x)) % p == 0 for _, x in basis for u in vectors)
            assert len(basis) == width - _reference_rank_mod_p(vectors, p), (vectors, p)

    @pytest.mark.parametrize("tup", [_alternating_triple(2), _F101_PAIR, _random_matrix_tuple(random.Random(41))])
    def test_bounds_bracket_brute_force(self, tup):
        lower, upper = ranks._ncrk_bounds(tup)
        assert lower <= ncrk_bruteforce(tup) <= upper

    @pytest.mark.parametrize("run", [ncrk_bruteforce, ncrk_via_grank])
    def test_images_elimination_with_a_pivot_too_few_raises(self, monkeypatch, run):
        # On the pair, L = 1 and both subspace values are 2.  Dropping a
        # pivot row from the elimination of the whole space's images, the
        # columns of the matrices, adds a vector outside their annihilator,
        # and the value would meet L at 1, below the ncrk; the
        # orthogonality check refuses it.
        columns = [list(col) for m in _F101_PAIR.matrices for col in zip(*m)]
        _drop_last_pivot_on(monkeypatch, columns)
        with pytest.raises(RuntimeError, match="^the annihilator of the whole space's images fails its check mod 101$"):
            run(_F101_PAIR)

    # Tuples of two or more matrices: stacked, they are no matrix that
    # another elimination sees.
    @pytest.mark.parametrize("tup", [
        _F101_PAIR, _alternating_triple(3), MatrixTuple([[[1, 0], [0, 0]], [[0, 1], [0, 0]]], 2),
    ])
    def test_wrong_common_kernel_only_weakens_its_value(self, monkeypatch, tup):
        # A pivot dropped from the elimination of the stacked matrices adds
        # a vector outside their common kernel.  Its value is checked on
        # the subspace itself, so it can only rise: the bounds still
        # bracket brute force and no result moves.
        p, cols = tup.modulus, tup.cols
        stack = [list(row) for m in tup.matrices for row in m]
        want = (ranks._ncrk_bounds(tup), ncrk_bruteforce(tup), ncrk_via_grank(tup, budget=30))
        true_value = _subspace_value(tup, [x for _, x in _annihilator_mod_p(stack, p, cols)], "common kernel")
        _drop_last_pivot_on(monkeypatch, stack)
        wrong = [x for _, x in _annihilator_mod_p(stack, p, cols)]
        assert any(map(any, _images(tup, wrong)))  # a vector outside the kernel
        assert _subspace_value(tup, wrong, "common kernel") >= true_value
        lower, upper = ranks._ncrk_bounds(tup)
        assert lower <= ncrk_bruteforce(tup) <= upper
        assert ((lower, upper), ncrk_bruteforce(tup), ncrk_via_grank(tup, budget=30)) == want

    @pytest.mark.parametrize("run", [ncrk_bruteforce, ncrk_via_grank])
    def test_dependent_annihilator_basis_raises(self, monkeypatch, run):
        # A basis vector listed twice passes the orthogonality check; the
        # minor on the unit columns is singular.  The rank-1 matrix's
        # common kernel is a plane whose images are 0, so their
        # annihilator, the whole of F_101^3, is listed as six vectors.
        real = ranks._annihilator_mod_p
        monkeypatch.setattr(ranks, "_annihilator_mod_p", lambda vectors, p, width: real(vectors, p, width) * 2)
        with pytest.raises(RuntimeError, match="^the 6 x 6 minor certifying the annihilator of the common kernel's images is singular mod 101$"):
            run(_F101_RANK1)

    @pytest.mark.parametrize("run", [ncrk_bruteforce, ncrk_via_grank])
    def test_singular_dimension_minor_raises(self, monkeypatch, run):
        # The rank-1 matrix's common kernel is a plane: the only 2 x 2
        # minor is the one certifying its dimension.
        real = ranks._det_int
        monkeypatch.setattr(ranks, "_det_int", lambda m: 0 if len(m) == 2 else real(m))
        with pytest.raises(RuntimeError, match="^the 2 x 2 minor certifying the dimension of the common kernel is singular mod 101$"):
            run(_F101_RANK1)

    def test_combination_above_the_upper_bound_raises(self, monkeypatch):
        # E11, E22, E33: L = 1 and A1 + A2 + A3 has rank 3.  Subspace values
        # that claim 2 contradict it.
        tup = MatrixTuple([[[int(r == c == i) for c in range(3)] for r in range(3)] for i in range(3)], 101)
        assert ranks._ncrk_bounds(tup) == (3, 3)
        monkeypatch.setattr(ranks, "_subspace_value", lambda mats, basis, name: 2)
        with pytest.raises(RuntimeError, match="^ncrk combination rank 3 exceeds the certified upper bound 2$"):
            ranks._ncrk_bounds(tup)

    @pytest.mark.parametrize("run", [ncrk_bruteforce, ncrk_via_grank])
    def test_singular_combination_minor_raises(self, monkeypatch, run):
        # On the pair, L, the common kernel and the annihilator of the
        # whole space's images have 1 x 1 minors, the whole space and the
        # annihilator of the kernel's zero images 3 x 3 ones; A1 + A2 has
        # rank 2, so its 2 x 2 minor is the only one of that size.
        real = ranks._det_int
        monkeypatch.setattr(ranks, "_det_int", lambda m: 0 if len(m) == 2 else real(m))
        with pytest.raises(RuntimeError, match="^the 2 x 2 minor certifying the ncrk lower bound is singular mod 101$"):
            run(_F101_PAIR)

    def test_singular_one_by_one_minor_raises(self):
        # 101 is nonzero over the integers but zero mod 101, so a 1 x 1
        # minor is checked like any other
        with pytest.raises(RuntimeError, match="^the 1 x 1 minor certifying the test rank is singular mod 101$"):
            ranks._certified_rank([[101]], [(0, 0)], 101, "the test rank")
        assert ranks._certified_rank([[102]], [(0, 0)], 101, "the test rank") == 1


def _reference_reduced_mod_p(vectors, p):
    """``_reduced_mod_p`` as it was, verbatim: the nonzero rows of the
    reduced row echelon form, each with its pivot column."""
    rows = [r for r in ([x % p for x in v] for v in vectors) if any(r)]
    reduced: list[tuple[int, list[int]]] = []
    for col in range(len(vectors[0])):
        if not rows:
            break
        k = next((k for k, r in enumerate(rows) if r[col]), -1)
        if k < 0:
            continue
        pivot = rows.pop(k)
        inv = pow(pivot[col], p - 2, p)
        pivot[:] = [x * inv % p for x in pivot]
        for r in rows + [r for _, r in reduced]:  # rows above and below
            if f := r[col]:
                r[:] = [(a - f * b) % p for a, b in zip(r, pivot)]
        rows = [r for r in rows if any(r)]
        reduced.append((col, pivot))
    return reduced


def _reference_kernel_mod_p(vectors, p):
    """``_kernel_mod_p`` as it was, verbatim: the kernel read off the
    reduced row echelon form."""
    reduced = _reference_reduced_mod_p(vectors, p)
    pivots = {c for c, _ in reduced}
    basis = []
    for f in range(len(vectors[0])):
        if f not in pivots:
            x = [0] * len(vectors[0])
            x[f] = 1
            for c, row in reduced:
                x[c] = -row[f] % p
            basis.append((f, x))
    return basis


class TestSubspaceValue:
    def test_back_substitution_matches_the_reduced_form(self):
        rng = random.Random(43)
        for k in range(500):
            p = rng.choice((2, 3, 5, 7, 101, 2**61 - 1))
            width = rng.randint(1, 6)
            small = min(p, 3) if k % 2 else p  # small entries often repeat a row
            vectors = [[rng.randrange(-small, small) for _ in range(width)] for _ in range(rng.randint(1, 6))]
            if k % 7 == 0:
                vectors.append([x * 2 + y for x, y in zip(vectors[0], vectors[-1])])
            got = _annihilator_mod_p(vectors, p, width)
            assert got == _reference_kernel_mod_p(vectors, p), (vectors, p)

    def test_value_matches_the_reference_ranks(self):
        rng = random.Random(47)
        seen = dict.fromkeys(("empty", "zero", "dependent", "independent"), 0)
        for k in range(400):
            tup = _random_matrix_tuple(rng) if k % 5 else _alternating_triple(rng.choice((2, 3, 5)))
            p, cols = tup.modulus, tup.cols
            kind = ("empty", "zero", "dependent", "independent")[k % 4]
            if kind == "empty":
                basis = []
            elif kind == "zero":
                basis = [[0] * cols for _ in range(rng.randint(1, 3))]
            else:
                basis = [[rng.randrange(p) for _ in range(cols)] for _ in range(rng.randint(1, cols))]
                if kind == "dependent":
                    basis.append([(a + 2 * b) % p for a, b in zip(basis[0], basis[-1])])
            want = cols + _reference_rank_mod_p(_images(tup, basis), p) - _reference_rank_mod_p(basis, p)
            assert _subspace_value(tup, basis, "test") == want, (tup, basis)
            seen[kind] += 1
        assert all(seen.values())


class TestNcrkBruteforceCheck:
    """Brute force checks the subspace of its least value."""

    @staticmethod
    def _under_report_first_subspace(monkeypatch, by):
        # The first enumerated subspace's elimination loses ``by`` pivots;
        # every other elimination, the check's included, is left alone.
        real_bases, real_echelon, armed = ranks._rref_bases, ranks._echelon_mod_p, []

        def bases(q, k, p):
            for basis in real_bases(q, k, p):
                armed.append(basis)
                yield basis

        def echelon(vectors, p):
            pivots, rows = real_echelon(vectors, p)
            if len(armed) == 1:
                armed.append(None)
                return pivots[:-by], rows[:-by]
            return pivots, rows

        monkeypatch.setattr(ranks, "_rref_bases", bases)
        monkeypatch.setattr(ranks, "_echelon_mod_p", echelon)

    def test_check_runs_on_the_least_subspace(self, monkeypatch):
        # The alternating triple's bounds are 2 and 3: no subspace reaches
        # below 3, so there is nothing to check.  On the pair over F_2 of
        # TestNcrkBruteforceStop, the third plane lowers U0 = 3 to 2.
        calls = _count_calls(monkeypatch, "_subspace_value")
        assert ncrk_bruteforce(_alternating_triple(3)) == 3
        assert calls["_subspace_value"] == 2  # the common kernel and the whole space
        tup = MatrixTuple([[[0, 0, 1], [1, 0, 0], [1, 0, 1], [0, 0, 0]],
                           [[0, 1, 0], [1, 1, 1], [1, 0, 1], [1, 0, 1]]], 2)
        assert ranks._ncrk_bounds(tup) == (2, 3)
        calls["_subspace_value"] = 0
        assert ncrk_bruteforce(tup) == 2
        assert calls["_subspace_value"] == 3

    def test_under_reported_subspace_raises(self, monkeypatch):
        # Every line of the alternating triple over F_3 has value
        # 3 + 2 - 1 = 4.  Under-reported by 2, the first reads 2 = L', below
        # the ncrk 3 but not below the bound, and would stop the enumeration.
        tup = _alternating_triple(3)
        assert ranks._ncrk_bounds(tup) == (2, 3)
        self._under_report_first_subspace(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="^ncrk brute force reached 2 on a subspace whose checked value is 4$"):
            ncrk_bruteforce(tup)

    def test_under_reported_subspace_exits_3(self, monkeypatch, capsys, tmp_path):
        from stablerank.cli import main

        path = tmp_path / "alternating.json"
        path.write_text(json.dumps({"modulus": 3, "matrices": _alternating_triple(3).matrices}))
        self._under_report_first_subspace(monkeypatch, 2)
        code = main(["ncrk", str(path), "--mode", "brute"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == "error: ncrk brute force reached 2 on a subspace whose checked value is 4\n"


class TestNcrkSliceCover:
    """The cover C = min(nonzero rows, nonzero columns, ell * nonzero
    matrices) that ``ncrk_via_grank`` checks against L before searching."""

    @staticmethod
    def _spy(monkeypatch):
        calls = _count_calls(monkeypatch, "trank", "matrix_tuple_tensor")

        def no_rng(*args):
            raise AssertionError("random.Random constructed")

        monkeypatch.setattr(ranks.random, "Random", no_rng)
        return calls

    @pytest.mark.parametrize("budget", [0, 200])
    @pytest.mark.parametrize("tup", [
        MatrixTuple([[[1, 0], [0, 1]]], 2),  # C = L = 2
        MatrixTuple([[[1, 2, 0], [0, 0, 0]]], 5),  # one nonzero row: C = L = 1
    ])
    def test_cover_meeting_the_bound_skips_the_search(self, monkeypatch, tup, budget):
        want = ncrk_bruteforce(tup)
        calls = self._spy(monkeypatch)
        assert ncrk_via_grank(tup, budget=budget, seed=3) == want
        assert calls == {"trank": 0, "matrix_tuple_tensor": 0}

    @pytest.mark.parametrize("tup,cover", [(MatrixTuple([[[1, 0], [0, 1]]], 2), 2), (_alternating_triple(3), 3)])
    def test_cover_below_the_lower_bound_raises(self, monkeypatch, tup, cover):
        monkeypatch.setattr(ranks, "_raise_lower", lambda lower, upper, matrices, p: cover + 1)
        calls = self._spy(monkeypatch)
        with pytest.raises(RuntimeError, match=f"^ncrk slice cover reached {cover}, below the certified lower bound {cover + 1}$"):
            ncrk_via_grank(tup, budget=200)
        assert calls == {"trank": 0, "matrix_tuple_tensor": 0}

    def test_zero_tuple(self, monkeypatch):
        calls = self._spy(monkeypatch)
        assert ncrk_via_grank(MatrixTuple([[[0, 0], [0, 0]], [[0, 0], [0, 0]]], 3)) == 0
        assert calls == {"trank": 0, "matrix_tuple_tensor": 0}

    def test_cover_above_the_bound_searches(self, monkeypatch):
        # Every row and column of the alternating triple is nonzero, so
        # C = 3 > L = 2 and the search runs and finds 3.
        calls = _count_calls(monkeypatch, "trank", "matrix_tuple_tensor")
        assert ncrk_via_grank(_alternating_triple(3), budget=200, seed=0) == 3
        assert calls["matrix_tuple_tensor"] == 1 and calls["trank"] >= 1


def _ncrk_reference(tup):
    """The non-commutative rank by enumerating every subspace W, with no
    stop: the minimum of cols + dim(sum_i A_i W) - dim W."""
    p, q = tup.modulus, tup.cols
    best = q
    for k in range(1, q + 1):
        for basis in ranks._rref_bases(q, k, p):
            images = [
                [sum(m[r][c] * w[c] for c in range(q)) % p for r in range(tup.rows)]
                for m in tup.matrices
                for w in basis
            ]
            best = min(best, q + _reference_rank_mod_p(images, p) - k)
    return best


class TestNcrkBruteforceStop:
    def test_matches_the_full_enumeration(self):
        rng = random.Random(31)
        cases = [_alternating_triple(p) for p in (2, 3, 5)]
        # Bound 2: lines reach 3 first, and only the third plane reaches 2,
        # so a stop at a value above the bound, or one that leaves a
        # dimension early, returns 3.
        cases.append(MatrixTuple([[[0, 0, 1], [1, 0, 0], [1, 0, 1], [0, 0, 0]],
                                  [[0, 1, 0], [1, 1, 1], [1, 0, 1], [1, 0, 1]]], 2))
        cases += [_random_matrix_tuple(rng) for _ in range(300)]
        assert any(t.rows != t.cols for t in cases)
        # 4- and 5-column tuples over F_2 and F_3 whose bounds do not meet,
        # three of each: brute force enumerates planes and up, where
        # consecutive RREF bases share their first rows.
        gap_rng, gap_drops = random.Random(53), set()
        for p, cols in itertools.product((2, 3), (4, 5)):
            drawn = 0
            while drawn < 3:
                rows, count = gap_rng.randint(cols - 1, cols + 1), gap_rng.randint(2, 3)
                tup = MatrixTuple([[[gap_rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
                                   for _ in range(count)], p)
                lower, upper = ranks._ncrk_bounds(tup)
                if lower < upper:
                    cases.append(tup)
                    gap_drops.add(upper - _ncrk_reference(tup))
                    drawn += 1
        # Some gap tuples reach L' below U0, where the enumeration stops
        # midway; the others run it to the end.
        assert gap_drops == {0, 1}
        for tup in cases:
            assert ncrk_bruteforce(tup) == _ncrk_reference(tup), tup

    def _spy_rref_bases(self, monkeypatch):
        calls = []
        real = ranks._rref_bases

        def spy(q, k, p):
            calls.append((q, k, p))
            return real(q, k, p)

        monkeypatch.setattr(ranks, "_rref_bases", spy)
        return calls

    def test_no_enumeration_when_the_kernel_meets_the_bound(self, monkeypatch):
        calls = self._spy_rref_bases(monkeypatch)
        # The bound equals cols: an invertible matrix, a tall one of full
        # column rank, and a pair whose second matrix is invertible.
        assert ncrk_bruteforce(MatrixTuple([[[1, 0], [0, 1]]], 100003)) == 2
        assert ncrk_bruteforce(MatrixTuple([[[1, 2], [3, 4], [0, 1]]], 5)) == 2
        assert ncrk_bruteforce(MatrixTuple([[[1, 1], [1, 1]], [[0, 1], [1, 0]]], 2)) == 2
        # Below cols: two rank-1 matrices with the kernel spanned by (2, -1).
        assert ncrk_bruteforce(MatrixTuple([[[1, 2], [2, 4]], [[3, 6], [1, 2]]], 100003)) == 1
        assert calls == []

    def test_no_enumeration_when_the_whole_space_meets_the_bound(self, monkeypatch):
        # Both matrices map into the span of (1, 1): the bound is 1, the
        # slice cover 2, the common kernel 0 (value 2) and the whole space
        # has value 2 + 1 - 2 = 1, the rank of the matrices side by side.
        calls = self._spy_rref_bases(monkeypatch)
        tup = MatrixTuple([[[1, 0], [1, 0]], [[0, 1], [0, 1]]], 100003)
        assert ranks._ncrk_bounds(tup) == (1, 1)
        assert ncrk_bruteforce(tup) == 1
        # E11 and E12 have one nonzero row: the slice cover alone meets it.
        assert ncrk_bruteforce(MatrixTuple([[[1, 0], [0, 0]], [[0, 1], [0, 0]]], 100003)) == 1
        assert calls == []


class TestNcrk:
    def test_identity_singleton(self):
        assert ncrk_bruteforce(MatrixTuple([[[1, 0], [0, 1]]], 2)) == 2

    def test_e11_singleton(self):
        assert ncrk_bruteforce(MatrixTuple([[[1, 0], [0, 0]]], 2)) == 1

    def test_spanning_tuple(self):
        mats = [
            [[1, 0], [0, 0]],
            [[0, 1], [0, 0]],
            [[0, 0], [1, 0]],
            [[0, 0], [0, 1]],
        ]
        assert ncrk_bruteforce(MatrixTuple(mats, 2)) == 2

    def test_singleton_equals_matrix_rank(self):
        # For one matrix the subspace formula collapses to ordinary rank.
        rng = random.Random(19)
        for p in (2, 3):
            for _ in range(10):
                rows, cols = rng.randint(1, 3), rng.randint(1, 3)
                m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
                tup = MatrixTuple([m], p)
                assert ncrk_bruteforce(tup) == _reference_rank_mod_p(m, p)

    def test_limit_enforced(self):
        wide = MatrixTuple([[[1] * 25]], 2)
        with pytest.raises(SubspaceLimitError):
            ncrk_bruteforce(wide, limit=1 << 20)

    def test_limit_counts_subspaces(self):
        # F_2^3 has 1 + 7 + 7 + 1 = 16 subspaces, though 2^3 = 8
        tup = MatrixTuple([[[1, 1, 0], [0, 1, 1]]], 2)
        assert ncrk_bruteforce(tup, limit=16) == 2
        with pytest.raises(SubspaceLimitError, match="at least 16 subspaces, above the enumeration limit 15"):
            ncrk_bruteforce(tup, limit=15)

    def test_default_limit_refuses_before_enumerating(self, monkeypatch):
        # 2^9 = 512 is far below 2^20, but F_2^9 has 8,283,458 subspaces
        def enumerate_(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(ranks, "_rref_bases", enumerate_)
        with pytest.raises(SubspaceLimitError, match="^F_2\\^9 has at least"):
            ncrk_bruteforce(MatrixTuple([[[1] * 9]], 2))

    def test_default_limit_admits_few_subspaces_of_a_large_field(self):
        # F_2003^2 has 2006 subspaces, though 2003^2 exceeds 2^20
        assert ncrk_bruteforce(MatrixTuple([[[1, 0], [0, 1]]], 2003)) == 2

    @pytest.mark.parametrize("entry", [1.5, F(1, 2), "1.5", "1/0", "a", None])
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises((TypeError, ValueError)):
            MatrixTuple([[[1, 0], [0, entry]]], 2)

    @pytest.mark.parametrize("matrices", [
        [["12", "34"]],  # read by character, it would be [[1, 2], [3, 4]]
        ["1"],  # read by character, it would be [[1]]
        [[[1, 0], "01"]],
        [[{"0": 1}]],
        [5],
    ])
    def test_matrix_or_row_that_is_not_a_list_rejected(self, matrices):
        with pytest.raises(ValueError, match="^each matrix (row )?must be a list of (rows|entries), got "):
            MatrixTuple(matrices, 7)

    def test_tuple_rows_accepted(self):
        assert MatrixTuple(([(1, 2), [3, 11]],), 7).matrices == (((1, 2), (3, 4)),)

    def test_integral_entries_accepted(self):
        tup = MatrixTuple([[[1.0, "0"], [F(4), 3]]], 2)
        assert tup.matrices == (((1, 0), (0, 1)),)

    def test_tensor_construction(self):
        tup = MatrixTuple([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], 2)
        t = matrix_tuple_tensor(tup)
        assert t.shape == (2, 2, 2)
        assert t.entries == {(0, 0, 0): 1, (1, 1, 1): 1}

    def test_search_identity_and_e11(self):
        assert ncrk_via_grank(MatrixTuple([[[1, 0], [0, 1]]], 2)) == 2
        assert ncrk_via_grank(MatrixTuple([[[1, 0], [0, 0]]], 2)) == 1

    def test_search_zero_tuple(self):
        assert ncrk_via_grank(MatrixTuple([[[0, 0], [0, 0]]], 2)) == 0

    def test_search_bounds_bruteforce(self):
        rng = random.Random(55)
        for trial in range(12):
            size = rng.choice((2, 3))
            m = rng.randint(1, 3)
            mats = [
                [[rng.randrange(2) for _ in range(size)] for _ in range(size)]
                for _ in range(m)
            ]
            tup = MatrixTuple(mats, 2)
            brute = ncrk_bruteforce(tup)
            search = ncrk_via_grank(tup, budget=200, seed=trial)
            assert search >= brute
            assert search == brute  # converges at this budget on this corpus


def test_matrix_tuple_rejects_no_matrices():
    with pytest.raises(ValueError) as info:
        MatrixTuple([], 2)
    assert str(info.value) == "matrix tuple must contain at least one matrix"


class _ZeroDraws(random.Random):
    """Draws only zeros from ``choice`` and ``randrange``, so every matrix
    the basis-change sampler draws is the zero matrix."""

    def choice(self, seq):
        return 0

    def randrange(self, *args, **kwargs):
        return 0


@pytest.mark.parametrize("p", [None, 2])
@pytest.mark.parametrize("n", [1, 3])
def test_random_invertible_falls_back_to_a_permutation(n, p):
    from stablerank.ranks import _random_invertible

    mat = _random_invertible(_ZeroDraws(5), n, p)
    assert sorted(map(sorted, mat)) == [[0] * (n - 1) + [1]] * n
    assert sorted(row.index(1) for row in mat) == list(range(n))
