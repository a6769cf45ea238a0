"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion pass lines).  The random corpus is seeded and therefore
identical on every run.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from stablerank import (
    MatrixTuple,
    SparseTensor,
    Support,
    boxplus,
    boxtimes,
    build_lp,
    capset_bound,
    conjectured_t,
    dual_trank,
    eg_bound,
    eg_prime_bound,
    full_capset_lp,
    ncrk_bruteforce,
    ncrk_via_grank,
    outer,
    reduced_lp,
    solve,
    support_of,
    trank,
    trinomial,
    tslice,
    verify_certificate,
    verify_conjecture,
)
from stablerank.capset import t_vector_feasible, t_vector_value
from stablerank.complexrank import flatten, objective, sandwich, spectral_norm, to_dense_complex

from conftest import exhaustive_min_cover, indicator_tensor, random_support

EXPECTED_BOUNDS = [
    2, 6, 15, 39, 105, 274, 722, 1957, 5193, 13770,
    37477, 100296, 266997, 728661, 1961103, 5235597,
    14316784, 38685141, 103504935, 283466139,
]

TABLE_F_ROWS = {
    1: [1, 1, 1],
    2: [1, 2, 3, 2, 1],
    3: [1, 3, 6, 7, 6, 3, 1],
    4: [1, 4, 10, 16, 19, 16, 10, 4, 1],
    5: [1, 5, 15, 30, 45, 51, 45, 30, 15, 5, 1],
    6: [1, 6, 21, 50, 90, 126, 141, 126, 90, 50, 21, 6, 1],
}

TABLE_T_VECTORS = {
    1: [F(1, 2), F(1, 4), 0],
    2: [F(3, 5), F(2, 5), F(1, 5), 0, 0],
    3: [1, F(2, 3), F(1, 3), 0, 0, 0, 0],
    4: [1, F(3, 4), F(1, 2), F(1, 4), 0, 0, 0, 0, 0],
    5: [1, F(4, 5), F(3, 5), F(2, 5), F(1, 5), 0, 0, 0, 0, 0, 0],
    6: [1, 1, 1, F(2, 3), F(1, 3), 0, 0, 0, 0, 0, 0, 0, 0],
}

TABLE_VALUES = {1: F(9, 4), 2: F(6), 3: F(15), 4: F(39), 5: F(105), 6: F(274)}
TABLE_EG = {1: 3, 2: 9, 3: 30, 4: 45, 5: 153, 6: 504}
TABLE_EG_PRIME = {1: 3, 2: 7, 3: 18, 4: 45, 5: 123, 6: 324}

_CORPUS: list[Support] | None = None


def corpus() -> list[Support]:
    """The 200-support random corpus shared by criteria 4, 5 and 6."""
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(20240814)
        _CORPUS = [random_support(rng) for _ in range(200)]
    return _CORPUS


def w_state() -> SparseTensor:
    return SparseTensor((2, 2, 2), {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})


def test_c01_capset_table_reproduction():
    start = time.monotonic()
    bounds = [capset_bound(n) for n in range(1, 21)]
    elapsed = time.monotonic() - start
    assert bounds == EXPECTED_BOUNDS
    assert elapsed < 60.0
    print(f"\ncriterion 1 (capset table n=1..20, {elapsed:.1f}s): PASS")


def test_c02_small_table_reproduction():
    for n in range(1, 7):
        assert trinomial(n) == TABLE_F_ROWS[n]
        res = reduced_lp(n)
        assert res.value == TABLE_VALUES[n]
        # printed t vectors are accepted as one optimal solution
        t = TABLE_T_VECTORS[n]
        assert t_vector_feasible(t, n)
        assert t_vector_value(t, n) == res.value
    print("criterion 2 (small-n table values and t vectors): PASS")


def test_c03_w_state_end_to_end():
    v = w_state()
    assert trank(support_of(v)).value == F(3, 2)
    dense = to_dense_complex(v)
    eye = [np.eye(2)] * 3
    assert abs(objective(dense, eye, (1, 1, 1)) - 1.5) <= 1e-9
    result = sandwich(v)
    assert result.upper == F(3, 2)
    assert abs(result.lower - 1.5) <= 1e-6
    print("criterion 3 (W-state end-to-end rank 3/2): PASS")


def test_c04_exact_strong_duality_on_corpus():
    for s in corpus():
        lp = build_lp(s, (1,) * s.order)
        sol = solve(lp)
        assert verify_certificate(lp, sol)
        primal = trank(s)
        dual = dual_trank(s)
        assert primal.value == dual.value == sol.value
        assert primal.certificate_ok and dual.certificate_ok
    print("criterion 4 (exact strong duality on 200 supports): PASS")


def test_c05_rank_inequality_suite():
    supports = corpus()
    for s in supports:
        d = s.order
        value = trank(s).value
        cover = tslice(s).value
        assert F(2, d) * cover <= value <= cover
        assert value >= 1
        inverse = tuple(F(1, n) for n in s.shape)
        assert trank(s, inverse).value <= 1

    by_order: dict[int, list[Support]] = {}
    for s in supports:
        by_order.setdefault(s.order, []).append(s)
    additivity = supermultiplicativity = horizontal = 0
    for group in by_order.values():
        for a, b in zip(group[0::2], group[1::2]):
            va, vb = indicator_tensor(a), indicator_tensor(b)
            ra, rb = trank(a), trank(b)
            # block additivity is exact
            assert trank(support_of(boxplus(va, vb))).value == ra.value + rb.value
            additivity += 1
            # product dual certificate is feasible, giving weak-duality
            # supermultiplicativity for the mode-paired product
            prod_support = support_of(boxtimes(va, vb))
            elements_a, elements_b = a.sorted_elements, b.sorted_elements
            for i in range(a.order):
                for j in range(a.shape[i]):
                    load_a = sum(
                        (ra.dual[s_] for s_ in elements_a if s_[i] == j), F(0)
                    )
                    for jp in range(b.shape[i]):
                        load_b = sum(
                            (rb.dual[s_] for s_ in elements_b if s_[i] == jp), F(0)
                        )
                        assert load_a * load_b <= 1  # alpha = beta = all ones
            injected_value = sum(
                (ra.dual[s_] * rb.dual[s_2] for s_ in elements_a for s_2 in elements_b),
                F(0),
            )
            assert injected_value == ra.value * rb.value
            assert len(prod_support) == len(a) * len(b)
            supermultiplicativity += 1
    # horizontal products may mix orders; pair across the corpus
    for a, b in zip(supports[0:40:2], supports[1:40:2]):
        va, vb = indicator_tensor(a), indicator_tensor(b)
        joined = trank(support_of(outer(va, vb))).value
        assert joined == min(trank(a).value, trank(b).value)
        horizontal += 1
    assert additivity >= 90 and supermultiplicativity >= 90 and horizontal == 20
    print("criterion 5 (rank inequality suite on the corpus): PASS")


def test_c06_tslice_matches_exhaustive_oracle():
    checked = 0
    for s in corpus():
        if sum(s.shape) <= 12:
            assert tslice(s).value == exhaustive_min_cover(s)
            checked += 1
    assert checked >= 40
    print(f"criterion 6 (slice cover vs 0/1 oracle, {checked} supports): PASS")


def test_c07_spectral_norm_oracle():
    rng = np.random.default_rng(77)
    for _ in range(100):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        top = float(np.sqrt(np.linalg.eigvalsh(a @ a.conj().T)[-1]))
        assert abs(spectral_norm(a) - top) <= 1e-10
    w_flat = flatten(to_dense_complex(w_state()), 0)
    assert abs(spectral_norm(w_flat) - math.sqrt(2.0)) <= 1e-12
    print("criterion 7 (spectral norm vs eigendecomposition oracle): PASS")


def test_c08_cutoff_bound_columns():
    for n in range(1, 7):
        assert eg_bound(n) == TABLE_EG[n]
        assert eg_prime_bound(n) == TABLE_EG_PRIME[n]
    for n in range(1, 21):
        assert capset_bound(n) <= eg_prime_bound(n) <= eg_bound(n)
    print("criterion 8 (EG and EG' columns, dominance to n=20): PASS")


def test_c09_conjecture_verifier():
    for n in range(2, 61):
        assert t_vector_feasible(conjectured_t(n), n)
    for n in range(3, 7):
        report = verify_conjecture(n)
        assert report.feasible and report.matches
    reported = [verify_conjecture(n).matches for n in range(7, 21)]
    assert all(isinstance(flag, bool) for flag in reported)
    print(f"criterion 9 (conjecture feasible to n=60; matches 7..20: "
          f"{sum(reported)}/14 reported): PASS")


def test_c10_ncrk_consistency():
    assert ncrk_bruteforce(MatrixTuple([[[1, 0], [0, 1]]], 2)) == 2
    assert ncrk_via_grank(MatrixTuple([[[1, 0], [0, 1]]], 2)) == 2
    assert ncrk_bruteforce(MatrixTuple([[[1, 0], [0, 0]]], 2)) == 1
    assert ncrk_via_grank(MatrixTuple([[[1, 0], [0, 0]]], 2)) == 1
    rng = random.Random(4242)
    instances = 0
    while instances < 30:
        size = rng.choice((2, 3))
        m = rng.randint(1, 3)
        mats = [
            [[rng.randrange(2) for _ in range(size)] for _ in range(size)]
            for _ in range(m)
        ]
        tup = MatrixTuple(mats, 2)
        brute = ncrk_bruteforce(tup)
        search = ncrk_via_grank(tup, budget=200, seed=instances)
        assert search >= brute
        assert search == brute  # the search converges at this budget
        instances += 1
    print("criterion 10 (ncrk brute force vs search on 30 instances): PASS")


def test_c11_full_lp_cross_validation():
    assert full_capset_lp(1) == F(9, 4)
    full2 = full_capset_lp(2)
    reduced2 = reduced_lp(2).value
    # the collapsed optimum embeds into the full LP, so full <= reduced;
    # a strict gap would disprove the collapsed LP's optimality
    assert not full2 < reduced2
    assert full2 == reduced2 == 6
    print("criterion 11 (full LP matches collapsed LP for n=1,2): PASS")


def test_asymptotic_note():
    from stablerank import THETA, asymptotic_report

    assert THETA < 2.756
    rows = asymptotic_report(12)
    assert all(ratio > 0 for _, _, ratio in rows)
    print("asymptotic note (theta < 2.756, ratios emitted): PASS")
