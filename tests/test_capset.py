import functools
import json
import random
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from stablerank import (
    THETA,
    asymptotic_report,
    capset_bound,
    conjectured_t,
    eg_bound,
    eg_prime_bound,
    full_capset_lp,
    reduced_lp,
    trinomial,
    verify_conjecture,
)
from stablerank import capset
from stablerank.capset import base_tensor, t_vector_feasible, t_vector_value
from stablerank.cli import main
from stablerank import lp as lp_module
from stablerank.lp import LinearProgram, LPSolution, verify_certificate

LP_VERTICES = Path(__file__).parent / "data" / "lp_vertices.json"

# Published upper bounds for n = 1..20.
BOUNDS_1_TO_20 = [
    2, 6, 15, 39, 105, 274, 722, 1957, 5193, 13770,
    37477, 100296, 266997, 728661, 1961103, 5235597,
    14316784, 38685141, 103504935, 283466139,
]

# Small-n table: coefficient rows, optimal t vectors, LP values, cutoff counts.
SMALL_TABLE = {
    1: ([1, 1, 1], [F(1, 2), F(1, 4), 0], F(9, 4), 3, 3),
    2: ([1, 2, 3, 2, 1], [F(3, 5), F(2, 5), F(1, 5), 0, 0], F(6), 7, 9),
    3: ([1, 3, 6, 7, 6, 3, 1], [1, F(2, 3), F(1, 3), 0, 0, 0, 0], F(15), 18, 30),
    4: (
        [1, 4, 10, 16, 19, 16, 10, 4, 1],
        [1, F(3, 4), F(1, 2), F(1, 4), 0, 0, 0, 0, 0],
        F(39),
        45,
        45,
    ),
    5: (
        [1, 5, 15, 30, 45, 51, 45, 30, 15, 5, 1],
        [1, F(4, 5), F(3, 5), F(2, 5), F(1, 5), 0, 0, 0, 0, 0, 0],
        F(105),
        123,
        153,
    ),
    6: (
        [1, 6, 21, 50, 90, 126, 141, 126, 90, 50, 21, 6, 1],
        [1, 1, 1, F(2, 3), F(1, 3), 0, 0, 0, 0, 0, 0, 0, 0],
        F(274),
        324,
        504,
    ),
}


class TestTrinomial:
    @pytest.mark.parametrize("n", list(SMALL_TABLE))
    def test_table_rows(self, n):
        assert trinomial(n) == SMALL_TABLE[n][0]

    def test_symmetry_and_total(self):
        for n in range(1, 25):
            row = trinomial(n)
            assert len(row) == 2 * n + 1
            assert row == row[::-1]
            assert sum(row) == 3**n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            trinomial(0)

    def test_recurrence_matches_convolution(self):
        # the oracle multiplies by 1 + x + x^2 once per step
        row = [1]
        for n in range(1, 401):
            row = [sum(row[max(k - 2, 0) : k + 1]) for k in range(len(row) + 2)]
            assert trinomial(n) == row, n

    def test_symmetry_and_total_at_n_1000(self):
        row = trinomial(1000)
        assert len(row) == 2001 and row == row[::-1] and sum(row) == 3**1000


class TestReducedLp:
    @pytest.mark.parametrize("n", list(SMALL_TABLE))
    def test_published_values(self, n):
        assert reduced_lp(n).value == SMALL_TABLE[n][2]

    @pytest.mark.parametrize("n", list(SMALL_TABLE))
    def test_published_t_vectors_are_optimal(self, n):
        # the printed vectors are accepted as one optimal solution
        t = SMALL_TABLE[n][1]
        assert t_vector_feasible(t, n)
        assert t_vector_value(t, n) == reduced_lp(n).value

    def test_solution_vector_is_feasible(self):
        for n in (1, 4, 9):
            res = reduced_lp(n)
            assert t_vector_feasible(res.t, n)
        # a t without 2n+1 entries is infeasible, and has no value
        for t in ([1, 1], [1] * 7):
            assert not t_vector_feasible(t, 2)
            with pytest.raises(ValueError, match=r"2n\+1 = 5 entries, got"):
                t_vector_value(t, 2)


def _all_rows(n):
    """Every row of the full collapsed LP, by brute force: the triples
    ``i <= j <= k`` with ``i + j + k <= 2n``, in lexicographic order."""
    top = 2 * n
    return [
        (i, j, k)
        for i in range(top + 1)
        for j in range(i, top + 1)
        for k in range(j, top + 1)
        if i + j + k <= top
    ]


def _sampled_t(n, rows, rng):
    """Seeded t vectors of length 2n+1: sixths in [0, 1] with zeros, in
    random and in nonincreasing order; each is also scaled so that its
    smallest row sum is exactly 1, and that scaled vector lowered by 1/1000
    in one entry (which may turn an entry negative)."""
    size = 2 * n + 1
    for _ in range(8):
        drawn = [F(rng.randint(0, 6), 6) for _ in range(size)]
        for t in (drawn, sorted(drawn, reverse=True)):
            yield t
            low = min(t[i] + t[j] + t[k] for i, j, k in rows)
            if low:
                tight = [v / low for v in t]
                yield tight
                k = rng.randrange(size)
                yield [v - F(1, 1000) if idx == k else v for idx, v in enumerate(tight)]


def _binding_triples(n):
    """The binding rows of the collapsed LP: every triple ``i <= j <= k``
    with ``i + j + k == 2n``, in lexicographic order."""
    top = 2 * n
    return [(i, j, top - i - j) for i in range(top // 3 + 1) for j in range(i, (top - i) // 2 + 1)]


def _covering_lp(n, triples):
    """The covering LP ``min 3 * sum_i f_i t_i`` subject to
    ``t_i + t_j + t_k >= 1`` for each triple, built here row by row."""
    return LinearProgram(
        [3 * v for v in trinomial(n)],
        [[(idx, 1) for idx in triple] for triple in triples],
        [1] * len(triples),
    )


def _binding_row_optimum(n):
    """``(t, value)`` of the covering LP on the binding rows alone, solved
    by the package's exact simplex: the oracle of the closed form."""
    sol = lp_module.solve(_covering_lp(n, _binding_triples(n)))
    assert sol.status == lp_module.OPTIMAL
    return sol.x, sol.value


def _no_simplex(monkeypatch):
    """Make the exact simplex raise, so that any pivot fails the test."""

    def refuse(lp):
        raise AssertionError(f"simplex reached on {lp.num_rows} rows")

    monkeypatch.setattr(lp_module, "_run_simplex", refuse)


def _route_spy(monkeypatch):
    """Record, in order, "closed form" or "declined" per call of
    :func:`capset._closed_form_dual`; returns that list."""
    taken = []
    closed_form = capset._closed_form_dual

    def closed(f, q, d):
        y = closed_form(f, q, d)
        taken.append("declined" if y is None else "closed form")
        return y

    monkeypatch.setattr(capset, "_closed_form_dual", closed)
    return taken


FAILED = "collapsed LP certificate failed"


def _assert_refused(capsys, n):
    """``reduced_lp(n)`` raises ``RuntimeError``, and ``capset --n n``
    exits 3 with nothing on stdout."""
    with pytest.raises(RuntimeError, match=FAILED):
        reduced_lp(n)
    assert main(["capset", "--n", str(n)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {FAILED}\n"


def _lower_guess(monkeypatch):
    """Halve the last positive entry of the t that ``reduced_lp`` guesses,
    which leaves a binding row uncovered."""
    real = capset.conjectured_t

    def lowered(n):
        t = list(real(n))
        k = max(i for i, v in enumerate(t) if v > 0)
        t[k] /= 2
        return tuple(t)

    monkeypatch.setattr(capset, "conjectured_t", lowered)


def _raise_guess(monkeypatch):
    """Raise the last entry, 0, of the guessed t by 1/7: every row stays
    covered, but t costs 3/7 more than the optimum."""
    real = capset.conjectured_t
    monkeypatch.setattr(capset, "conjectured_t", lambda n: (*real(n)[:-1], F(1, 7)))


def _lower_one_t(monkeypatch):
    """Halve the last positive entry of the t that ``reduced_lp`` certifies,
    so that it breaks one of its own binding rows."""
    _lower_guess(monkeypatch)


def _raise_one_y(monkeypatch):
    """Raise the first entry of the rule's y by one unit: column 0 then
    carries more than ``3 f_0``, and sum(y) exceeds c.t."""
    real = capset._rule_dual

    def raised(f, p):
        triples, y, den = real(f, p)
        return triples, [y[0] + 1, *y[1:]], den

    monkeypatch.setattr(capset, "_rule_dual", raised)


class TestRowGeneration:
    def test_triples_in_lexicographic_order(self):
        for n in range(1, 16):
            top = 2 * n
            assert _binding_triples(n) == [t for t in _all_rows(n) if sum(t) == top]

    def test_row_counts(self):
        assert len(_all_rows(20)) == 2282
        assert len(_binding_triples(60)) == 1261

    def test_row_count_in_closed_form(self):
        # The count is len(_binding_triples(n)); summing the length of each
        # of the list's j ranges keeps the check linear in n.
        for n in range(1, 601):
            top = 2 * n
            count = sum((top - i) // 2 - i + 1 for i in range(top // 3 + 1))
            assert capset._binding_triple_count(n) == count, n
        for n in range(1, 61):
            assert capset._binding_triple_count(n) == len(_binding_triples(n)), n

    def test_coverage_check_matches_a_scan_of_every_row(self):
        rng = random.Random(20200219)
        seen = Counter()
        for n in range(1, 11):
            rows = _all_rows(n)
            for t in _sampled_t(n, rows, rng):
                low = min(t[i] + t[j] + t[k] for i, j, k in rows)
                covered = capset._covers(*lp_module._over_one_denominator(t), n)
                assert covered is (low >= 1), (n, t)
                assert t_vector_feasible(t, n) is (low >= 1 and min(t) >= 0), (n, t)
                monotone = all(a >= b for a, b in zip(t, t[1:]))
                seen[low >= 1, low == 1, monotone] += 1
        # monotone or not, t occurs covered with every row sum above 1,
        # covered with some row sum exactly 1, and uncovered
        for monotone in (True, False):
            assert seen[True, False, monotone] and seen[True, True, monotone]
            assert seen[False, False, monotone]

    def test_coverage_skip_counts_a_negative_last_minimum(self):
        # a row is skipped only if m_i + 2 m_2n covers it: with m_2n < 0,
        # m_i + m_2n >= 1 does not, and (0, 1, 1) sums to 4/5 here
        for t, covered in (((F(9, 5), F(-1, 2), F(-1, 2)), False), ((F(2), F(-1, 2), F(-1, 2)), True)):
            low = min(t[i] + t[j] + t[k] for i, j, k in _all_rows(1))
            assert (low >= 1) is covered
            assert capset._covers(*lp_module._over_one_denominator(t), 1) is covered, t

    def test_binding_rows_suffice(self):
        # the covering LP on the binding rows alone and the full collapsed
        # LP, every row of it listed by brute force, both built here and
        # solved by the simplex, have the same optimum, which reduced_lp
        # certifies; the binding-row t covers every row of the full LP
        for n in range(1, 9):
            full = lp_module.solve(_covering_lp(n, _all_rows(n)))
            t, value = _binding_row_optimum(n)
            assert full.status == lp_module.OPTIMAL
            assert full.value == value == reduced_lp(n).value, n
            assert min(t[i] + t[j] + t[k] for i, j, k in _all_rows(n)) >= 1, n

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 20])
    def test_half_of_the_binding_rows(self, monkeypatch, capsys, n):
        # t solved on every other binding row leaves a row of the full LP
        # uncovered; handed to reduced_lp as its guess, it is refused
        sol = lp_module.solve(_covering_lp(n, _binding_triples(n)[::2]))
        assert min(sol.x[i] + sol.x[j] + sol.x[k] for i, j, k in _all_rows(n)) < 1
        assert not t_vector_feasible(sol.x, n)
        monkeypatch.setattr(capset, "conjectured_t", lambda m: sol.x)
        taken = _route_spy(monkeypatch)
        _no_simplex(monkeypatch)
        _assert_refused(capsys, n)
        assert taken == []  # an uncovered t never reaches the closed form

    @pytest.mark.parametrize("tamper,declined", [(_lower_guess, False), (_raise_guess, True)])
    def test_wrong_guess_is_refused(self, monkeypatch, capsys, tamper, declined):
        # an uncovered guess never reaches the closed form; a covering one
        # that costs too much is declined by it; either way nothing is
        # reported, and no LP is solved in its place
        tamper(monkeypatch)
        taken = _route_spy(monkeypatch)
        _no_simplex(monkeypatch)
        _assert_refused(capsys, 5)
        assert taken == (["declined"] * 2 if declined else [])  # reduced_lp, then the CLI

    # n = 2 is certified by the closed form's truncated tail, like every
    # other n; a tampered t or y there is refused, not solved around
    @pytest.mark.parametrize("tamper", [_lower_one_t, _raise_one_y])
    def test_tampered_solution_raises(self, monkeypatch, tamper):
        tamper(monkeypatch)
        _no_simplex(monkeypatch)
        with pytest.raises(RuntimeError, match=FAILED):
            reduced_lp(2)

    @pytest.mark.parametrize("tamper", [_lower_one_t, _raise_one_y])
    def test_tampered_solution_exits_3(self, monkeypatch, capsys, tamper):
        tamper(monkeypatch)
        _no_simplex(monkeypatch)
        assert main(["capset", "--n", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {FAILED}\n"

    # n = 1, binding rows (0,0,2) and (0,1,1): t = (1/2, 1/4, 0) and the dual
    # y = (3/4, 3/2) load columns 0, 1, 2 with 3, 3, 3/4 against costs 3, 3, 3.
    @pytest.mark.parametrize(
        "active,t,y,value,ok",
        [
            (None, (F(1, 2), F(1, 4), 0), (F(3, 4), F(3, 2)), F(9, 4), True),
            # every triple active; one y < 0 while the loads and sums hold
            ("all", (F(1, 2), F(1, 4), 0), (F(-1, 8), 0, F(7, 8), F(3, 2)), F(9, 4), False),
            # t < 0 while every triple stays covered and c.t stays 9/4
            (None, (F(5, 8), F(1, 4), F(-1, 8)), (F(3, 4), F(3, 2)), F(9, 4), False),
            # column 0 loaded with 3 + 1/8 while sum(y) stays 9/4
            (None, (F(1, 2), F(1, 4), 0), (F(7, 8), F(11, 8)), F(9, 4), False),
            # c.t = 9/4 + 3/8 while sum(y) == value == 9/4
            (None, (F(1, 2), F(3, 8), 0), (F(3, 4), F(3, 2)), F(9, 4), False),
            # value off by 1/10^6 while c.t == sum(y)
            (None, (F(1, 2), F(1, 4), 0), (F(3, 4), F(3, 2)), F(9, 4) + F(1, 10**6), False),
        ],
    )
    def test_certificate_conditions(self, active, t, y, value, ok):
        active = _all_rows(1) if active == "all" else _binding_triples(1)
        lp = _covering_lp(1, active)
        sol = LPSolution("optimal", value, tuple(F(v) for v in t), tuple(F(v) for v in y))
        assert verify_certificate(lp, sol) is ok

    def test_t_is_the_conjectured_vector(self):
        # every n the CLI prints, so each conjecture_match of --table is backed
        for n in range(1, capset.TABLE_MAX_N + 1):
            assert reduced_lp(n).t == conjectured_t(n)

    def test_values_match_the_pinned_full_lp(self):
        cases = json.loads(LP_VERTICES.read_text())
        pinned = {c["name"]: c["solve"]["value"] for c in cases if c["name"].startswith("capset-")}
        assert len(pinned) == 12
        for n in range(1, 13):
            assert reduced_lp(n).value == F(pinned[f"capset-{n}"])

    def test_shorter_side_keeps_t_and_value(self, monkeypatch):
        # the covering LP on the binding rows, built here row by row and
        # solved on its own, has the t and value that reduced_lp returns;
        # reduced_lp itself pivots no LP, primal or dual
        expected = {n: _binding_row_optimum(n) for n in range(1, 21)}
        calls = []
        real = lp_module.dual_program
        monkeypatch.setattr(lp_module, "dual_program", lambda lp: calls.append(lp) or real(lp))
        _no_simplex(monkeypatch)
        for n in range(1, 21):
            res = reduced_lp(n)
            assert (res.t, res.value) == expected[n], n
        assert calls == []

    def test_every_table_n_is_certified_without_the_fallback(self, monkeypatch):
        # with the simplex made to raise, every n the CLI prints is still
        # certified, n = 1 and 2 included
        _no_simplex(monkeypatch)
        for n in range(1, capset.TABLE_MAX_N + 1):
            assert reduced_lp(n).t == conjectured_t(n)

    def test_route_matches_the_binding_row_solve(self):
        # the oracle: the covering LP on the binding rows, built here and
        # solved by the simplex, for every n the CLI prints
        for n in range(1, capset.TABLE_MAX_N + 1):
            res = reduced_lp(n)
            assert (res.t, res.value) == _binding_row_optimum(n), n

    def test_row_cap_at_n_2_prints_the_uncapped_row(self, monkeypatch, capsys):
        # a cap of 4 admits the 4 binding rows of n = 2
        assert main(["capset", "--n", "2"]) == 0
        uncapped = capsys.readouterr()
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", "4")
        assert main(["capset", "--n", "2"]) == 0
        assert capsys.readouterr() == uncapped
        assert uncapped.out.startswith("n: 2\nvalue: 6\n")

    def test_row_cap_at_n_2(self, monkeypatch):
        # 4 binding rows: a cap of 4 certifies n = 2, with no LP solved, and
        # a cap of 3 refuses it before the coverage pass
        _no_simplex(monkeypatch)
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", "4")
        res = reduced_lp(2)
        assert list(res.t) == SMALL_TABLE[2][1] and res.value == SMALL_TABLE[2][2]
        passes = []
        real = capset._covers
        monkeypatch.setattr(capset, "_covers", lambda q, d, n: passes.append(n) or real(q, d, n))
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", "3")
        with pytest.raises(lp_module.LPSizeError, match="LP has 4 rows"):
            reduced_lp(2)
        assert passes == []

    def test_row_cap_counts_the_solved_rows(self, monkeypatch, capsys):
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", str(len(_binding_triples(20))))
        assert reduced_lp(20).bound == BOUNDS_1_TO_20[19]
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", str(len(_binding_triples(20)) - 1))
        assert main(["capset", "--n", "20"]) == 4
        # a repeat call checks the cap again: a bound proved uncapped is not
        # returned under a cap below its 154 binding rows
        monkeypatch.delenv("STABLERANK_MAX_LP_ROWS")
        assert reduced_lp(20).bound == BOUNDS_1_TO_20[19]
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", "153")
        with pytest.raises(lp_module.LPSizeError, match="LP has 154 rows"):
            reduced_lp(20)


def _shift_tail_numerator(monkeypatch, by):
    """Add ``by`` to the last tail numerator of the rule's y."""
    real = capset._rule_dual

    def shifted(f, p):
        triples, y, den = real(f, p)
        assert y[-1] + by >= 0
        return triples, [*y[:-1], y[-1] + by], den

    monkeypatch.setattr(capset, "_rule_dual", shifted)


def _raise_tail_numerator(monkeypatch):
    """Raised by 1, the last tail numerator overloads a column."""
    _shift_tail_numerator(monkeypatch, 1)


def _lower_tail_numerator(monkeypatch):
    """Lowered by 1, the last tail numerator leaves every load within its
    cap and y >= 0, but sum(y) < c.t."""
    _shift_tail_numerator(monkeypatch, -1)


def _cancelling_pair(monkeypatch):
    """Append the last tail triple twice more, with y = 1 and y = -1: every
    load and sum(y) stay as they were, but one y is negative."""
    real = capset._rule_dual

    def paired(f, p):
        triples, y, den = real(f, p)
        return [*triples, triples[-1], triples[-1]], [*y, 1, -1], den

    monkeypatch.setattr(capset, "_rule_dual", paired)


def _move_run_triple(monkeypatch, to):
    """Move the rule's y on the first run triple ``(0, p, 2n-p)`` onto the
    triple ``to(n, p)``."""
    real = capset._rule_dual

    def moved(f, p):
        n = len(f) // 2
        triples, y, den = real(f, p)
        assert triples[0] == (0, p, 2 * n - p)
        return [to(n, p), *triples[1:]], y, den

    monkeypatch.setattr(capset, "_rule_dual", moved)


def _untight_run_triple(monkeypatch):
    """Move the first run triple to the binding ``(0, p-1, 2n-p+1)``, on
    which t sums to ``1 + t_{p-1} > 1``."""
    _move_run_triple(monkeypatch, lambda n, p: (0, p - 1, 2 * n - p + 1))


def _unbinding_run_triple(monkeypatch):
    """Move the first run triple to ``(0, p, 2n-p-1)``, a row of the full LP
    that sums to 2n - 1, not 2n: its loads and sum(y) still pass their
    checks at n = 6, 7 and 20, and only the binding test declines it."""
    _move_run_triple(monkeypatch, lambda n, p: (0, p, 2 * n - p - 1))


def _overload_column_0(monkeypatch):
    """Move one unit of the rule's y from the last tail triple to the run
    triple on column 0: y stays >= 0 and sum(y) stays c.t, but column 0
    carries 3 f_0 plus one unit."""
    real = capset._rule_dual

    def moved(f, p):
        triples, y, den = real(f, p)
        assert triples[0][0] == 0 and 0 not in triples[-1] and y[-1] >= 1
        return triples, [y[0] + 1, *y[1:-1], y[-1] - 1], den

    monkeypatch.setattr(capset, "_rule_dual", moved)


def _unspill_one_unit(monkeypatch):
    """Move one unit of the rule's y from the spilled triple at the shared
    i = s back to its run partner ``(s, p, 2n-p-s)``: y stays >= 0 and
    sum(y) stays c.t, but column p, filled to its cap, carries one unit
    more."""
    real = capset._rule_dual

    def moved(f, p):
        n = len(f) // 2
        triples, y, den = real(f, p)
        s = max(i for i, j, _ in triples if j == p + 1)
        spill = triples.index((s, p + 1, 2 * n - p - 1 - s))
        run = triples.index((s, p, 2 * n - p - s))
        y = list(y)
        y[spill] -= 1
        y[run] += 1
        return triples, y, den

    monkeypatch.setattr(capset, "_rule_dual", moved)


def _append_zero_triple(monkeypatch, triple):
    """Append ``triple`` to the rule's triples with y = 0: no column's load
    and not sum(y) moves, so only the tests on the triple itself see it."""
    real = capset._rule_dual

    def appended(f, p):
        triples, y, den = real(f, p)
        return [*triples, triple], [*y, 0], den

    monkeypatch.setattr(capset, "_rule_dual", appended)


class _CountedDenominator(int):
    """A denominator that counts the comparisons ``sum < d`` made against it."""

    def __new__(cls, value):
        self = super().__new__(cls, value)
        self.comparisons = 0
        return self

    def __gt__(self, other):
        self.comparisons += 1
        return int(self) > other


def _guess(n):
    """``(t, q, d)`` for ``t = conjectured_t(n) = q / d``."""
    t = conjectured_t(n)
    return (t, *lp_module._over_one_denominator(t))


def _assert_declined_and_refused(monkeypatch, capsys, tamper, n):
    """A tampered y fails its exact check, and nothing is reported in its
    place: ``reduced_lp`` raises and the CLI exits 3, with no LP solved."""
    tamper(monkeypatch)
    _, q, d = _guess(n)
    assert capset._closed_form_dual(trinomial(n), q, d) is None
    taken = _route_spy(monkeypatch)
    _no_simplex(monkeypatch)
    _assert_refused(capsys, n)
    assert taken == ["declined", "declined"]  # reduced_lp, then the CLI


class TestClosedFormDual:
    def test_route_of_every_table_n(self, monkeypatch):
        # one route: the closed form, n = 1 and 2 included, and no simplex
        taken = _route_spy(monkeypatch)
        _no_simplex(monkeypatch)
        routes = {}
        for n in range(1, capset.TABLE_MAX_N + 1):
            taken.clear()
            reduced_lp(n)
            routes[n] = list(taken)
        assert routes == {n: ["closed form"] for n in range(1, capset.TABLE_MAX_N + 1)}

    @pytest.mark.parametrize("n", range(3, 301))
    def test_certificate_is_exact(self, n):
        # the checked y, rebuilt here on Fractions: binding triples tight at
        # t, y >= 0, every column load at most 3 f_j, and
        # sum(y) == c.t == the optimum
        t, q, d = _guess(n)
        f = trinomial(n)
        triples, nums, den = capset._closed_form_dual(f, q, d)
        y = [F(v, den) for v in nums]
        assert set(triples) <= set(_binding_triples(n)) and min(y) >= 0
        assert all(t[i] + t[j] + t[k] == 1 for i, j, k in triples)
        load = Counter()
        for triple, v in zip(triples, y):
            for j in triple:
                load[j] += v
        assert all(load[j] <= 3 * f[j] for j in range(2 * n + 1))
        assert sum(y) == 3 * sum(fj * tj for fj, tj in zip(f, t)) == reduced_lp(n).value
        # 3 f_i for each i = 0..m, on the run (i, p, 2n-p-i) or spilled onto
        # (i, p+1, 2n-p-1-i), listed by ascending i; then a tail of 2-4
        p = sum(1 for v in t if v > 0)
        m = 2 * n - 2 * p
        tail = {0: 2, 1: 3, 2: 4}[n % 3]
        head = triples[:-tail]
        assert [i for i, _, _ in head] == sorted(i for i, _, _ in head)
        run = {i: v for (i, j, k), v in zip(head, y) if (j, k) == (p, 2 * n - p - i)}
        spill = {i: v for (i, j, k), v in zip(head, y) if (j, k) == (p + 1, 2 * n - p - 1 - i)}
        assert len(run) + len(spill) == len(head)
        assert [run.get(i, 0) + spill.get(i, 0) for i in range(m + 1)] == [3 * f[i] for i in range(m + 1)]
        # of n = 3..300, only n = 0 (mod 3) from 57 on spills; there s, the
        # largest spilled i, is shared by the run and the spill, and the i
        # below it spill whole
        assert bool(spill) is (n % 3 == 0 and n >= 57)
        if not spill:
            assert sorted(run) == list(range(m + 1))
        else:
            s = max(spill)
            assert sorted(spill) == list(range(s + 1)) and sorted(run) == list(range(s, m + 1))
            # column p is filled to its cap exactly, and column p + 1 is not
            assert load[p] == 3 * f[p] and load[p + 1] < 3 * f[p + 1]

    # the tail truncated from the left, as conjectured_t truncates t: at
    # n = 1 the two triples left of residue 1, at n = 2 the three of residue 2
    @pytest.mark.parametrize(
        "n,triples,y",
        [
            (1, [(0, 0, 2), (0, 1, 1)], [F(3, 4), F(3, 2)]),
            (2, [(0, 1, 3), (0, 2, 2), (1, 1, 2)], [F(0), F(3), F(3)]),
        ],
    )
    def test_truncated_tail_certifies_n_1_and_2(self, n, triples, y):
        _, q, d = _guess(n)
        got, nums, den = capset._closed_form_dual(trinomial(n), q, d)
        assert got == triples and [F(v, den) for v in nums] == y
        assert sum(y) == reduced_lp(n).value == SMALL_TABLE[n][2]

    def test_rule_is_total(self):
        # every count p of positive entries that a covering t can have,
        # 1..2n+1, gives a y or None, never an error; p = 2n + 1 has no
        # column p to fill
        for n in range(1, 40):
            f = trinomial(n)
            for p in range(1, 2 * n + 1):
                capset._rule_dual(f, p)
            assert capset._rule_dual(f, 2 * n + 1) is None

    @pytest.mark.parametrize("n", [*range(1, 61), 100, 200, 300])
    def test_lp_checker_accepts_the_closed_form(self, n):
        # the second exact checker: lp.verify_certificate accepts t, y / den
        # and c.t on the covering LP of the rule's triples, built here
        t, q, d = _guess(n)
        f = trinomial(n)
        triples, nums, den = capset._closed_form_dual(f, q, d)
        sol = LPSolution("optimal", capset._cost(q, d, f), t, tuple(F(v, den) for v in nums))
        assert verify_certificate(_covering_lp(n, triples), sol)

    @pytest.mark.parametrize("n", [5, 6, 7, 20])
    @pytest.mark.parametrize(
        "tamper",
        [
            _raise_tail_numerator,
            _lower_tail_numerator,
            _untight_run_triple,
            _unbinding_run_triple,
            _overload_column_0,
            _cancelling_pair,
        ],
    )
    def test_tampered_dual_declines(self, monkeypatch, capsys, tamper, n):
        _assert_declined_and_refused(monkeypatch, capsys, tamper, n)

    def test_triple_out_of_order_declines(self, monkeypatch, capsys):
        # (1, 12, -1) at n = 6 sums to 2n, and q read from its end makes it
        # tight at t = (1, 1, 1, 2/3, 1/3, 0, ...): q_1 + q_12 + q_{-1} = d.
        # With y = 0 it passes every other test, and k < 0 fails only the
        # order test 0 <= i <= j <= k
        _, q, d = _guess(6)
        assert q[1] + q[12] + q[-1] == d
        tamper = functools.partial(_append_zero_triple, triple=(1, 12, -1))
        _assert_declined_and_refused(monkeypatch, capsys, tamper, 6)

    def test_untight_triple_with_zero_y_declines(self, monkeypatch, capsys):
        # (0, 0, 6) at n = 3 is binding and in order, but t sums to 2 on it,
        # not 1.  With y = 0 it changes no load and not sum(y), so weak
        # duality still holds and only the tightness test declines it: that
        # test pins the rule's shape, and this pins the test
        t, _, _ = _guess(3)
        assert t[0] + t[0] + t[6] == 2
        tamper = functools.partial(_append_zero_triple, triple=(0, 0, 6))
        _assert_declined_and_refused(monkeypatch, capsys, tamper, 3)

    @pytest.mark.parametrize("n", [57, 60])
    def test_unspilled_unit_declines(self, monkeypatch, capsys, n):
        _assert_declined_and_refused(monkeypatch, capsys, _unspill_one_unit, n)

    def test_any_covering_t_is_declined_or_optimal(self):
        # on the seeded t vectors of the coverage test, the closed form
        # never raises, and certifies no t that costs more than the optimum
        rng = random.Random(20200219)
        seen = Counter()
        for n in range(2, 9):
            for t in _sampled_t(n, _all_rows(n), rng):
                q, d = lp_module._over_one_denominator(t)
                if min(q) < 0 or not capset._covers(q, d, n):
                    continue
                certified = capset._closed_form_dual(trinomial(n), q, d) is not None
                assert not certified or t_vector_value(t, n) == reduced_lp(n).value
                seen[certified] += 1
        assert seen[False] > 50

    def test_reach_past_the_table(self, monkeypatch):
        # the closed form certifies n = 100, 200 and 299 with no LP solved,
        # and the spilling n = 57, 60, 63, 150, 201 and 300 too
        _no_simplex(monkeypatch)
        start = time.perf_counter()
        for n in (100, 200, 299):
            assert reduced_lp(n).t == conjectured_t(n), n
        assert time.perf_counter() - start < 0.2
        for n in (57, 60, 63, 150, 201, 300):
            assert reduced_lp(n).t == conjectured_t(n), n

    def test_coverage_pass_is_linear(self, monkeypatch):
        # the pass skips every binding row the prefix minima provably cover,
        # so for the conjectured t it compares at most 2n+1 sums against d,
        # where a pass over all (2n+3)^2 / 12 binding rows compares one each
        for n in (10, 60, 3000, 10_000):
            q, d = lp_module._over_one_denominator(conjectured_t(n))
            d = _CountedDenominator(d)
            assert capset._covers(q, d, n)
            assert d.comparisons <= 2 * n + 1 < capset._binding_triple_count(n), n
        real, counted = capset._covers, []

        def covers(q, d, n):
            counted.append(_CountedDenominator(d))
            return real(q, counted[-1], n)

        monkeypatch.setattr(capset, "_covers", covers)
        assert reduced_lp(3000).t == conjectured_t(3000)
        assert len(counted) == 1 and counted[0].comparisons <= 6001

    def test_one_coverage_pass_per_n(self, monkeypatch, capsys):
        # --table 20 proves each row once: one reduced_lp call and one
        # coverage pass per n, and no verify_conjecture, which would prove
        # the row a second time; n = 1 prints no conjecture match
        def spy(name):
            calls = []
            real = getattr(capset, name)
            monkeypatch.setattr(capset, name, lambda *args: calls.append(args[-1]) or real(*args))
            return calls

        passes, proofs, reports = spy("_covers"), spy("reduced_lp"), spy("verify_conjecture")
        assert main(["capset", "--table", "20"]) == 0
        assert passes == proofs == list(range(1, 21))
        assert reports == []
        capsys.readouterr()


class TestBounds:
    def test_first_twenty(self):
        assert [capset_bound(n) for n in range(1, 21)] == BOUNDS_1_TO_20

    @pytest.mark.parametrize("n", list(SMALL_TABLE))
    def test_cutoff_columns(self, n):
        assert eg_prime_bound(n) == SMALL_TABLE[n][3]
        assert eg_bound(n) == SMALL_TABLE[n][4]

    def test_dominance_ordering(self):
        for n in range(1, 21):
            assert capset_bound(n) <= eg_prime_bound(n) <= eg_bound(n)


class TestConjecture:
    def test_small_patterns(self):
        assert conjectured_t(3) == (1, F(2, 3), F(1, 3), 0, 0, 0, 0)
        assert conjectured_t(4) == (1, F(3, 4), F(1, 2), F(1, 4), 0, 0, 0, 0, 0)
        assert conjectured_t(5) == (
            1, F(4, 5), F(3, 5), F(2, 5), F(1, 5), 0, 0, 0, 0, 0, 0,
        )

    def test_n2_truncated_tail(self):
        assert conjectured_t(2) == (F(3, 5), F(2, 5), F(1, 5), 0, 0)

    def test_n1_truncated_tail(self):
        assert conjectured_t(1) == (F(1, 2), F(1, 4), 0)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            conjectured_t(0)

    def test_feasible_through_40(self):
        for n in range(1, 41):
            assert t_vector_feasible(conjectured_t(n), n)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_lp_for_table_rows(self, n):
        report = verify_conjecture(n)
        assert report.feasible and report.matches
        assert report.lp_value == SMALL_TABLE[n][2]

    def test_larger_n_reported_not_asserted(self):
        report = verify_conjecture(12)
        assert report.feasible
        assert isinstance(report.matches, bool)


class TestFullLp:
    def test_supermultiplicative_floor(self):
        # inject the squared n=1 dual certificate into the 49-element
        # support: it stays feasible, so the n=2 value is at least (9/4)^2
        from stablerank import boxtimes, dual_trank, support_of, trank

        v = base_tensor()
        one = dual_trank(support_of(v))
        square = support_of(boxtimes(v, v))
        injected = {
            tuple(a * 3 + b for a, b in zip(s, s2)): one.dual[s] * one.dual[s2]
            for s in one.dual
            for s2 in one.dual
        }
        for i in range(3):
            for j in range(9):
                load = sum(v_ for s, v_ in injected.items() if s[i] == j)
                assert load <= 1
        assert sum(injected.values()) == F(9, 4) ** 2
        assert trank(square).value >= F(9, 4) ** 2

    def test_base_tensor_support(self):
        s = {
            (0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2),
            (0, 1, 1), (1, 0, 1), (1, 1, 0),
        }
        assert set(base_tensor().entries) == s

    def test_n1_matches_reduced(self):
        assert full_capset_lp(1) == F(9, 4) == reduced_lp(1).value

    def test_n2_matches_reduced(self):
        assert full_capset_lp(2) == reduced_lp(2).value == 6

    def test_n3_compared_to_reduced(self):
        full3 = full_capset_lp(3)
        reduced3 = reduced_lp(3).value
        assert full3 <= reduced3  # the collapsed solution embeds
        assert reduced3 - full3 == 0  # no gap at n = 3 either

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            full_capset_lp(4)


class TestAsymptotics:
    def test_theta_value(self):
        assert THETA < 2.756
        assert THETA == pytest.approx(2.7551, abs=1e-4)

    def test_report_rows(self):
        rows = asymptotic_report(12)
        assert [r[0] for r in rows] == list(range(1, 13))
        assert rows[19 - 8][1] == BOUNDS_1_TO_20[19 - 8]
        assert all(r[2] > 0 for r in rows)
        ratios = [r[2] for r in rows]
        assert max(ratios) < 10 * min(ratios)  # bounded over the tested range

    def test_range_checked(self):
        with pytest.raises(ValueError):
            asymptotic_report(61)
