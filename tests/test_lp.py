import itertools
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from conftest import count_simplex, random_support
from make_lp_vertices import capset_lp, lp_to_json

from stablerank import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LPSizeError,
    LPSolution,
    solve,
    verify_certificate,
)
from stablerank import ranks
from stablerank import lp as lp_module
from stablerank.ranks import build_lp
from stablerank.tensors import Support

W_SUPPORT = Support((2, 2, 2), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
CAPSET_SUPPORT = Support(
    (3, 3, 3),
    [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0)],
)


def solve_linear_system(matrix, rhs):
    """Tiny exact Gaussian solver for the vertex oracle; None if singular."""
    n = len(rhs)
    a = [[F(v) for v in row] + [F(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def vertex_enumeration_optimum(c, rows, rhs):
    """Brute-force oracle: best objective over all basic feasible points.

    Returns (feasible, optimum or None).  With x >= 0 the feasible region is
    pointed, so a feasible bounded LP attains its optimum at such a vertex.
    """
    n = len(c)
    hyperplanes = [(row, b) for row, b in zip(rows, rhs)]
    hyperplanes += [([F(1) if j == i else F(0) for j in range(n)], F(0)) for i in range(n)]
    feasible = False
    best = None
    for combo in itertools.combinations(range(len(hyperplanes)), n):
        mat = [hyperplanes[k][0] for k in combo]
        b = [hyperplanes[k][1] for k in combo]
        x = solve_linear_system(mat, b)
        if x is None or any(v < 0 for v in x):
            continue
        if any(
            sum(a * v for a, v in zip(row, x)) < bb for row, bb in zip(rows, rhs)
        ):
            continue
        feasible = True
        val = sum(a * v for a, v in zip(c, x))
        if best is None or val < best:
            best = val
    return feasible, best


def dense_lp(c, rows, rhs):
    return LinearProgram(c, [[(j, a) for j, a in enumerate(row) if a] for row in rows], rhs)


class TestExamples:
    def test_one_variable(self):
        lp = dense_lp([F(1)], [[F(1)]], [F(1)])
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.value == 1 and sol.x == (1,) and sol.y == (1,)
        assert verify_certificate(lp, sol)

    def test_w_support_lp(self):
        sol = solve(build_lp(W_SUPPORT, (1, 1, 1)))
        assert sol.status == OPTIMAL and sol.value == F(3, 2)

    def test_infeasible(self):
        lp = dense_lp([F(0)], [[F(-1)]], [F(1)])
        assert solve(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = dense_lp([F(-1)], [], [])
        assert solve(lp).status == UNBOUNDED

    def test_empty_constraints_nonnegative_cost(self):
        lp = dense_lp([F(2), F(0)], [], [])
        sol = solve(lp)
        assert sol.status == OPTIMAL and sol.value == 0 and sol.x == (0, 0)

    @pytest.mark.parametrize(
        "lp",
        [
            LinearProgram([], [], []),
            LinearProgram([F(1), F(0)], [], []),
            LinearProgram([], [[], []], [F(0), F(-1)]),
        ],
        ids=["0x0", "0x2", "2x0"],
    )
    def test_lp_without_rows_or_columns(self, lp):
        sol = solve(lp)
        assert sol.status == OPTIMAL and sol.value == 0
        assert verify_certificate(lp, sol)

    def test_equality_like_pair(self):
        # x1 + x2 >= 2 and -(x1 + x2) >= -2 pin the sum; minimize x1
        lp = dense_lp(
            [F(1), F(0)],
            [[F(1), F(1)], [F(-1), F(-1)]],
            [F(2), F(-2)],
        )
        sol = solve(lp)
        assert sol.status == OPTIMAL and sol.value == 0
        assert verify_certificate(lp, sol)


class TestCertificates:
    def test_solver_output_verifies(self):
        lp = build_lp(CAPSET_SUPPORT, (1, 1, 1))
        sol = solve(lp)
        assert sol.value == F(9, 4)
        assert verify_certificate(lp, sol)

    def test_pinned_capset_pair(self):
        # Known optimal pair for the seven-element support with unit weights.
        lp = build_lp(CAPSET_SUPPORT, (1, 1, 1))
        x = (F(1, 2), F(1, 4), F(0)) * 3
        y_by_element = {
            (0, 0, 0): F(0),
            (2, 0, 0): F(1, 4),
            (0, 2, 0): F(1, 4),
            (0, 0, 2): F(1, 4),
            (0, 1, 1): F(1, 2),
            (1, 0, 1): F(1, 2),
            (1, 1, 0): F(1, 2),
        }
        y = tuple(y_by_element[s] for s in CAPSET_SUPPORT.sorted_elements)
        sol = LPSolution(OPTIMAL, F(9, 4), x, y)
        assert verify_certificate(lp, sol)

    def test_perturbed_value_fails(self):
        lp = build_lp(W_SUPPORT, (1, 1, 1))
        sol = solve(lp)
        bad = LPSolution(OPTIMAL, sol.value + 1, sol.x, sol.y)
        assert not verify_certificate(lp, bad)

    def test_perturbed_primal_fails(self):
        lp = build_lp(W_SUPPORT, (1, 1, 1))
        sol = solve(lp)
        bad_x = (sol.x[0] + F(1, 3),) + sol.x[1:]
        assert not verify_certificate(lp, LPSolution(OPTIMAL, sol.value, bad_x, sol.y))

    def test_primal_row_short_by_one_over_its_denominator_fails(self):
        # min x1 + x2 with x1 >= 1 and x2 >= 1: x = (1/2, 3/2) and y = (1, 1)
        # keep c.x == b.y == value == 2 and A^T y <= c, but x1 misses its row
        # by exactly 1 over the common denominator 2
        lp = dense_lp([1, 1], [[1, 0], [0, 1]], [1, 1])
        assert verify_certificate(lp, LPSolution(OPTIMAL, F(2), (F(1), F(1)), (F(1), F(1))))
        assert not verify_certificate(lp, LPSolution(OPTIMAL, F(2), (F(1, 2), F(3, 2)), (F(1), F(1))))

    def test_dual_column_over_its_cost_by_one_over_its_denominator_fails(self):
        # max y1 + y2 with y1 + y2 <= 1 (the dual of min x : x >= 1, x >= 1):
        # y = (1/2, 1/2) sits on the bound and passes; y = (1, 1/2) is over it
        # by exactly 1 over the common denominator 2, with b.y = 3/2 = c.x at
        # x = 3/2, so only the dual row check can refuse it
        lp = dense_lp([1], [[1], [1]], [1, 1])
        assert verify_certificate(lp, LPSolution(OPTIMAL, F(1), (F(1),), (F(1, 2), F(1, 2))))
        assert not verify_certificate(lp, LPSolution(OPTIMAL, F(3, 2), (F(3, 2),), (F(1), F(1, 2))))

    def test_wrong_length_vectors_fail(self):
        # a zero appended to x or to y changes no product or sum, so only the
        # length check refuses it
        lp = build_lp(W_SUPPORT, (1, 1, 1))
        sol = solve(lp)
        assert verify_certificate(lp, sol)
        assert not verify_certificate(lp, LPSolution(OPTIMAL, sol.value, (*sol.x, F(0)), sol.y))
        assert not verify_certificate(lp, LPSolution(OPTIMAL, sol.value, sol.x, (*sol.y, F(0))))

    def test_non_optimal_status_fails(self):
        lp = dense_lp([F(1)], [[F(1)]], [F(1)])
        assert not verify_certificate(lp, LPSolution(INFEASIBLE, None, (), ()))

    def test_scaled_dual_keeps_weak_duality(self):
        lp = build_lp(CAPSET_SUPPORT, (1, 1, 1))
        sol = solve(lp)
        half = [v / 2 for v in sol.y]
        assert sum(F(b, lp.den) * v for b, v in zip(lp.rhs, half)) <= sol.value


class TestRandomOracle:
    def test_matches_vertex_enumeration(self):
        rng = random.Random(2024)
        optimal_seen = infeasible_seen = 0
        for _ in range(120):
            n = rng.randint(1, 4)
            m = rng.randint(1, 5)
            c = [F(rng.randint(-4, 6)) for _ in range(n)]
            rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            rhs = [F(rng.randint(-3, 3)) for _ in range(m)]
            lp = dense_lp(c, rows, rhs)
            sol = solve(lp)
            feasible, best = vertex_enumeration_optimum(c, rows, rhs)
            if sol.status == OPTIMAL:
                optimal_seen += 1
                assert feasible and best == sol.value
                assert verify_certificate(lp, sol)
            elif sol.status == INFEASIBLE:
                infeasible_seen += 1
                assert not feasible
            else:
                assert feasible  # unbounded implies feasible
        assert optimal_seen >= 30 and infeasible_seen >= 5

    def test_deterministic(self):
        rng = random.Random(9)
        for _ in range(10):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            lp = dense_lp(
                [F(rng.randint(-3, 3)) for _ in range(n)],
                [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)],
                [F(rng.randint(-2, 2)) for _ in range(m)],
            )
            first, second = solve(lp), solve(lp)
            assert first == second


class TestDualizedPath:
    def test_wide_lp_matches_direct_solve(self):
        # Many more rows than variables triggers pivoting on the dual.
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randint(1, 3)
            m = rng.randint(3 * n + 9, 3 * n + 20)
            c = [F(rng.randint(0, 5)) for _ in range(n)]
            rows = [[F(rng.randint(0, 2)) for _ in range(n)] for _ in range(m)]
            rhs = [F(rng.randint(-1, 1)) for _ in range(m)]
            lp = dense_lp(c, rows, rhs)
            auto = solve(lp)
            status, _, _, value = lp_module._run_simplex(lp)
            assert auto.status == status
            if auto.status == OPTIMAL:
                assert auto.value == value
                assert verify_certificate(lp, auto)


def _spy_dual_program(monkeypatch):
    """Record each LP that ``solve`` dualizes; returns that list."""
    calls = []
    real = lp_module.dual_program
    monkeypatch.setattr(lp_module, "dual_program", lambda lp: calls.append(lp) or real(lp))
    return calls


_TALL_ROWS = [[1, 1]] * 5 + [[2, 2]] * 3 + [[0, 0]] * 3 + [[1, -1]] * 3
_TALL_RHS = [1] * 5 + [2] * 3 + [0, -1, 0] + [-2] * 3
# Beale, "Cycling in the dual simplex algorithm" (1955), as rows A x >= b
_BEALE_ROWS = [
    [F(-1, 4), 8, 1, -9],
    [F(-1, 2), 12, F(1, 2), -3],
    [0, 0, -1, 0],
]


class TestDegenerateRows:
    """Duplicated, scaled and all-zero rows, with mixed-sign right-hand sides."""

    @pytest.mark.parametrize(
        "c,rows,rhs,status,value",
        [
            ([1, 1], [[1, 1], [1, -1], [1, 1]], [1, -2, 1], OPTIMAL, 1),
            ([2, 3], [[1, 2], [-1, 0], [3, 6]], [2, -5, 6], OPTIMAL, 3),
            ([2, 3], [[1, 2], [F(1, 3), F(2, 3)]], [2, F(2, 3)], OPTIMAL, 3),
            # a negated copy pins x0 + x1 to 3/2; the zero row is 0 >= 0
            ([1, 2], [[1, 1], [0, 0], [-1, -1]], [F(3, 2), 0, F(-3, 2)], OPTIMAL, F(3, 2)),
            ([1, 0], [[0, 0], [1, 0], [0, 0]], [0, F(1, 2), -1], OPTIMAL, F(1, 2)),
            ([1, 1], [[1, 1], [0, 0]], [1, 1], INFEASIBLE, None),
            ([1, 0], [[1, 0], [-1, 0], [1, 0]], [2, -1, 2], INFEASIBLE, None),
            ([-1, 0], [[1, -1], [1, -1], [0, 0]], [-1, -1, 0], UNBOUNDED, None),
            ([1, 2], _TALL_ROWS, _TALL_RHS, OPTIMAL, 1),
            ([1, 2], _TALL_ROWS + [[0, 0]], _TALL_RHS + [1], INFEASIBLE, None),
            # Beale's example: most-negative pricing cycles on it, Bland's rule does not
            ([F(-3, 4), 20, F(-1, 2), 6], _BEALE_ROWS, [0, 0, -1], OPTIMAL, F(-5, 4)),
        ],
    )
    def test_status_value_and_certificate(self, c, rows, rhs, status, value):
        lp = dense_lp(c, rows, rhs)
        sol = solve(lp)
        assert sol.status == status
        direct_status, _, _, direct_value = lp_module._run_simplex(lp)
        assert direct_status == status and direct_value == value
        feasible, best = vertex_enumeration_optimum(c, rows, rhs)
        assert feasible == (status != INFEASIBLE)
        if status == OPTIMAL:
            assert sol.value == value == best
            assert len(sol.y) == lp.num_rows
            assert verify_certificate(lp, sol)

    def test_tall_case_routes(self, monkeypatch):
        calls = _spy_dual_program(monkeypatch)
        solve(dense_lp([1, 2], _TALL_ROWS, _TALL_RHS))
        assert len(calls) == 1

    # (rows, cols) around the threshold rows > 2 * cols + 8; (4, 3) has more
    # rows than columns and is still pivoted as given
    @pytest.mark.parametrize("m,n", [(1, 1), (3, 3), (2, 5), (4, 3), (14, 3), (15, 3)])
    def test_routes_by_shape(self, monkeypatch, m, n):
        calls = _spy_dual_program(monkeypatch)
        rows = [[1 + (i + j) % 3 for j in range(n)] for i in range(m)]
        sol = solve(dense_lp([1] * n, rows, [1] * m))
        assert sol.status == OPTIMAL
        assert len(calls) == (m > 2 * n + 8)


# An optimal LP for each route of ``solve``, keyed by whether it pivots the
# dual: 3 rows on 2 columns are pivoted directly, the 14 tall rows
# through the dual.
_BY_ROUTE = {
    False: ([1, 1], [[1, 1], [1, -1], [1, 1]], [1, -2, 1]),
    True: ([1, 2], _TALL_ROWS, _TALL_RHS),
}


def _vertex_corpus_lps():
    """The 762 LPs of ``lp_vertices.json`` with their cases, then the full
    cap-set LPs for n = 1..20 with no case."""
    cases = json.loads((Path(__file__).parent / "data" / "lp_vertices.json").read_text())
    pairs = [(LinearProgram(c["objective"], c["rows"], c["rhs"]), c) for c in cases]
    return pairs + [(capset_lp(n), None) for n in range(1, 21)]


def test_dual_program_matches_the_constructor():
    """``dual_program`` passes the transposed rational data to the
    constructor; it must build the program the constructor builds from that
    data, and dualizing twice must give the LP back."""
    lps = [lp for lp, _ in _vertex_corpus_lps()]
    for lp in lps:
        cols = [[] for _ in range(lp.num_vars)]
        for i, row in enumerate(lp.rows):
            for j, a in row:
                cols[j].append((i, -F(a, lp.den)))
        dual = lp_module.dual_program(lp)
        expected = LinearProgram(
            [-F(b, lp.den) for b in lp.rhs], cols, [-F(c, lp.den) for c in lp.objective]
        )
        assert dual == expected
        assert all(type(v) is int for v in dual.objective + dual.rhs + (dual.den,))
        assert all(type(j) is int and type(a) is int for row in dual.rows for j, a in row)
        assert lp_module.dual_program(dual) == lp
    assert len(lps) == 782


@pytest.mark.parametrize("c,rows,rhs", [
    _BY_ROUTE[True],
    ([F(-3, 4), 20, F(-1, 2), 6], _BEALE_ROWS, [0, 0, -1]),  # den 4
    ([], [], []),
])
def test_dual_program_goes_through_the_constructor(monkeypatch, c, rows, rhs):
    """The dual program is built by ``LinearProgram.__init__``, with its
    checks, like every other program: the object returned is one the
    constructor initialised."""
    lp = dense_lp(c, rows, rhs)
    built = []
    real = LinearProgram.__init__

    def spy(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(LinearProgram, "__init__", spy)
    dual = lp_module.dual_program(lp)
    assert len(built) == 1 and built[0] is dual
    assert dual.den == lp.den


def test_stored_integers_are_the_callers_rationals():
    """``LinearProgram`` stores integers over one denominator; they must be
    the caller's rationals, over the least such denominator, and survive two
    dualizations."""
    count = 0
    for lp, case in _vertex_corpus_lps():
        if case is not None:  # lp_to_json writes str(Fraction(v, lp.den))
            assert lp_to_json(lp) == {k: case[k] for k in ("objective", "rows", "rhs")}
            count += 1
        nums = [*lp.objective, *lp.rhs, *(a for row in lp.rows for _, a in row)]
        assert lp.den > 0 and math.gcd(lp.den, *nums) == 1
        assert lp_module.dual_program(lp_module.dual_program(lp)) == lp
    assert count == 762


def _respellings(lp, rng):
    """The rational data of ``lp`` as ``(objective, rows, rhs)``, plainly
    (int rows where ``den`` is 1) and spelled six other ways: row pairs
    shuffled, a coefficient split over a repeated column, explicit zero
    coefficients, every value a ``Fraction`` (``Fraction(k, 1)`` for an
    integer), every column a float, and every pair a list, as JSON reads
    it."""
    objective = [F(c, lp.den) if lp.den > 1 else c for c in lp.objective]
    rhs = [F(b, lp.den) if lp.den > 1 else b for b in lp.rhs]
    rows = [[(j, F(a, lp.den)) if lp.den > 1 else (j, a) for j, a in row] for row in lp.rows]
    shuffled, split, zeros = [], [], []
    for row in rows:
        pairs = list(row)
        rng.shuffle(pairs)
        shuffled.append(pairs)
        pairs = []
        for j, a in row:
            part = rng.randint(-3, 3)
            pairs += [(j, a - part), (j, part)]
        split.append(pairs)
        pairs = list(row)
        for _ in range(rng.randint(1, 2) if lp.num_vars else 0):
            pairs.insert(rng.randint(0, len(pairs)), (rng.randrange(lp.num_vars), 0))
        zeros.append(pairs)
    fractions = (
        [F(c) for c in objective],
        [[(j, F(a)) for j, a in row] for row in rows],
        [F(b) for b in rhs],
    )
    floats = [[(float(j), a) for j, a in row] for row in rows]
    lists = [[[j, a] for j, a in row] for row in rows]
    return {
        "plain": (objective, rows, rhs),
        "shuffled": (objective, shuffled, rhs),
        "split": (objective, split, rhs),
        "zeros": (objective, zeros, rhs),
        "fractions": fractions,
        "floats": (objective, floats, rhs),
        "lists": (objective, lists, rhs),
    }


def test_every_spelling_of_a_row_stores_the_same_lp():
    """A canonical row is stored as given, any other spelling is sorted and
    merged; every spelling of an LP must store the same LP, all ints."""
    rng = random.Random(2002_08435)
    for lp, _ in _vertex_corpus_lps():
        for how, data in _respellings(lp, rng).items():
            got = LinearProgram(*data)
            assert got == lp, how
            # == takes Fraction(1) for 1, so the stored types are checked too.
            assert all(type(v) is int for v in got.objective + got.rhs), how
            assert all(type(j) is type(a) is int for row in got.rows for j, a in row), how


def test_integral_fractions_skip_the_lcm_pass(monkeypatch):
    """An integral program spelled with ``Fraction``s over 1, rows included,
    stores the int-spelled program without the lcm pass."""
    def no_lcm_pass(values):
        raise AssertionError("the lcm pass ran")

    # each program's stored integers, read as an integral program
    lps = [LinearProgram(lp.objective, lp.rows, lp.rhs) for lp, _ in _vertex_corpus_lps()]
    monkeypatch.setattr(lp_module, "_over_one_denominator", no_lcm_pass)
    for lp in lps:
        got = LinearProgram(
            [F(c) for c in lp.objective],
            [[(j, F(a)) for j, a in row] for row in lp.rows],
            [F(b) for b in lp.rhs],
        )
        assert got == lp
        assert all(type(v) is int for v in got.objective + got.rhs + (got.den,))
        assert all(type(j) is type(a) is int for row in got.rows for j, a in row)
    assert len(lps) == 782


def _weighted_corpus_30_lp():
    """The covering LP of acceptance support 30 under the weights
    ``1/2,1,3/4,2,1/3``, stored over den 12."""
    data = json.loads((Path(__file__).parent / "data" / "corpus_30_support.json").read_text())
    support = Support(tuple(data["shape"]), [tuple(e) for e in data["elements"]])
    return build_lp(support, [F(1, 2), 1, F(3, 4), 2, F(1, 3)])


def test_weighted_dual_of_corpus_30_is_pinned():
    """``dual_program`` of the den-12 covering LP stores the objective,
    rows, rhs and den of ``corpus_30_dual_alpha.json``, all ints."""
    pin = json.loads((Path(__file__).parent / "data" / "corpus_30_dual_alpha.json").read_text())
    dual = lp_module.dual_program(_weighted_corpus_30_lp())
    assert dual.den == pin["den"] == 12
    assert dual.objective == tuple(pin["objective"])
    assert dual.rhs == tuple(pin["rhs"])
    assert dual.rows == tuple(tuple(map(tuple, row)) for row in pin["rows"])
    assert all(type(v) is int for v in dual.objective + dual.rhs)
    assert all(type(j) is type(a) is int for row in dual.rows for j, a in row)


def test_fraction_rows_in_column_order_are_not_sorted(monkeypatch):
    """A row of ``Fraction``s whose columns strictly increase, as
    ``dual_program`` passes at den > 1, is stored without the sum-and-sort
    pass, and a non-integral ``Fraction`` in it is kept, not wrapped again;
    the same rows with their pairs reversed still take that pass, once per
    row of two pairs or more."""
    sorts = []
    monkeypatch.setattr(
        lp_module, "sorted", lambda pairs: sorts.append(1) or sorted(pairs), raising=False
    )
    lp = _weighted_corpus_30_lp()
    dual = lp_module.dual_program(lp)
    assert sorts == []

    half, third = F(1, 2), F(-7, 3)
    stored, integral = lp_module._canonical_row([(0, half), (2, F(-4)), (5, third)], 6)
    assert stored == ((0, half), (2, -4), (5, third)) and not integral
    assert stored[0][1] is half and stored[2][1] is third and type(stored[1][1]) is int
    assert sorts == []

    cols = [[] for _ in range(lp.num_vars)]
    for i, row in enumerate(lp.rows):
        for j, a in row:
            cols[j].append((i, F(-a, lp.den)))
    rhs = [F(-c, lp.den) for c in lp.objective]
    reordered = LinearProgram([F(-b, lp.den) for b in lp.rhs], [col[::-1] for col in cols], rhs)
    assert reordered == dual
    assert len(sorts) == sum(len(col) >= 2 for col in cols) > 0


def _canonical_int_rows(rows, num_vars):
    """Whether each row is ``(column, coefficient)`` tuples of ints, with
    columns strictly increasing in range and no zero coefficient."""
    for row in rows:
        last = -1
        for pair in row:
            if type(pair) is not tuple or len(pair) != 2:
                return False
            j, a = pair
            if type(j) is not int or type(a) is not int or not last < j < num_vars or not a:
                return False
            last = j
    return True


def test_builders_emit_canonical_int_rows(monkeypatch):
    """``ranks._cover_lp`` builds its LPs from canonical int rows, which the
    constructor stores as given; the programs ``dual_program`` returns
    store canonical int rows too."""
    built = []
    real = ranks.LinearProgram
    monkeypatch.setattr(
        ranks, "LinearProgram",
        lambda c, rows, b: built.append((rows, len(c))) or real(c, rows, b),
    )
    rng = random.Random(60)
    for _ in range(200):
        support = random_support(rng)
        slots = [(i, j) for i, n in enumerate(support.shape) for j in range(n)]
        banned = frozenset(rng.sample(slots, rng.randint(0, len(slots) - 1)))
        weight = tuple(F(rng.randint(1, 5), rng.randint(1, 3)) for _ in support.shape)
        for no in (frozenset(), banned):
            ranks._cover_lp(support.shape, weight, support.sorted_elements, no)
    assert len(built) == 400
    for rows, num_vars in built:
        assert _canonical_int_rows(rows, num_vars)
    for lp, _ in _vertex_corpus_lps():
        dual = lp_module.dual_program(lp)
        assert _canonical_int_rows(dual.rows, dual.num_vars)


class TestSolveCertifies:
    """``solve`` re-checks every optimum against the LP it was given."""

    @pytest.mark.parametrize("dual", [False, True])
    def test_checks_the_given_lp(self, monkeypatch, dual):
        c, rows, rhs = _BY_ROUTE[dual]
        checked = []
        real = lp_module.verify_certificate
        monkeypatch.setattr(
            lp_module, "verify_certificate", lambda lp, sol: checked.append(lp) or real(lp, sol)
        )
        duals = _spy_dual_program(monkeypatch)
        lp = dense_lp(c, rows, rhs)
        solve(lp)
        assert len(checked) == 1 and checked[0] is lp
        assert len(duals) == dual
        solve(dense_lp(c, rows + [[0] * len(c)], rhs + [1]))
        assert len(checked) == 1  # an infeasible LP has no certificate to check

    @pytest.mark.parametrize("dual", [False, True])
    def test_tampered_optimum_raises(self, monkeypatch, dual):
        c, rows, rhs = _BY_ROUTE[dual]
        real = lp_module._run_simplex

        def tampered(lp):
            # y of the program pivoted on: the primal's x on the dual route
            status, x, y, value = real(lp)
            return status, x, [y[0] + F(1, 7), *y[1:]], value

        monkeypatch.setattr(lp_module, "_run_simplex", tampered)
        with pytest.raises(RuntimeError, match="LP optimum failed its certificate check"):
            solve(dense_lp(c, rows, rhs))


class TestNoState:
    """``solve`` keeps nothing between calls."""

    @pytest.mark.parametrize("dual", [False, True])
    def test_equal_lp_is_pivoted_again(self, monkeypatch, dual):
        runs = count_simplex(monkeypatch)
        c, rows, rhs = _BY_ROUTE[dual]
        lp = dense_lp(c, rows, rhs)
        assert solve(lp) == solve(dense_lp(c, rows, rhs))
        assert len(runs) == 2

    def test_solve_writes_no_module_global(self):
        before = dict(vars(lp_module))
        for dual in (False, True):
            solve(dense_lp(*_BY_ROUTE[dual]))
        solve(build_lp(W_SUPPORT, (1, 1, 1)))
        solve(dense_lp([F(0)], [[F(-1)]], [F(1)]))  # infeasible
        after = vars(lp_module)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())


class TestRowCap:
    def test_env_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", "2")
        lp = build_lp(W_SUPPORT, (1, 1, 1))
        with pytest.raises(LPSizeError):
            solve(lp)
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", "100")
        assert solve(lp).status == OPTIMAL

    @pytest.mark.parametrize("raw,cap", [("0", 0), ("3", 3), ("007", 7), ("100", 100)])
    def test_ascii_digits_accepted(self, monkeypatch, raw, cap):
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", raw)
        assert lp_module._row_cap() == cap
        lp = build_lp(W_SUPPORT, (1, 1, 1))  # 3 rows
        if lp.num_rows > cap:
            with pytest.raises(LPSizeError):
                solve(lp)
        else:
            assert solve(lp).status == OPTIMAL

    def test_zero_cap_admits_an_lp_without_rows(self, monkeypatch):
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", "0")
        assert solve(dense_lp([F(1)], [], [])).status == OPTIMAL

    @pytest.mark.parametrize(
        "raw,message",
        [
            ("-1", "must be a nonnegative integer, got '-1'"),
            ("-0", "must be a nonnegative integer, got '-0'"),
            ("1_0", "must be an integer, got '1_0'"),
            (" 3 ", "must be an integer, got ' 3 '"),
            ("+3", "must be an integer, got '+3'"),
            ("", "must be an integer, got ''"),
            ("3.0", "must be an integer, got '3.0'"),
            ("\uff13", "must be an integer, got '\uff13'"),  # fullwidth digit three
            ("-", "must be an integer, got '-'"),
        ],
    )
    def test_malformed_cap_raises(self, monkeypatch, raw, message):
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", raw)
        with pytest.raises(ValueError) as info:
            solve(build_lp(W_SUPPORT, (1, 1, 1)))
        assert str(info.value) == f"STABLERANK_MAX_LP_ROWS {message}"


class TestSerialization:
    def test_solution_json(self):
        sol = solve(dense_lp([F(1)], [[F(1)]], [F(1)]))
        data = sol.to_json()
        assert data == {"status": "optimal", "value": "1", "x": ["1"], "y": ["1"]}


def _fraction_reference_verify(lp, sol):
    """The certificate check on ``Fraction`` arithmetic, kept as the
    reference for the integer check in ``verify_certificate``."""
    if sol.status != OPTIMAL or sol.value is None:
        return False
    if len(sol.x) != lp.num_vars or len(sol.y) != lp.num_rows:
        return False
    x = [F(v) for v in sol.x]
    y = [F(v) for v in sol.y]
    if any(v < 0 for v in x) or any(v < 0 for v in y):
        return False
    rows = [[(j, F(a, lp.den)) for j, a in row] for row in lp.rows]
    rhs = [F(b, lp.den) for b in lp.rhs]
    objective = [F(c, lp.den) for c in lp.objective]
    for row, b in zip(rows, rhs):
        if sum((a * x[j] for j, a in row), F(0)) < b:
            return False
    col_sums = [F(0)] * lp.num_vars
    for i, row in enumerate(rows):
        yi = y[i]
        if yi:
            for j, a in row:
                col_sums[j] += a * yi
    if any(s > c for s, c in zip(col_sums, objective)):
        return False
    primal_value = sum((c * v for c, v in zip(objective, x)), F(0))
    dual_value = sum((b * v for b, v in zip(rhs, y)), F(0))
    return primal_value == dual_value == F(sol.value)


def _tampered(rng, sol):
    """One seeded change to a certificate: an ``x_j`` or ``y_i`` moved by
    ``1/k``, a sign flipped, or the value moved by ``1/10**6``."""
    x, y, value = list(sol.x), list(sol.y), sol.value
    kind = rng.randrange(5)
    vec = x if kind in (0, 2) or not y else y
    if kind < 2 and vec:
        j = rng.randrange(len(vec))
        vec[j] += rng.choice((1, -1)) * F(1, rng.randint(1, 12))
    elif kind < 4 and vec:
        nonzero = [j for j, v in enumerate(vec) if v] or range(len(vec))
        j = rng.choice(list(nonzero))
        vec[j] = -vec[j]
    else:
        value += rng.choice((1, -1)) * F(1, 10**6)
    return LPSolution(OPTIMAL, value, tuple(x), tuple(y))


def test_verify_matches_fraction_reference():
    cases = json.loads((Path(__file__).parent / "data" / "lp_vertices.json").read_text())
    rng = random.Random(1968)
    seen = {True: 0, False: 0}
    optimal = 0
    for case in cases:
        if case["solve"]["status"] != OPTIMAL:
            continue
        optimal += 1
        lp = LinearProgram(case["objective"], case["rows"], case["rhs"])
        sol = solve(lp)
        # The same certificate as strings and ints, and with a str value.
        retyped = LPSolution(
            OPTIMAL,
            str(sol.value),
            tuple(str(v) for v in sol.x),
            tuple(int(v) if v.denominator == 1 else str(v) for v in sol.y),
        )
        for cert in [sol, retyped] + [_tampered(rng, sol) for _ in range(10)]:
            expected = _fraction_reference_verify(lp, cert)
            assert verify_certificate(lp, cert) is expected, case["name"]
            seen[expected] += 1
    assert optimal == 442
    assert seen[True] >= 2 * optimal and seen[False] >= 6 * optimal


@pytest.mark.parametrize(
    "objective,rows,rhs,message",
    [
        pytest.param([1], [[(1, 1)]], [0], "column 1 out of range for 1 variables",
                     id="column-out-of-range"),
        pytest.param([1], [[(-1, 1)]], [0], "column -1 out of range for 1 variables",
                     id="negative-column"),
        pytest.param([1, 1], [[(1.5, 1)]], [1], "column must be an integer, got 1.5",
                     id="non-integral-column"),
        pytest.param([1], [[(0, 1)]], [0, 1], "row count does not match rhs length",
                     id="rhs-too-long"),
        pytest.param([1], [[(0, 1)], []], [0], "row count does not match rhs length",
                     id="rhs-too-short"),
    ],
)
def test_linear_program_rejects_malformed_data(objective, rows, rhs, message):
    with pytest.raises(ValueError) as info:
        LinearProgram(objective, rows, rhs)
    assert str(info.value) == message
