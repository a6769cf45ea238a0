"""Exact rational linear programming with primal-dual certificates.

Problems are minimizations of ``c . x`` subject to ``A x >= b`` and
``x >= 0`` with rational data.  The solver is a two-phase primal simplex on
the standard-form tableau, which enters columns by Bland's anti-cycling
rule (Bland, Math. Oper. Res. 1977): every run terminates, an optimal run
yields an exactly optimal basis, and the vertex it returns is pinned.  The
tableau is ``[A | -I | b]``; ``[A | -I]`` has full row rank, so no row is
ever dropped.  The dual vector is the reduced costs of the surplus columns,
giving a certificate with ``c . x == b . y`` as an identity of rationals.

A :class:`LinearProgram` takes rational data and stores it once as
integers over one positive denominator ``den``, the lcm of its
denominators (1 for integer data).  The constructor is the one way to
build a program; the dual program is built by it too, from the transposed
rational data.  Everything after the constructor runs on those Python ints:
the pivot loop, fraction-free in the manner of Edmonds and Bareiss, and the
certificate check.  Each tableau row is stored as a positive integer
multiple of the rational row, with no denominator beside it; the first rows
are the stored rows, with surplus coefficient ``-den``, so each starts as
``den`` times its rational row, and the phase-I cost row is summed from
the stored sparse rows as they are laid out.  A pivot on ``(r, k)`` first
negates row r if ``a_rk < 0`` and makes it primitive (divides it by the
gcd of its entries) unless ``q = a_rk`` is 1, as a row with a unit entry
already is; every other row with ``f = a_ik != 0`` becomes
``row_i - (f / q) * row_r`` in place when q divides f, which needs no test
when q is 1, and otherwise ``row_i * q - f * row_r`` made primitive.  A
row's multiple is positive, so the signs the entering rule
reads are its entries' signs, and the ratio test compares
``b_i * a_jk`` with ``b_j * a_ik``: every comparison is the rational one,
so the pivots, and the returned vertex, are those of a rational tableau.
A basic row's multiple is its entry in its basic column.  A cost row keeps
its multiple in one trailing slot, which every tableau row holds as 0; the
duals and the optimal value are read from the final cost row over that
slot, the value from the slot before it rather than summed again.
Fractions appear only in the solution, where every entry of ``x`` and
``y`` that is 0 or 1 is one of two shared immutable constants.

:func:`solve` is the one entry point.  It pivots an LP with more than
``2 * cols + 8`` rows as its dual, built by :func:`dual_program`, and any
other LP as given.  It certifies what it returns: every optimal pair is
re-checked, before it leaves the solver, by :func:`verify_certificate`,
which also runs on integers but shares no code with the pivot loop.  The
module keeps no state between calls: every call pivots its LP.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress
from math import gcd, lcm
from operator import mul, neg

_Q = int  # the arithmetic of the pivot loop, recorded by benchmark runs

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ROW_CAP_ENV = "STABLERANK_MAX_LP_ROWS"

# Every 0 and every 1 of a solution's x and y; Fractions are immutable.
_ZERO = Fraction(0)
_ONE = Fraction(1)


class LPSizeError(RuntimeError):
    """Raised when an LP exceeds the configured row cap."""


SparseRow = tuple[tuple[int, int], ...]


def _canonical_row(row, num_vars: int) -> tuple[SparseRow, bool]:
    """The nonzero ``(column, coefficient)`` pairs of ``row`` in column
    order, repeated columns summed, and whether every coefficient is an int.

    A row of ``(int, int)`` tuples whose columns strictly increase within
    range and whose coefficients are nonzero is returned as given, as a
    tuple, after one read of each pair.  Any other row is read again, pair
    by pair: a column must be integral (``2.0`` is stored as 2) and in
    range, and a coefficient that is neither an int nor a ``Fraction``
    becomes a ``Fraction``; a ``Fraction`` with denominator 1 is stored as
    its numerator.  If the columns then strictly increase and no
    coefficient is zero, as in the rows :func:`dual_program` passes when
    ``den`` is not 1, the pairs come back in that order; otherwise the
    coefficients are summed per column, and the nonzero sums come back in
    column order.  A malformed pair raises at that pair, so errors come in
    the order of the pairs.
    """
    row = tuple(row)
    last = -1
    for pair in row:
        if type(pair) is not tuple:
            break
        col, coeff = pair
        if type(col) is not int or type(coeff) is not int or not last < col < num_vars or not coeff:
            break
        last = col
    else:
        return row, True
    pairs = []
    integral = ordered = True
    last = -1
    for col, coeff in row:
        if type(col) is not int:
            j = int(col)
            if j != col:
                raise ValueError(f"column must be an integer, got {col!r}")
            col = j
        if not 0 <= col < num_vars:
            raise ValueError(f"column {col} out of range for {num_vars} variables")
        if type(coeff) is not int:
            coeff = coeff if type(coeff) is Fraction else Fraction(coeff)
            if coeff.denominator == 1:
                coeff = coeff.numerator
            else:
                integral = False
        ordered = ordered and last < col and coeff != 0
        last = col
        pairs.append((col, coeff))
    if ordered:
        return tuple(pairs), integral
    acc: dict = {}
    for col, coeff in pairs:
        acc[col] = acc.get(col, 0) + coeff
    return tuple(sorted((j, c) for j, c in acc.items() if c)), integral


def _integers(values: tuple) -> tuple[int, ...] | None:
    """``values`` as ints if each is an int or a ``Fraction`` with
    denominator 1, else None."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values
    if kinds <= {int, Fraction} and all(v.denominator == 1 for v in values):
        return tuple(v.numerator for v in values)
    return None


@dataclass(frozen=True)
class LinearProgram:
    """Minimize ``objective . x`` subject to ``rows @ x >= rhs`` and ``x >= 0``.

    The constructor takes rationals (ints, ``Fraction``s or anything
    ``Fraction`` accepts) and stores integers over one denominator: the
    caller's ``objective[j]`` is ``self.objective[j] / self.den``, and so on
    for ``rhs`` and the coefficients of ``rows``.  ``den`` is the lcm of all
    the denominators, so it is 1 for integer data.  Constraint rows are
    sparse ``(column, coefficient)`` tuples in column order, with no zero
    coefficient.

    A row given as ``(int, int)`` tuples with strictly increasing columns
    and nonzero coefficients is stored as given, after one read of each
    pair; the support LPs of ``ranks`` are built from such rows.  Any other
    spelling (a column such as ``2.0``, a coefficient that is not an int,
    such as the ``Fraction`` coefficients :func:`dual_program` passes when
    ``den`` is not 1) is read in one more pass, pair by pair; only a row
    with a column out of order or repeated, or a zero, is then summed per
    column and its nonzero sums sorted.  The lcm of the denominators and the
    rebuild of the rows over it run only when some value is not an integer;
    a value that is a ``Fraction`` with denominator 1, in the objective, the
    rhs or a row, counts as an integer.
    """

    objective: tuple[int, ...]
    rows: tuple[SparseRow, ...]
    rhs: tuple[int, ...]
    den: int

    def __init__(self, objective, rows, rhs):
        objective, rhs = tuple(objective), tuple(rhs)
        n, m = len(objective), len(rhs)
        rows = [_canonical_row(r, n) for r in rows]
        if len(rows) != m:
            raise ValueError("row count does not match rhs length")
        rows, integral = zip(*rows) if rows else ((), ())
        c, b = _integers(objective), _integers(rhs)
        den = 1
        if c is None or b is None or not all(integral):
            nums, den = _over_one_denominator(
                [*objective, *rhs, *(a for row in rows for _, a in row)]
            )
            coeffs = iter(nums[n + m :])
            rows = tuple(tuple((j, next(coeffs)) for j, _ in row) for row in rows)
            c, b = tuple(nums[:n]), tuple(nums[n : n + m])
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "den", den)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rhs)


@dataclass(frozen=True)
class LPSolution:
    """Outcome of a solve; for status "optimal" the pair (x, y) is a
    primal-dual optimal pair satisfying strong duality exactly."""

    status: str
    value: Fraction | None
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "value": None if self.value is None else str(self.value),
            "x": [str(v) for v in self.x],
            "y": [str(v) for v in self.y],
        }


def _row_cap() -> int | None:
    raw = os.environ.get(_ROW_CAP_ENV)
    if raw is None:
        return None
    # ASCII digits only: int() would also take a sign, underscores and
    # surrounding blanks, and a negative cap would read as a broken limit.
    if raw.isascii() and raw.isdigit():
        return int(raw)
    if raw[:1] == "-" and raw[1:].isascii() and raw[1:].isdigit():
        raise ValueError(f"{_ROW_CAP_ENV} must be a nonnegative integer, got {raw!r}")
    raise ValueError(f"{_ROW_CAP_ENV} must be an integer, got {raw!r}")


def _check_rows(rows: int) -> None:
    """Raise ``LPSizeError`` if ``rows`` exceeds ``STABLERANK_MAX_LP_ROWS``."""
    cap = _row_cap()
    if cap is not None and rows > cap:
        raise LPSizeError(f"LP has {rows} rows, exceeding {_ROW_CAP_ENV}={cap}")


def _primitive(row: list[int]) -> list[int]:
    """``row`` divided by the gcd of its entries, not all of which are 0."""
    g = gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _run_simplex(lp: LinearProgram):
    """Two-phase primal simplex on integer rows.

    Each phase prices by Bland's rule: the entering column is the lowest one
    with a negative reduced cost, and the leaving row is the lowest basis
    label among the ratio test's minima, so no basis recurs.

    Returns ``(status, x, y, value)`` with ``Fraction`` entries.  The
    tableau is ``[A | -I | b]``, each row with ``b_i < 0`` negated so that
    its surplus column is ``+e_i`` and starts the basis.  Other rows start
    on an artificial: a basis label ``n + m + i`` whose column is never
    stored, as it never enters.  ``[A | -I]`` has full row rank, so every
    artificial left at level zero after phase I has a nonzero entry to pivot
    on.

    Each row is stored as a positive integer multiple of the rational row,
    which a pivot makes primitive (divided by the gcd of its entries) unless
    it only subtracts an integer multiple of the pivot row.  The pivot row
    itself is made primitive only when its entry in the pivot column is not
    1: a row with a unit entry is primitive already, and then every other
    row takes the in-place update with no divisibility test.  Every row
    starts at multiple ``lp.den``: a constraint row is read as stored, with
    surplus coefficient ``-den``, and the phase-II row is the stored
    objective.  A basic row's multiple is its entry in its basic column, so
    ``x_k = row[width] / row[k]``.  A cost row keeps its multiple in a
    trailing slot, ``width + 1``, where every tableau row holds 0, so one
    pivot loop clears the column from both kinds of row.

    Both cost rows are built before the first pivot and carried after the
    tableau rows, the phase-II row at ``tab[m]`` and the phase-I row at
    ``tab[m + 1]``: every pivot clears its column from each, while a phase
    prices only its own.  The start basis costs nothing in the objective,
    so the phase-II row starts as the objective itself.  The phase-I row,
    minus the sum of the artificial rows at multiple ``den``, is summed
    from their stored sparse pairs while the tableau is laid out, and is
    dropped once phase I ends.  ``y`` is read as the reduced costs of the
    surplus columns, and ``value`` from slot ``width`` of the phase-II row,
    minus the objective value, each over the row's multiple; every 0 and
    every 1 in ``x`` and ``y`` is the shared ``_ZERO`` or ``_ONE``, so only
    the other entries build a ``Fraction``.
    """
    n = lp.num_vars
    m = lp.num_rows
    den = lp.den
    width = n + m  # structural | surplus; artificials are labels width + i

    tab: list[list[int]] = []  # m tableau rows, then the live cost rows
    basis: list[int] = []
    # The phase-I cost row: minus the sum of the artificial rows, each at
    # multiple den, over multiple den; summed from the stored sparse rows.
    c1 = [0] * (width + 1) + [den]
    for i, (coeffs, bi) in enumerate(zip(lp.rows, lp.rhs)):
        row = [0] * (width + 2)
        basis.append(n + i if bi < 0 else width + i)
        if bi < 0:  # negated, so its surplus column is +e_i
            for j, a in coeffs:
                row[j] = -a
            row[n + i], row[width] = den, -bi
        else:
            for j, a in coeffs:
                row[j] = a
                c1[j] -= a
            row[n + i], row[width] = -den, bi
            c1[n + i], c1[width] = den, c1[width] - bi
        tab.append(row)

    # The phase-II cost row, the objective itself at the start basis.
    tab.append(list(lp.objective) + [0] * (m + 1) + [den])

    def pivot(r: int, k: int) -> None:
        piv = tab[r]
        if piv[k] < 0:
            piv = [-v for v in piv]
        # A row with a unit entry in the pivot column is already primitive.
        tab[r] = piv = piv if piv[k] == 1 else _primitive(piv)
        q = piv[k]
        nz = list(compress(range(len(piv)), piv))
        for i, row in enumerate(tab):
            f = row[k]
            if f and i != r:
                if q == 1 or not f % q:  # q divides f: the row stays an integer multiple
                    f //= q
                    for j in nz:
                        row[j] -= f * piv[j]
                else:
                    tab[i] = _primitive([a * q - f * b for a, b in zip(row, piv)])
        basis[r] = k

    def price(at: int) -> str:
        while True:
            c = tab[at]
            for k in range(width):
                if c[k] < 0:
                    break
            else:
                return OPTIMAL
            # Ratio test: b_i / a_ik, unchanged by each row's multiple.
            r = -1
            for i, row in zip(range(m), tab):
                a = row[k]
                if a > 0:
                    if r >= 0:
                        lhs, rhs = row[width] * best_a, best_b * a
                        if rhs < lhs or (lhs == rhs and basis[r] < basis[i]):
                            continue  # row r keeps the lower ratio, or label
                    r, best_b, best_a = i, row[width], a
            if r < 0:
                return UNBOUNDED
            pivot(r, k)

    if any(k >= width for k in basis):
        # Phase I: minimize the sum of the artificial starting variables.
        tab.append(_primitive(c1))
        if price(m + 1) != OPTIMAL:  # pragma: no cover - phase I is bounded below
            raise AssertionError("phase I cannot be unbounded")
        # Only an artificial's label is >= width, and artificials never enter.
        if any(row[width] > 0 for k, row in zip(basis, tab) if k >= width):
            return INFEASIBLE, [], [], None
        tab.pop()
        # Drive the artificials left at level zero out of the basis.
        for i in reversed(range(m)):
            if basis[i] >= width:
                pivot(i, next(j for j in range(width) if tab[i][j]))

    status = price(m)
    if status != OPTIMAL:
        return status, [], [], None

    x = [_ZERO] * n
    for k, row in zip(basis, tab):
        if k < n:
            b, a = row[width], row[k]
            x[k] = _ONE if b == a else Fraction(b, a)
    # The reduced cost of row k's surplus column is the dual of row k.
    c = tab[m]
    q = c[-1]
    y = [_ZERO if not v else _ONE if v == q else Fraction(v, q) for v in c[n:width]]
    return OPTIMAL, x, y, Fraction(-c[width], q)


def dual_program(lp: LinearProgram) -> LinearProgram:
    """The dual ``max b.y : A^T y <= c, y >= 0`` recast in solver min-form.

    The transposed rational data, each stored integer over ``lp.den``, goes
    through the :class:`LinearProgram` constructor like any other program,
    which stores it over the least denominator: ``lp.den`` again.
    """
    # Integer data (den 1) goes in as ints: each column collects nonzero
    # ints in increasing row order, a canonical row that the constructor
    # stores after one read.  Other data goes in as one Fraction per
    # distinct stored integer, its columns in the same order, which the
    # constructor reads pair by pair but neither sums nor sorts.
    negate = neg if lp.den == 1 else cache(lambda v: Fraction(-v, lp.den))
    cols: list[list[tuple[int, int | Fraction]]] = [[] for _ in range(lp.num_vars)]
    for i, row in enumerate(lp.rows):
        for j, a in row:
            cols[j].append((i, negate(a)))
    return LinearProgram(map(negate, lp.rhs), cols, map(negate, lp.objective))


def solve(lp: LinearProgram) -> LPSolution:
    """Solve an LP exactly, producing a primal-dual optimal pair.

    An LP with more than ``2 * cols + 8`` rows is pivoted as its dual, whose
    pair is mapped back; when the dual is not optimal, the LP is pivoted
    directly, as a non-optimal dual status does not pin the primal one.  For
    an LP with ``c > 0`` the dual route has no phase I: every row of the
    dual starts on its own surplus column at ``y = 0``.  Either side prices
    by Bland's rule, which pins the vertex a caller gets, so ``trank`` and
    ``tslice``, which print or branch on ``x`` and ``y``, and the vertices
    of ``tests/data/lp_vertices.json`` depend on it.
    ``STABLERANK_MAX_LP_ROWS`` counts the rows of ``lp``, whichever side is
    pivoted, and is checked on every call.  Deterministic: identical input
    yields an identical solution.

    An optimal pair is re-checked against ``lp`` by
    :func:`verify_certificate` before it is returned, on either side; a
    pair that fails raises ``RuntimeError``.  Every optimum that leaves
    this function is therefore certified, and callers need not check it.
    """
    _check_rows(lp.num_rows)
    status = None
    if lp.num_rows > 2 * lp.num_vars + 8:
        status, y, x, value = _run_simplex(dual_program(lp))
        if status == OPTIMAL:
            value = -value  # the dual program minimizes -b.y
    if status != OPTIMAL:
        status, x, y, value = _run_simplex(lp)
    if status != OPTIMAL:
        return LPSolution(status, None, (), ())
    sol = LPSolution(OPTIMAL, value, tuple(x), tuple(y))
    if not verify_certificate(lp, sol):
        raise RuntimeError("LP optimum failed its certificate check")
    return sol


def _over_one_denominator(values) -> tuple[list[int], int]:
    """Integer numerators ``q`` and a denominator ``d > 0`` with
    ``values[k] == q[k] / d``, ``d`` the lcm of the denominators.  Each int
    or ``Fraction`` is read as its ``as_integer_ratio()``, one call rather
    than two property reads; other values go through ``Fraction`` first."""
    ratios = [
        v.as_integer_ratio() if type(v) is Fraction or type(v) is int else Fraction(v).as_integer_ratio()
        for v in values
    ]
    d = lcm(*{q for _, q in ratios})
    return [p * (d // q) for p, q in ratios], d


def verify_certificate(lp: LinearProgram, sol: LPSolution) -> bool:
    """Re-check optimality from scratch with exact arithmetic.

    Confirms primal feasibility, dual feasibility, and that the two
    objectives coincide with the reported value.  Independent of the solver:
    only the problem data and the claimed vectors are used, and no code is
    shared with the pivot loop.

    The check runs on Python ints.  The program is ``A``, ``B`` and ``C``
    over ``lp.den``; ``x``, ``y`` and the value are brought, in one pass, to
    numerators ``X``, ``Y`` and ``V`` over one denominator ``d``.  Each
    inequality and equality is then the rational one with both sides
    multiplied by the same positive integer: ``A x >= b`` as ``A X >= B d``,
    ``A^T y <= c`` as ``A^T Y <= C d``, ``c.x == b.y`` as ``C.X == B.Y`` and
    ``c.x == value`` as ``C.X == V den``.
    """
    if sol.status != OPTIMAL or sol.value is None:
        return False
    n = lp.num_vars
    if len(sol.x) != n or len(sol.y) != lp.num_rows:
        return False
    nums, d = _over_one_denominator((*sol.x, *sol.y, sol.value))
    x, y, value = nums[:n], nums[n:-1], nums[-1]
    if min(x, default=0) < 0 or min(y, default=0) < 0:
        return False
    for row, bi in zip(lp.rows, lp.rhs):
        s = 0
        for j, a in row:  # no generator per row: this check runs after every solve
            s += a * x[j]
        if s < bi * d:
            return False
    col_sums = [0] * n
    for row, yi in zip(lp.rows, y):
        if yi:
            for j, a in row:
                col_sums[j] += a * yi
    for s, cj in zip(col_sums, lp.objective):
        if s > cj * d:
            return False
    primal = sum(map(mul, lp.objective, x))  # c.x * den * d
    if primal != sum(map(mul, lp.rhs, y)):  # b.y * den * d
        return False
    return primal == value * lp.den
