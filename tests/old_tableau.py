"""The two-phase tableau simplex as it stood before its per-pivot savings,
kept verbatim as an oracle for ``stablerank.lp._run_simplex``.

``test_tableau_oracle.py`` runs both on the same programs and asserts that
``(status, x, y, value)`` is equal: the kernel may do less work per pivot,
but it must take the same Bland path to the same vertex.  Nothing in this
file is imported by the package.
"""

from fractions import Fraction
from itertools import compress
from math import gcd

from stablerank.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram


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
    it only subtracts an integer multiple of the pivot row.  Every row
    starts at multiple ``lp.den``: a constraint row is read as stored, with
    surplus coefficient ``-den``, and the phase-II row is the stored
    objective.  A basic row's multiple is its entry in its basic column, so
    ``x_k = row[width] / row[k]``; an artificial row keeps multiple ``den``
    until the phase-I row is built, before the first pivot.  A cost row
    keeps its multiple in a trailing slot, ``width + 1``, where every
    tableau row holds 0, so one pivot loop clears the column from both
    kinds of row.

    Both cost rows are built before the first pivot and carried after the
    tableau rows, the phase-II row at ``tab[m]`` and the phase-I row at
    ``tab[m + 1]``: every pivot clears its column from each, while a phase
    prices only its own.  The start basis costs nothing in the objective,
    so the phase-II row starts as the objective itself; the phase-I row is
    dropped once phase I ends.  ``y`` is read as the reduced costs of the
    surplus columns, and ``value`` from slot ``width`` of the phase-II row,
    minus the objective value, each over the row's multiple.
    """
    n = lp.num_vars
    m = lp.num_rows
    den = lp.den
    width = n + m  # structural | surplus; artificials are labels width + i

    tab: list[list[int]] = []  # m tableau rows, then the live cost rows
    basis: list[int] = []
    art_rows: list[int] = []
    for i, (coeffs, bi) in enumerate(zip(lp.rows, lp.rhs)):
        s = -1 if bi < 0 else 1
        row = [0] * (width + 2)
        for j, a in coeffs:
            row[j] = s * a
        row[n + i] = -s * den
        row[width] = s * bi
        tab.append(row)
        if s == -1:
            basis.append(n + i)  # flipped surplus column is +e_i
        else:
            basis.append(width + i)
            art_rows.append(i)

    # The phase-II cost row, the objective itself at the start basis.
    tab.append(list(lp.objective) + [0] * (m + 1) + [den])

    def pivot(r: int, k: int) -> None:
        piv = tab[r]
        if piv[k] < 0:
            piv = [-v for v in piv]
        tab[r] = piv = _primitive(piv)
        q = piv[k]
        nz = list(compress(range(len(piv)), piv))
        for i, row in enumerate(tab):
            f = row[k]
            if f and i != r:
                if f % q:
                    tab[i] = _primitive([a * q - f * b for a, b in zip(row, piv)])
                else:  # q divides f, so the row stays an integer multiple
                    f //= q
                    for j in nz:
                        row[j] -= f * piv[j]
        basis[r] = k

    def price(at: int) -> str:
        while True:
            c = tab[at]
            k = -1
            for j in range(width):
                if c[j] < 0:
                    k = j
                    break
            if k < 0:
                return OPTIMAL
            # Ratio test: b_i / a_ik, unchanged by each row's multiple.
            r = -1
            for i, row in zip(range(m), tab):
                a = row[k]
                if a > 0:
                    if r < 0:
                        r, best_b, best_a = i, row[width], a
                        continue
                    lhs = row[width] * best_a
                    rhs = best_b * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                        r, best_b, best_a = i, row[width], a
            if r < 0:
                return UNBOUNDED
            pivot(r, k)

    if art_rows:
        # Phase I: minimize the sum of the artificial starting variables;
        # no pivot has run, so each artificial row is at multiple den.
        c = [0] * (width + 1) + [den]
        for i in art_rows:
            c = [v - a for v, a in zip(c, tab[i])]
        tab.append(_primitive(c))
        status = price(m + 1)
        if status != OPTIMAL:  # pragma: no cover - phase I is bounded below
            raise AssertionError("phase I cannot be unbounded")
        if any(tab[i][width] > 0 for i in art_rows if basis[i] >= width):
            return INFEASIBLE, [], [], None
        tab.pop()
        # Drive the artificials left at level zero out of the basis.
        for i in reversed(art_rows):
            if basis[i] >= width:
                pivot(i, next(j for j in range(width) if tab[i][j]))

    status = price(m)
    if status != OPTIMAL:
        return status, [], [], None

    x = [Fraction(0)] * n
    for k, row in zip(basis, tab):
        if k < n:
            x[k] = Fraction(row[width], row[k])
    # The reduced cost of row k's surplus column is the dual of row k.
    c = tab[m]
    y = [Fraction(c[n + k], c[-1]) for k in range(m)]
    return OPTIMAL, x, y, Fraction(-c[width], c[-1])
