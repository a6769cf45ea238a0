"""Cap-set upper bounds from the symmetric covering LP.

The count of coordinate vectors in ``{0,1,2}^n`` by coordinate sum follows
the trinomial coefficients, and assigning one LP variable to each sum value
collapses the huge covering LP of the n-fold Kronecker power of the cap-set
tensor into 2n+1 variables with one constraint per nonincreasing exponent
triple summing to at most 2n.  Its exact optimum, floored, bounds the size
of any progression-free subset of F_3^n.  Routines here compute the
coefficients, solve the collapsed LP with certificates, compare against the
coarser slice-rank style counts, test the conjectured closed-form optimum,
and cross-validate against the uncollapsed LP for tiny n.

The collapsed LP has about (2n)^3/36 rows, but few of them bind.  Prefix
minima keep a t vector feasible and cost no more, so some optimal t is
nonincreasing, and for such a t the *binding* rows, whose triples sum to
exactly 2n, imply all the others.  :func:`reduced_lp` therefore solves the
LP once, on the binding rows only.  :func:`stablerank.lp.solve` certifies
the pair on those rows, and :func:`_covers` proves, exactly for any t and in
O(n^2), that t covers every other row too, where the dual, taken as zero,
stays feasible.  The answer is then an optimum of the full LP, certified
without building it.

From n = 4 on the binding rows outnumber the 2n+1 columns, so
:func:`reduced_lp` has ``solve`` pivot the packing dual instead (its
``any_vertex`` route).  That tableau has 2n+1 rows and starts feasible at
y = 0, while the covering LP starts every row on an artificial variable
that phase I must drive out.  The same route enters the most negative
reduced cost rather than the lowest negative column: 379 pivots for
n = 1..20 instead of Bland's 1,021, and 113 instead of 932 at n = 60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .lp import OPTIMAL, LinearProgram, _over_one_denominator, solve
from .ranks import trank
from .tensors import SparseTensor, boxtimes, mod_domain, support_of

# Growth base of the bound: (3/8) * (207 + 33*sqrt(33))^(1/3), just under 2.756.
THETA = 0.375 * (207.0 + 33.0 * math.sqrt(33.0)) ** (1.0 / 3.0)

FULL_LP_MAX_N = 3
TABLE_MAX_N = 60  # largest n of a bound table or asymptotic report


def trinomial(n: int) -> list[int]:
    """Coefficients of (1 + x + x^2)^n, exactly, by iterated convolution."""
    return list(_coefficients(n))


@lru_cache(maxsize=1)  # a table row asks for one n's coefficients four times
def _coefficients(n: int) -> tuple[int, ...]:
    if n < 1:
        raise ValueError("n must be at least 1")
    row = [1]
    for _ in range(n):
        out = [0] * (len(row) + 2)
        for i, c in enumerate(row):
            out[i] += c
            out[i + 1] += c
            out[i + 2] += c
        row = out
    return tuple(row)


def _binding_triples(n: int) -> list[tuple[int, int, int]]:
    """Every triple ``i <= j <= k`` with ``i + j + k == 2n``, in lexicographic order."""
    top = 2 * n
    return [(i, j, top - i - j) for i in range(top // 3 + 1) for j in range(i, (top - i) // 2 + 1)]


def _binding_rows(n: int) -> list[tuple[tuple[int, int], ...]]:
    """The rows ``t_i + t_j + t_k >= 1`` of :func:`_binding_triples`, in
    that order, as canonical sparse rows: a repeated index is one column,
    with coefficient 2 or 3."""
    rows = []
    for i, j, k in _binding_triples(n):
        if i == k:
            rows.append(((i, 3),))
        elif i == j:
            rows.append(((i, 2), (k, 1)))
        elif j == k:
            rows.append(((i, 1), (j, 2)))
        else:
            rows.append(((i, 1), (j, 1), (k, 1)))
    return rows


def _covers(t, n: int) -> bool:
    """Whether ``t_i + t_j + t_k >= 1`` on every row ``i <= j <= k``, ``i + j + k <= 2n``.

    Exact for any t, monotone or not.  The prefix minima ``m`` of t are
    nonincreasing and at most t, so a row's sum is at least
    ``m_i + m_j + m_{2n-i-j}``, the m-sum of a binding triple; and each such
    m-sum is the sum of some row, as ``m_a = t_a'`` with ``a' <= a``.  So t
    covers every row iff m covers every binding triple.  The triples are
    enumerated here, not read from the rows solved, and compared on integer
    numerators over one denominator.
    """
    q, d = _over_one_denominator(t)
    m = list(accumulate(q, min))
    top = 2 * n
    return all(
        m[i] + m[j] + m[top - i - j] >= d
        for i in range(top // 3 + 1)
        for j in range(i, (top - i) // 2 + 1)
    )


@dataclass(frozen=True)
class CapsetLPResult:
    """Exact optimum of the collapsed LP for a given n."""

    n: int
    t: tuple[Fraction, ...]
    value: Fraction
    bound: int


@lru_cache(maxsize=None)
def reduced_lp(n: int) -> CapsetLPResult:
    """Minimize ``3 * sum_i f_i t_i`` over nonnegative t with
    ``t_i + t_j + t_k >= 1`` whenever ``i + j + k <= 2n``.

    The LP is solved once, on the binding rows (``i + j + k == 2n``), and
    certified as an optimum of the full LP, which is never built: ``solve``
    certifies the pair on the binding rows, and :func:`_covers` shows that
    t covers every other row.  A failed check raises ``RuntimeError``.

    The LP is pivoted on its shorter side: the covering LP itself for
    n <= 3, where the binding rows are no more than the 2n+1 columns, and
    its packing dual, with no phase I, from n = 4 on.  Columns enter by the
    most negative reduced cost, with Bland's rule as the fallback after a
    run of degenerate pivots (never reached for n = 1..60).  The value is
    the optimum either way; t is the vector the default route returns (the
    tests compare the two routes for n = 1..20), and the duals, which may
    differ, are not reported.  ``STABLERANK_MAX_LP_ROWS`` applies to the
    binding rows, not to the rows of the tableau pivoted.  An n below 1
    raises ``ValueError``.
    """
    objective = [3 * v for v in _coefficients(n)]
    rows = _binding_rows(n)
    sol = solve(LinearProgram(objective, rows, [1] * len(rows)), any_vertex=True)
    if sol.status != OPTIMAL:
        raise RuntimeError(f"collapsed LP unexpectedly {sol.status}")
    if not _covers(sol.x, n):  # t leaves a row of the full LP uncovered
        raise RuntimeError("collapsed LP certificate failed")
    return CapsetLPResult(n, sol.x, sol.value, math.floor(sol.value))


def capset_bound(n: int) -> int:
    """Integer upper bound for the largest progression-free set in F_3^n."""
    return reduced_lp(n).bound


def eg_bound(n: int) -> int:
    """The single-cutoff count ``3 * sum_{i <= 2n/3} f_i``."""
    f = _coefficients(n)
    return 3 * sum(f[i] for i in range(0, 2 * n // 3 + 1))


def eg_prime_bound(n: int) -> int:
    """The sharper three-cutoff count with per-coordinate thresholds
    2n/3, (2n-1)/3 and (2n-2)/3."""
    f = _coefficients(n)
    return sum(
        sum(f[i] for i in range(0, cutoff + 1))
        for cutoff in ((2 * n) // 3, (2 * n - 1) // 3, (2 * n - 2) // 3)
    )


_TAILS = {
    0: (Fraction(2, 3), Fraction(1, 3)),
    1: (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)),
    2: (Fraction(4, 5), Fraction(3, 5), Fraction(2, 5), Fraction(1, 5)),
}


def conjectured_t(n: int) -> tuple[Fraction, ...]:
    """The conjectured optimal t vector: a run of ones, then a short
    arithmetic tail depending on n mod 3, then zeros.

    The nominal run length is (2n-3)/3, (2n-5)/3 or (2n-7)/3 by residue
    class; for n = 2 that is negative and the tail is truncated from the
    left, which reproduces the known optimum (3/5, 2/5, 1/5, 0, 0).
    """
    if n < 2:
        raise ValueError("the conjectured pattern needs n >= 2")
    residue = n % 3
    prefix = {0: 2 * n - 3, 1: 2 * n - 5, 2: 2 * n - 7}[residue] // 3
    tail = _TAILS[residue]
    if prefix < 0:
        tail = tail[-prefix:]
        prefix = 0
    t = [Fraction(1)] * prefix + list(tail)
    t.extend([Fraction(0)] * (2 * n + 1 - len(t)))
    return tuple(t)


def t_vector_feasible(t, n: int) -> bool:
    """Exact feasibility of a t vector for the collapsed LP constraints."""
    vec = [Fraction(v) for v in t]
    return len(vec) == 2 * n + 1 and min(vec) >= 0 and _covers(vec, n)


def t_vector_value(t, n: int) -> Fraction:
    """The objective ``3 * sum_i f_i t_i``, summed on integer numerators."""
    f = _coefficients(n)
    q, d = _over_one_denominator(t)
    return Fraction(3 * sum(f[i] * v for i, v in enumerate(q)), d)


@dataclass(frozen=True)
class ConjectureReport:
    n: int
    feasible: bool
    conjecture_value: Fraction
    lp_value: Fraction
    matches: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "feasible": self.feasible,
            "conjecture_value": str(self.conjecture_value),
            "lp_value": str(self.lp_value),
            "matches": self.matches,
        }


def verify_conjecture(n: int) -> ConjectureReport:
    """Check the conjectured t vector against the solved LP.

    Reports feasibility and whether the conjectured objective attains the
    LP optimum; the match is reported, never assumed.
    """
    t = conjectured_t(n)
    feasible = t_vector_feasible(t, n)
    cval = t_vector_value(t, n)
    lp_value = reduced_lp(n).value
    return ConjectureReport(n, feasible, cval, lp_value, feasible and cval == lp_value)


def base_tensor() -> SparseTensor:
    """The cap-set tensor for n = 1 over F_3 in the polynomial basis
    1, x, x^2; its support has seven elements."""
    entries = {
        (0, 0, 0): 1,
        (2, 0, 0): -1,
        (0, 2, 0): -1,
        (0, 0, 2): -1,
        (0, 1, 1): 1,
        (1, 0, 1): 1,
        (1, 1, 0): 1,
    }
    return SparseTensor((3, 3, 3), entries, mod_domain(3))


def full_capset_lp(n: int) -> Fraction:
    """Exact support rank of the n-fold Kronecker power of the cap-set
    tensor, from the uncollapsed LP; cross-validates :func:`reduced_lp`.
    A failed certificate check raises ``RuntimeError``."""
    if not 1 <= n <= FULL_LP_MAX_N:
        raise ValueError(f"full LP supported for 1 <= n <= {FULL_LP_MAX_N}")
    v = base_tensor()
    power = v
    for _ in range(n - 1):
        power = boxtimes(power, v)
    return trank(support_of(power)).value


def asymptotic_report(n_max: int) -> list[tuple[int, int, float]]:
    """Rows (n, bound, bound * sqrt(n) / THETA^n) for inspecting growth.

    The ratio column is informational; no asymptotic claim is asserted.
    """
    if not 1 <= n_max <= TABLE_MAX_N:
        raise ValueError(f"n_max must be between 1 and {TABLE_MAX_N}")
    out = []
    for n in range(1, n_max + 1):
        bound = capset_bound(n)
        out.append((n, bound, bound * math.sqrt(n) / THETA**n))
    return out
