"""Cap-set upper bounds from the symmetric covering LP.

The count of coordinate vectors in ``{0,1,2}^n`` by coordinate sum follows
the trinomial coefficients, and assigning one LP variable to each sum value
collapses the huge covering LP of the n-fold Kronecker power of the cap-set
tensor into 2n+1 variables with one constraint per nonincreasing exponent
triple summing to at most 2n.  Its exact optimum, floored, bounds the size
of any progression-free subset of F_3^n.  Routines here compute the
coefficients, certify the collapsed LP's optimum, compare against the
coarser slice-rank style counts, test the conjectured closed-form optimum,
and cross-validate against the uncollapsed LP for tiny n.

The collapsed LP has about (2n)^3/36 rows, but few of them bind.  Prefix
minima keep a t vector feasible and cost no more, so some optimal t is
nonincreasing, and for such a t the *binding* rows, whose triples sum to
exactly 2n, imply all the others.  :func:`_covers` proves, exactly for
any t, that t covers every row of the full LP; its walk of the binding
rows skips every row the prefix minima provably cover, so for the
conjectured t it starts at the first open prefix minimum and is one linear
pass and a handful of rows.

The answer has one route, with no simplex and no LP built.
:func:`reduced_lp` certifies :func:`conjectured_t`: if that t covers every
row, a dual solution of the full LP that is zero off the binding rows tight
at t (40 of 154 at n = 20, 402 of 1,261 at n = 60) and sums to the cost of
t proves t optimal, by weak duality.  :func:`_closed_form_dual` writes that
dual down by a fixed rule, a run of ``3 f_i`` that fills one column and
spills onto the next, and a tail from a 2x2 to 4x4 integer system, and
checks it exactly, each triple of it on the triple itself: at every
n = 1..300, as the tests check.  A failed check raises; nothing is reported
unproved.  The row cap counts the collapsed LP's binding rows and is
checked first, on every call: no result is kept between calls, so each
call proves its bound anew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .lp import _check_rows, _over_one_denominator
from .ranks import _det_int, trank
from .tensors import SparseTensor, boxtimes, mod_domain, support_of

# Growth base of the bound: (3/8) * (207 + 33*sqrt(33))^(1/3), just under 2.756.
THETA = 0.375 * (207.0 + 33.0 * math.sqrt(33.0)) ** (1.0 / 3.0)

FULL_LP_MAX_N = 3
TABLE_MAX_N = 60  # largest n of a bound table or asymptotic report


def trinomial(n: int) -> list[int]:
    """Coefficients of (1 + x + x^2)^n, exactly, in O(n) big-integer steps.

    With ``P = (1 + x + x^2)^n``, the identity ``(1 + x + x^2) P' =
    n (1 + 2x) P`` gives ``k f_k = (n-k+1) f_{k-1} + (2n-k+2) f_{k-2}``,
    whose division by k is exact; the recurrence runs for k = 1..n and the
    symmetry ``f_{2n-k} = f_k`` gives the rest.  An n below 1 raises
    ``ValueError``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    f = [1, n]  # f_0, and f_1 from k = 1 with f_{-1} = 0
    for k in range(2, n + 1):
        f.append(((n - k + 1) * f[k - 1] + (2 * n - k + 2) * f[k - 2]) // k)
    return f + f[-2::-1]


def _binding_triple_count(n: int) -> int:
    """The number of binding triples ``i <= j <= k`` with ``i + j + k == 2n``:
    the number of partitions of 2n into at most three parts, the integer
    nearest to (2n + 3)^2 / 12."""
    return ((2 * n + 3) ** 2 + 6) // 12


def _covers(q: list[int], d: int, n: int) -> bool:
    """Whether ``t = q / d`` covers every row ``t_i + t_j + t_k >= 1``,
    ``i <= j <= k``, ``i + j + k <= 2n``.

    Exact for any t, monotone or not.  The prefix minima ``m`` of t are
    nonincreasing and at most t, so a row's sum is at least
    ``m_i + m_j + m_{2n-i-j}``, the m-sum of a binding triple; and each such
    m-sum is the sum of some row, as ``m_a = t_a'`` with ``a' <= a``.  So t
    covers every row iff m covers every binding triple.  The triples are
    enumerated here, not read from any LP, and compared on the integer
    numerators ``q`` over the one denominator ``d > 0``.

    As m is nonincreasing, a binding triple ``i <= j <= k`` has
    ``m_j + m_k >= 2 m_{2n}``, so it is covered if ``m_i + 2 m_{2n} >= d``;
    that sum only falls as i grows, so the walk starts at the first i where
    it is below d.  As ``m_{2n} = 0`` for :func:`conjectured_t`, that is the
    first open prefix minimum, one linear pass over t and a handful of
    triples; a t whose minima drop early walks more of the
    ``~(2n+3)^2 / 12``.
    """
    m = list(accumulate(q, min))
    top = 2 * n
    start = next((i for i, v in enumerate(m) if v + 2 * m[-1] < d), len(m))
    for i in range(start, top // 3 + 1):
        for j in range(i, (top - i) // 2 + 1):
            if m[i] + m[j] + m[top - i - j] < d:
                return False
    return True


def _cost(q: list[int], d: int, f: list[int]) -> Fraction:
    """The objective ``3 * sum_i f_i t_i`` of ``t = q / d``, summed on integers."""
    return Fraction(3 * sum(map(mul, f, q)), d)


@dataclass(frozen=True)
class CapsetLPResult:
    """Exact optimum of the collapsed LP for a given n."""

    n: int
    t: tuple[Fraction, ...]
    value: Fraction
    bound: int


def reduced_lp(n: int) -> CapsetLPResult:
    """Minimize ``3 * sum_i f_i t_i`` over nonnegative t with
    ``t_i + t_j + t_k >= 1`` whenever ``i + j + k <= 2n``.

    The full LP is never built, and no LP is solved.  t is
    :func:`conjectured_t`, and its proof of optimality is exact: t >= 0
    covers every row of the full LP, by one linear pass of :func:`_covers`
    that starts at t's first entry below 1.  A y >= 0 on binding triples T
    tight at t with ``sum_T mult_j(T) y_T <= 3 f_j`` for each column j,
    zero on every other row, is a dual solution of the full LP, so by weak
    duality ``sum(y) <= OPT <= c.t``; :func:`_closed_form_dual` writes such
    a y down by a rule, checks each of its triples on the triple itself,
    and checks ``c.t == sum(y)``, an identity of integers over the common
    denominator.
    It does so at every n = 1..300.  The guess is never trusted: a negative
    entry, an uncovered row or a failed check raises ``RuntimeError``.  The
    duals are not reported.

    ``STABLERANK_MAX_LP_ROWS`` counts the collapsed LP's binding rows,
    ``~(2n+3)^2 / 12`` of them, and is checked first, on every call:
    nothing is cached, so a repeat call checks the cap and the proof again.
    The row of trinomials is computed once and passed down.  An n below 1
    raises ``ValueError``.
    """
    f = trinomial(n)  # an n below 1 raises here
    _check_rows(_binding_triple_count(n))
    t = conjectured_t(n)
    q, d = _over_one_denominator(t)
    if min(q) < 0 or not _covers(q, d, n) or _closed_form_dual(f, q, d) is None:
        raise RuntimeError("collapsed LP certificate failed")
    value = _cost(q, d, f)
    return CapsetLPResult(n, t, value, math.floor(value))


def _rule_dual(f: list[int], p: int) -> tuple[list[tuple[int, int, int]], list[int], int] | None:
    """The dual y that the rule predicts for a t with ``p`` positive
    entries, ``p >= 1``, as ``(triples, numerators, den)`` with ``den > 0``,
    or None if its tail system is not square or is singular.  ``f`` is the
    row :func:`trinomial` of ``n = len(f) // 2``.  Nothing here is checked.

    With ``m = 2n - 2p``, y carries ``3 f_i`` for each i = 0..m, and on a
    tail of 2 to 4 triples chosen by n mod 3 it solves the square system
    that loads each column ``max(m+1, 0)..p-1`` with exactly ``3 f_j``; no
    run triple meets those columns.  The system is solved on integers by
    Cramer's rule, over ``den = |det|``, the sign taken from the
    determinant itself.  Where m < 0 (n = 1 and 2) there is no run, and the
    tail is truncated from the left, as :func:`conjectured_t` truncates
    its t: the triples with a negative index are dropped.  At p = 2n + 1,
    which has no column p, the 2n + 1 columns outnumber the tail.

    The ``3 f_i`` fill column p, then spill onto column p+1.  Walking i
    from m down to 0, each run triple ``(i, p, 2n-p-i)`` takes as much as
    column p still has room for, of its cap ``3 f_p`` less the tail's load
    on it, and the rest goes on ``(i, p+1, 2n-p-1-i)``.  Where column p has
    room for the whole run, nothing spills.  Of n = 1..300, only
    n = 0 (mod 3) from 57 on spills: there the i below some s spill whole
    and i = s is shared.  The triples are listed by ascending i, the run
    triple first where i is shared.
    """
    n = len(f) // 2
    m = 2 * n - 2 * p
    residue = n % 3
    if residue == 0:
        tail = [(m + 1, p - 1, p), (p - 1, p - 1, p - 1)]
    elif residue == 1:
        tail = [(m + 1, p - 1, p), (m + 2, m + 2, p), (m + 2, p - 1, p - 1)]
    else:
        tail = [(m + 1, p - 1, p), (m + 2, p - 2, p), (m + 2, p - 1, p - 1), (m + 3, m + 3, p - 1)]
    tail = [triple for triple in tail if min(triple) >= 0]
    cols = range(max(m + 1, 0), p)
    if len(cols) != len(tail):
        return None
    a = [[triple.count(j) for triple in tail] for j in cols]
    b = [3 * f[j] for j in cols]
    det = _det_int(a)
    if not det:
        return None
    sign = 1 if det > 0 else -1
    nums = [
        sign * _det_int([[*row[:k], bj, *row[k + 1 :]] for row, bj in zip(a, b)])
        for k in range(len(tail))
    ]
    den = sign * det
    room = 3 * f[p] * den - sum(triple.count(p) * v for triple, v in zip(tail, nums))
    run = []
    for i in range(m, -1, -1):
        triple, full = (i, p, 2 * n - p - i), 3 * f[i] * den
        # (m, p, p) and (p, p, m) meet column p twice, (p, p, p) three times
        kept = min(full, room // triple.count(p))
        room -= triple.count(p) * kept
        if kept < full:
            run.append(((i, p + 1, 2 * n - p - 1 - i), full - kept))
        if kept:
            run.append((triple, kept))
    run.reverse()
    return [triple for triple, _ in run] + tail, [v for _, v in run] + nums, den


def _closed_form_dual(
    f: list[int], q: list[int], d: int
) -> tuple[list[tuple[int, int, int]], list[int], int] | None:
    """A dual solution of the full LP that proves ``t = q / d`` optimal, as
    ``(triples, numerators, den)`` from :func:`_rule_dual`, if it passes an
    exact check; otherwise None.  ``f`` is the row :func:`trinomial` of
    ``n = len(f) // 2``.

    t >= 0 covers every row, by :func:`_covers`.  Weak duality needs four
    checks, each on integers over the common denominator: every triple
    ``(i, j, k)`` of y is a row of the full LP, ``0 <= i <= j <= k`` and
    ``i + j + k <= 2n``; every ``y >= 0``; the load ``sum_T mult_j(T) y_T``
    is at most ``3 f_j`` on each of the 2n+1 columns; and ``sum(y) == c.t``.
    By weak duality t is then optimal.  Two further checks pin the rule's
    shape, not the proof, each tested on the triple itself: every triple is
    binding, ``i + j + k == 2n``, which implies the row check, and tight at
    t, ``q_i + q_j + q_k == d``, which complementary slackness forces on
    every triple with ``y > 0`` once the four hold.  The rule passes all
    six at every n = 1..300.
    """
    n = len(f) // 2
    p = sum(1 for v in q if v > 0)
    rule = _rule_dual(f, p)
    if rule is None:
        return None
    triples, y, den = rule
    load = [0] * (2 * n + 1)
    for (i, j, k), v in zip(triples, y):
        if v < 0 or not (0 <= i <= j <= k and i + j + k == 2 * n and q[i] + q[j] + q[k] == d):
            return None
        for c in (i, j, k):
            load[c] += v
    if any(s > 3 * fj * den for s, fj in zip(load, f)):
        return None
    if sum(y) * d != 3 * sum(map(mul, f, q)) * den:
        return None
    return rule


def capset_bound(n: int) -> int:
    """Integer upper bound for the largest progression-free set in F_3^n."""
    return reduced_lp(n).bound


def eg_bound(n: int) -> int:
    """The single-cutoff count ``3 * sum_{i <= 2n/3} f_i``."""
    f = trinomial(n)
    return 3 * sum(f[i] for i in range(0, 2 * n // 3 + 1))


def eg_prime_bound(n: int) -> int:
    """The sharper three-cutoff count with per-coordinate thresholds
    2n/3, (2n-1)/3 and (2n-2)/3."""
    f = trinomial(n)
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
    class; for n = 1 and 2 that is negative and the tail is truncated from
    the left, which reproduces the optima (1/2, 1/4, 0) and
    (3/5, 2/5, 1/5, 0, 0).
    """
    if n < 1:
        raise ValueError("the conjectured pattern needs n >= 1")
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
    q, d = _over_one_denominator(t)
    return len(q) == 2 * n + 1 and min(q) >= 0 and _covers(q, d, n)


def t_vector_value(t, n: int) -> Fraction:
    """The objective ``3 * sum_i f_i t_i``, summed on integer numerators.
    A t without exactly 2n+1 entries raises ``ValueError``."""
    q, d = _over_one_denominator(t)
    if len(q) != 2 * n + 1:
        raise ValueError(f"t needs 2n+1 = {2 * n + 1} entries, got {len(q)}")
    return _cost(q, d, trinomial(n))


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
    """Check the conjectured t vector against the certified LP optimum.

    The report is the proof of :func:`reduced_lp`, whose certificate covers
    every row with the conjectured t itself and proves its cost optimal:
    t is feasible and attains the optimum.  A report exists only where the
    proof holds: where it fails, ``reduced_lp`` raises.
    """
    value = reduced_lp(n).value
    return ConjectureReport(n, True, value, value, True)


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
