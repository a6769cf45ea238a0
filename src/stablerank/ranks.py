"""Stable rank computations at the level of a fixed basis.

The torus-restricted stable rank of a tensor depends only on its support
and is the optimum of a small covering LP over the support; its dual has a
variable per support element.  The slice rank relative to the fixed basis
is the 0/1 version of the same program, solved here by branch and bound on
the LP relaxation.  Searching over invertible basis changes turns the
support-level rank into an upper bound for the basis-free stable rank, and
the same search computes the non-commutative rank of a matrix tuple.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, Mapping, Sequence

from .lp import (
    OPTIMAL,
    LinearProgram,
    LPSolution,
    _check_rows,
    _over_one_denominator,
    dual_program,
    solve,
)
from .tensors import (
    Index,
    SparseTensor,
    Support,
    _listed,
    _transform_ints,
    as_weight,
    mod_domain,
    modulus_of,
    ones_weight,
)


class SliceLimitError(RuntimeError):
    """Raised when a slice-cover instance exceeds the configured size cap."""


class SubspaceLimitError(RuntimeError):
    """Raised when non-commutative rank enumeration would be too large."""


def _cover_lp(shape: Sequence[int], weights, elements, banned=frozenset()):
    """The covering LP over the (mode, slice) slots of ``shape`` not in
    ``banned``: one column per slot in (mode, slice) order, costing the
    weight of its mode, and one row per element of ``elements``, in order,
    asking its slots to cover it.  Returns the program and its slots.

    When every weight is integral the objective goes in as ints, which the
    constructor stores after one read; the stored program is the same."""
    if all(a.denominator == 1 for a in weights):
        weights = [a.numerator for a in weights]
    slots = [(i, j) for i, n in enumerate(shape) for j in range(n) if (i, j) not in banned]
    col: list[list[int | None]] = [[None] * n for n in shape]
    for k, (i, j) in enumerate(slots):
        col[i][j] = k
    rows = [
        [(k, 1) for i, j in enumerate(e) if (k := col[i][j]) is not None]
        for e in elements
    ]
    objective = [weights[i] for i, _ in slots]
    return LinearProgram(objective, rows, [1] * len(rows)), slots


def build_lp(support: Support, alpha) -> LinearProgram:
    """The covering LP of a support: one variable per (mode, slice),
    one constraint per support element, objective weighted by alpha.

    This is the program that :func:`trank` solves, and with unit weights
    the root relaxation of :func:`tslice`; both get its solution from
    ``_root``, which builds it only when its memo misses."""
    w = as_weight(alpha, support.order)
    return _cover_lp(support.shape, w, support.sorted_elements)[0]


# The last certified root: ``(support, weights, slots, solution)`` of the
# covering LP that ``_root`` solved, or None.  One entry, replaced in one
# assignment.
_last_root: tuple[Support, tuple, list, LPSolution] | None = None


def _root(support: Support, w) -> tuple[list[tuple[int, int]], LPSolution]:
    """The slots and the certified solution of the covering LP of
    ``support`` with the validated weights ``w``.

    The last optimum is kept, keyed by the support and the weights, both
    compared by value: an equal pair gets it back with no LP built and no
    pivot, so :func:`tslice` right after :func:`trank` on one support, or
    the other way round, solves the root once.  ``ones_weight`` gives every
    unit weight the same entries, so a unit key compares by identity.
    ``STABLERANK_MAX_LP_ROWS`` is checked on every call: here on a hit, and
    by ``solve`` on a miss, on the LP's one row per element.  Only an
    optimum is stored, and ``solve`` raises before returning one that fails
    its certificate.
    """
    global _last_root
    last = _last_root
    if last is not None and last[0] == support and last[1] == w:
        _check_rows(len(support))
        return last[2], last[3]
    lp, slots = _cover_lp(support.shape, w, support.sorted_elements)
    sol = solve(lp)
    if sol.status == OPTIMAL:
        _last_root = support, w, slots, sol
    return slots, sol


@dataclass(frozen=True)
class TRankResult:
    """Exact rank value with its optimal primal/dual pair.

    ``primal[i][j]`` is the weight put on slice j of mode i; ``dual`` maps
    each support element to its multiplier.  The two objectives agree
    exactly.  ``certificate_ok`` is always true: the pair comes from
    :func:`~stablerank.lp.solve`, which raises rather than return a pair
    that fails its independent re-check.
    """

    value: Fraction
    primal: tuple[tuple[Fraction, ...], ...]
    dual: Mapping[Index, Fraction]
    certificate_ok: bool


def _split_by_mode(values: Sequence[Fraction], shape) -> tuple[tuple[Fraction, ...], ...]:
    out = []
    pos = 0
    for n in shape:
        out.append(tuple(values[pos : pos + n]))
        pos += n
    return tuple(out)


def trank(support: Support, alpha=None) -> TRankResult:
    """Stable rank of a support: the exact optimum of its covering LP.

    The zero tensor (empty support) has rank 0: its LP has no rows, and
    x = 0 is optimal.  ``alpha`` defaults to all ones.  The optimum is
    certified by :func:`~stablerank.lp.solve`; a failed check raises
    ``RuntimeError``.  It comes from ``_root``'s one-entry memo, keyed by
    the support and the weights, when the last root solved was this one
    (as after :func:`tslice` on the same support with unit weights);
    ``STABLERANK_MAX_LP_ROWS`` is checked on a hit too.
    """
    _, sol = _root(support, as_weight(alpha, support.order))
    if sol.status != OPTIMAL:  # covering LPs are always feasible and bounded
        raise RuntimeError(f"support LP unexpectedly {sol.status}")
    dual = dict(zip(support.sorted_elements, sol.y))
    return TRankResult(sol.value, _split_by_mode(sol.x, support.shape), dual, True)


def dual_trank(support: Support, alpha=None) -> TRankResult:
    """Solve the dual covering program directly.

    Variables are multipliers on the support elements, constrained so that
    each slice carries at most its alpha weight.  The optimum equals
    :func:`trank` exactly; the primal vector is recovered from the dual of
    this formulation, certified by :func:`~stablerank.lp.solve`; a failed
    check raises ``RuntimeError``.
    """
    sol = solve(dual_program(build_lp(support, alpha)))
    if sol.status != OPTIMAL:
        raise RuntimeError(f"dual support LP unexpectedly {sol.status}")
    dual = dict(zip(support.sorted_elements, sol.x))
    return TRankResult(-sol.value, _split_by_mode(sol.y, support.shape), dual, True)


@dataclass(frozen=True)
class TSliceResult:
    """Minimum slice cover: size and one optimal set of (mode, slice) pairs."""

    value: int
    chosen: frozenset[tuple[int, int]]


def check_count(name: str, n: int) -> None:
    """Refuse a negative count; zero is valid."""
    if n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {n}")


def check_tolerance(name: str, tol: float) -> None:
    """Refuse a tolerance that is negative, nan or infinite; zero is valid."""
    if not 0 <= tol < math.inf:  # also false for nan
        raise ValueError(f"{name} must be a finite nonnegative number, got {tol}")


def tslice(support: Support, limit: int = 40) -> TSliceResult:
    """Minimum number of coordinate slices covering a support.

    Exact 0/1 optimum via branch and bound on the covering LP relaxation.
    Branches on the fractional slice closest to 1/2, ties broken by (mode,
    slice) order, taking the slice before discarding it.  The root
    relaxation is :func:`trank`'s LP with unit weights, and comes from the
    same one-entry memo, keyed by the support and the weights: right after
    ``trank(support)`` no root LP is built or solved, and
    ``STABLERANK_MAX_LP_ROWS`` is still checked.  Every node's LP value,
    the root's included, is certified by :func:`~stablerank.lp.solve`
    before it bounds anything; a failed check, or a node LP that is not
    optimal, raises ``RuntimeError``.  A negative ``limit`` raises
    ``ValueError``.
    """
    check_count("limit", limit)
    total = sum(support.shape)
    if total > limit:
        raise SliceLimitError(
            f"support has {total} slices (limit {limit}); raise the limit or "
            "use grank_upper_search for a cheaper upper bound"
        )
    elements = support.sorted_elements
    d = support.order
    ones = ones_weight(d)
    root_slots, root_sol = _root(support, ones)
    # Initial incumbent: slices with LP weight >= 1/d always form a cover.
    # Each test on an LP value v = p/q (q > 0) runs on p and q.
    best = frozenset(
        slot for slot, v in zip(root_slots, root_sol.x) if v.numerator * d >= v.denominator
    )

    def explore(fixed: frozenset, banned: frozenset, remaining, solved=None) -> None:
        nonlocal best
        if not remaining:
            best = min(best, fixed, key=len)
            return
        if solved is None:
            lp, slots = _cover_lp(support.shape, ones, remaining, banned)
            solved = slots, solve(lp)
        slots, sol = solved
        # Every node LP, the root's too, is feasible and bounded: a ban
        # removes only a fractional slot, and an element's slots sum to at
        # least 1, so some other slot of it keeps weight and no row empties.
        if sol.status != OPTIMAL:
            raise RuntimeError(f"slice-cover LP unexpectedly {sol.status}")
        if len(fixed) + math.ceil(sol.value) >= len(best):
            return
        # The first slot in (mode, slice) order with 0 < v < 1 and the least
        # |v - 1/2| = |2p - q| / 2q; a / b starts at 1, above every such value.
        slot, a, b = None, 1, 1
        for s, v in zip(slots, sol.x):
            p, q = v.numerator, v.denominator
            if 0 < p < q and abs(2 * p - q) * b < a * 2 * q:
                slot, a, b = s, abs(2 * p - q), 2 * q
        if slot is None:
            best = min(best, fixed | {s for s, v in zip(slots, sol.x) if v == 1}, key=len)
            return
        i, j = slot
        explore(fixed | {slot}, banned, tuple(s for s in remaining if s[i] != j))
        explore(fixed, banned | {slot}, remaining)

    explore(frozenset(), frozenset(), elements, (root_slots, root_sol))
    return TSliceResult(len(best), best)


def _det_int(mat: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, exactly.

    Up to 3 x 3 it is the cofactor expansion.  Larger matrices go through
    Bareiss's fraction-free elimination: each entry it computes is a minor
    of ``mat`` (Sylvester's identity), so every division is exact and every
    value an integer.
    """
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        (a, b), (c, d) = mat
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = mat
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    a = [list(row) for row in mat]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((r for r in range(k + 1, n) if a[r][k]), -1)
            if piv < 0:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot = a[k]
        pk = pivot[k]
        for row in a[k + 1 :]:
            f = row[k]
            for c in range(k + 1, n):
                row[c] = (pk * row[c] - f * pivot[c]) // prev
        prev = pk
    return sign * a[-1][-1]


def _echelon_mod_p(vectors: Sequence[Sequence[int]], p: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """A row echelon form of ``vectors`` mod p: the (row, column) of each
    pivot, rows numbered as given, in column order, and the echelon row of
    each pivot, zero mod p left of its column.  The number of pivots is
    the rank.

    Each echelon row is its given row plus multiples of the given rows of
    earlier pivots, so the echelon rows span the same space as
    ``vectors``, and the square minor of ``vectors`` on the pivot rows and
    columns is nonsingular mod p.

    The package passes entries in [0, p).  One pass reduces every vector
    mod p and drops the zero ones, so other integers give the pivots of
    their residues, and every echelon row has its entries in [0, p), 0
    left of its pivot.
    """
    index, rows = [], []
    for i, v in enumerate(vectors):
        if any(row := [x % p for x in v]):
            index.append(i)
            rows.append(row)
    pivots: list[tuple[int, int]] = []
    n, rank = len(rows), 0
    for col in range(len(rows[0]) if rows else 0):
        for piv in range(rank, n):
            if rows[piv][col]:
                break
        else:
            continue
        pivot = rows[piv]
        rows[piv], rows[rank] = rows[rank], pivot
        index[piv], index[rank] = index[rank], index[piv]
        pivots.append((index[rank], col))
        rank += 1
        if rank == n:
            break
        inv = pow(pivot[col], p - 2, p)
        for r in range(rank, n):  # echelon form: rows below only
            if f := rows[r][col]:
                f = f * inv % p
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], pivot)]
    return pivots, rows[:rank]


def _annihilator_mod_p(vectors: Sequence[Sequence[int]], p: int, width: int) -> list[tuple[int, list[int]]]:
    """A basis of the x in F_p^width with u . x = 0 mod p for every u in
    ``vectors``, by back substitution in their echelon rows: one x per
    non-pivot column f, returned as (f, x), with 1 at f and 0 at every
    other non-pivot column.  Nothing here is checked."""
    pivots, rows = _echelon_mod_p(vectors, p)
    # Last pivot first, each with the inverse of its pivot entry.
    back = [(c, row, pow(row[c], p - 2, p)) for (_, c), row in zip(reversed(pivots), reversed(rows))]
    basis = []
    for f in sorted(set(range(width)).difference(c for _, c in pivots)):
        x = [0] * width
        x[f] = 1
        # row is 0 left of c and x is still 0 at c: the whole dot product
        # is the one right of c.
        for c, row, inv in back:
            x[c] = -sum(map(mul, row, x)) * inv % p
        basis.append((f, x))
    return basis


def _random_invertible(rng: random.Random, n: int, p: int | None):
    """Random basis-change matrix: small integer entries over the rationals,
    uniform entries mod p; rejection sampled to be invertible: a drawn
    matrix is kept when its integer determinant is nonzero, over F_p when
    it is nonzero mod p."""
    choice, randrange = rng.choice, rng.randrange
    for _ in range(64):
        if p is None:
            mat = [[choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
            if _det_int(mat):
                return mat
        else:
            mat = [[randrange(p) for _ in range(n)] for _ in range(n)]
            if _det_int(mat) % p:
                return mat
    return _permutation(rng, n)  # vanishing-probability fallback


def _permutation(rng: random.Random, n: int):
    perm = rng.sample(range(n), n)
    return [[1 if c == perm[r] else 0 for c in range(n)] for r in range(n)]


def _transvection(rng: random.Random, n: int, p: int | None):
    mat = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    if n == 1:
        return mat
    a, b = rng.sample(range(n), 2)
    mat[a][b] = rng.choice((1, -1)) if p is None else rng.randrange(1, p)
    return mat


def _packing_bound(
    shape: Sequence[int], elements, caps: Sequence[int], multipliers: dict | None = None
) -> int:
    """A lower bound on ``scale * trank`` of a support, on integers.

    ``caps[i]`` is the weight of mode i times ``scale``.  Greedy packing in
    the dual covering LP: visiting the elements by ascending (sum of their
    slots' degrees, index), each gets the smallest cap left among its
    slots, which is then taken from those slots.  The multipliers stay
    within every slot's cap, so their sum is a feasible dual value and, by
    weak duality, at most the optimum.  Where ``multipliers`` is a dict,
    each positive multiplier is stored in it under its element, so that a
    caller can check the packing with ``_check_packing``.
    """
    get = list.__getitem__
    degree = [[0] * n for n in shape]
    for e in elements:
        for row, j in zip(degree, e):
            row[j] += 1
    left = [[c] * n for c, n in zip(caps, shape)]
    total = 0
    for _, e in sorted((sum(map(get, degree, e)), e) for e in elements):
        y = min(map(get, left, e))
        if y:
            for row, j in zip(left, e):
                row[j] -= y
            total += y
            if multipliers is not None:
                multipliers[e] = y
    return total


def _check_packing(
    shape: Sequence[int], elements, caps: Sequence[int], multipliers: Mapping[Index, int], value: int
) -> None:
    """Raise ``RuntimeError`` unless ``multipliers``, a map from elements to
    integers, is a feasible solution of value ``value`` of the dual covering
    LP of ``elements`` with the slot caps ``caps``: every multiplier is
    nonnegative and sits on an element of the support, every slot's load is
    within its cap, and the multipliers sum to ``value``.  The check reads
    only the support, the caps and the multipliers, and shares no code with
    the greedy of ``_packing_bound``."""
    loads = [[0] * n for n in shape]
    for e, y in multipliers.items():
        if y < 0 or e not in elements:
            raise RuntimeError(f"packing multiplier {y} on {e} is not a dual variable of the support")
        for i, j in enumerate(e):
            loads[i][j] += y
    over = [(i, j) for i, row in enumerate(loads) for j, load in enumerate(row) if load > caps[i]]
    if over:
        raise RuntimeError(f"packing overloads slot {over[0]} of the support")
    if (total := sum(multipliers.values())) != value:
        raise RuntimeError(f"packing multipliers sum to {total}, not to the slice cover {value}")


def _running_minima(v: SparseTensor, w, budget: int, seed: int) -> Iterator[Fraction]:
    """The basis-change search of :func:`grank_upper_search`, one running
    minimum at a time.

    Yields the current minimum after the identity and after every later
    sample, permutations and already-seen supports included, so a caller
    that stops early has drawn a prefix of the same random stream.  ``w``
    is a validated weight; an empty support yields 0 once.

    Each support evaluated (the identity, and every new sample whose
    packing bound is below the minimum) gets its greedy packing once.
    Where its value P equals C = min_i caps_i * (the slices of mode i the
    support uses), the cost of covering the support with the slices of one
    mode, weak duality pins the support rank at C / scale: it is taken with
    no ``Support`` built and no LP, once ``STABLERANK_MAX_LP_ROWS`` has
    been checked as ``trank`` would and ``_check_packing`` has found the
    multipliers a feasible dual of value C (the cover is feasible by
    construction).  A failed check raises ``RuntimeError`` and no value
    enters the minimum.  Otherwise the rank is ``trank``'s.
    """
    if v.is_zero():
        yield Fraction(0)
        return
    caps, scale = _over_one_denominator(w)
    shape = v.shape

    def rank(key: frozenset, bound: int, multipliers: dict) -> Fraction:
        cover = min(c * len(set(col)) for c, col in zip(caps, zip(*key)))
        if bound != cover:
            return trank(Support(shape, key), w).value
        _check_rows(len(key))
        _check_packing(shape, key, caps, multipliers, cover)
        return Fraction(cover, scale)

    key = frozenset(v.entries)
    multipliers: dict = {}
    best = rank(key, _packing_bound(shape, key, caps, multipliers), multipliers)
    yield best
    nums, _ = _over_one_denominator(v.entries.values())
    ints = dict(zip(v.entries, nums))
    # Supports already seen: each has rank at least the current minimum.
    seen = {key}
    rng = random.Random(seed)
    p = modulus_of(v.domain)
    for count in range(1, budget):
        kind = count % 3
        if kind == 0:
            # A permutation relabels slices and keeps the identity's value:
            # it is drawn, as _permutation draws it, but never built.
            for n in shape:
                rng.sample(range(n), n)
        else:
            draw = _transvection if kind == 1 else _random_invertible
            # The drawn matrices are square, int and invertible: valid as they are.
            key = frozenset(_transform_ints(ints, [draw(rng, n, p) for n in shape], p))
            if key not in seen:
                seen.add(key)
                multipliers = {}
                bound = _packing_bound(shape, key, caps, multipliers)
                if bound * best.denominator < best.numerator * scale:
                    best = min(best, rank(key, bound, multipliers))
        yield best


def grank_upper_search(v: SparseTensor, alpha=None, budget: int = 64, seed: int = 0) -> Fraction:
    """Upper bound for the basis-free stable rank by sampling basis changes.

    Takes the minimum support rank of ``g . v`` over ``budget`` invertible
    per-mode basis changes: the identity first, then permutations,
    elementary transvections and dense random matrices in rotation.  A
    permutation only relabels slices and keeps the identity's value, so it
    is drawn, keeping the random stream, but neither built nor solved.  A
    dense matrix is redrawn until its integer determinant is nonzero (mod p
    over F_p), which draws exactly the invertible matrices.  A sample whose
    exact packing bound (a feasible dual) already reaches the minimum
    cannot lower it and skips its LP.  Every value that enters the minimum
    is certified: where a support's greedy packing meets its one-mode
    slice cover, the cover's cost is the rank by weak duality, taken once
    the packing's multipliers are checked to be a feasible dual of that
    value; elsewhere it is a certificate-checked LP optimum.  A search that certifies its identity
    this way solves no LP for it and leaves ``_root``'s memo as it was, so
    a later :func:`trank` on the same support solves it then: only that
    call's speed moves, not its value.  Only supports are read, and
    supp(g . v) = supp(g . (d v)) for d > 0, so the samples transform the
    entries of ``v`` over one denominator, as ints, and build no tensor.
    Every sampled value is a valid upper bound; the reported number carries
    no tightness claim.  The whole budget is always spent: there is no
    lower bound to stop at here (:func:`ncrk_via_grank` has one and stops
    early on the same stream).  The identity is always evaluated, so a
    ``budget`` of 0 returns what a ``budget`` of 1 does: the support rank
    of ``v`` itself.
    Deterministic for a fixed seed.  A support LP or a packing that fails
    its certificate check raises ``RuntimeError``; a negative ``budget``
    raises ``ValueError``.  ``STABLERANK_MAX_LP_ROWS`` is checked for every
    support evaluated, LP or not.
    """
    check_count("budget", budget)
    for best in _running_minima(v, as_weight(alpha, v.order), budget, seed):
        pass
    return best


def _matrix_entry(v) -> int:
    """An integer matrix entry: integer text, or a number with no fractional
    part; ``1.5`` is refused rather than truncated, and a list, text that
    spells no integer, NaN, infinity, or another value that is no number
    raises ``TypeError`` naming it."""
    try:
        n = int(v)
    except (TypeError, ValueError, OverflowError):
        raise TypeError(f"matrix entries must be integers, got {v!r}") from None
    if n != v and not isinstance(v, str):
        raise ValueError(f"matrix entries must be integers, got {v!r}")
    return n


@dataclass(frozen=True)
class MatrixTuple:
    """A tuple of equally sized matrices over a prime field."""

    modulus: int
    matrices: tuple[tuple[tuple[int, ...], ...], ...]

    def __init__(self, matrices, modulus: int):
        mod_domain(modulus)  # raises unless the modulus is a prime int
        mats = []
        for m in matrices:
            mats.append(tuple(
                tuple(
                    _matrix_entry(v) % modulus
                    for v in _listed(row, "each matrix row must be a list of entries")
                )
                for row in _listed(m, "each matrix must be a list of rows")
            ))
        if not mats:
            raise ValueError("matrix tuple must contain at least one matrix")
        rows = len(mats[0])
        cols = len(mats[0][0]) if rows else 0
        if rows < 1 or cols < 1:
            raise ValueError("matrices must be nonempty")
        for m in mats:
            if len(m) != rows or any(len(r) != cols for r in m):
                raise ValueError("all matrices must have identical dimensions")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "matrices", tuple(mats))

    @property
    def rows(self) -> int:
        return len(self.matrices[0])

    @property
    def cols(self) -> int:
        return len(self.matrices[0][0])


def _rref_bases(q: int, k: int, p: int):
    """All reduced row-echelon generator matrices of k-dimensional subspaces
    of F_p^q; each subspace appears exactly once."""
    for pivots in itertools.combinations(range(q), k):
        free = [(r, c) for r, pivot in enumerate(pivots) for c in range(pivot + 1, q) if c not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            basis = [[0] * q for _ in range(k)]
            for r, c in enumerate(pivots):
                basis[r][c] = 1
            for (r, c), val in zip(free, values):
                basis[r][c] = val
            yield basis


def _subspace_count(q: int, p: int, limit: int) -> int:
    """The number of subspaces of F_p^q, the sum over k of the Gaussian
    binomials [q, k]_p, or the first partial sum above ``limit``."""
    total = term = 1  # k = 0
    for k in range(1, q + 1):
        # [q, k] = [q, k - 1] (p^(q-k+1) - 1) / (p^k - 1), exactly
        term = term * (p ** (q - k + 1) - 1) // (p**k - 1)
        total += term
        if total > limit:
            break
    return total


def ncrk_bruteforce(mats: MatrixTuple, limit: int = 1 << 20) -> int:
    """Non-commutative rank by subspace enumeration.

    Minimizes the value ``cols + dim(sum_i A_i W) - dim W`` over the
    subspaces W of the column space.  It starts from the certified bounds
    L' <= ncrk <= U0 of ``_ncrk_bounds``.  U0 is the checked value of a
    subspace, or the slice cover C, which bounds the minimum through the
    search's trank; either way the minimum is at most U0, so starting
    there changes no result.  Through canonical RREF generator matrices it
    then tries dimensions 1 to cols - 1, each value from one elimination,
    and stops as soon as the running minimum equals L'; the order cannot
    change a minimum, so the result is that of the full enumeration.
    Where the bounds meet, as they do whenever L equals cols, no RREF
    matrix is enumerated.  A minimum below U0 is checked before it is
    returned: the ``_subspace_value`` of the subspace that reached it must
    equal it.  A value that differs, or one below L', raises
    ``RuntimeError``, as does a bound whose certificate fails.  A column
    space with more than ``limit`` subspaces, W = 0 and the whole space
    included, raises ``SubspaceLimitError`` before any bound is computed or
    any subspace enumerated.  A negative ``limit`` raises ``ValueError``.
    """
    check_count("limit", limit)
    _check_subspace_limit(mats, limit)
    return _ncrk_brute(mats, _ncrk_bounds(mats))


def _check_subspace_limit(mats: MatrixTuple, limit: int) -> None:
    """Raise ``SubspaceLimitError`` if the column space of ``mats`` has
    more than ``limit`` subspaces."""
    p, q = mats.modulus, mats.cols
    count = _subspace_count(q, p, limit)
    if count > limit:
        raise SubspaceLimitError(
            f"F_{p}^{q} has at least {count} subspaces, above the enumeration limit "
            f"{limit}; use the search mode"
        )


def _ncrk_brute(mats: MatrixTuple, bounds: tuple[int, int]) -> int:
    """``ncrk_bruteforce`` from the ``bounds`` that ``_ncrk_bounds(mats)``
    gives, with the subspace limit already checked.

    The value of a basis needs the rank of its images A_j w, w a basis
    row.  Consecutive RREF bases of one dimension k mostly differ only in
    their last row, so each dimension keeps the rows of the last basis and
    their images, k rows and k times ``len(mats.matrices)`` image vectors,
    and multiplies out again only the rows that changed.  Only the rank is
    read, so the images go to the elimination in basis-row order.
    """
    p, q = mats.modulus, mats.cols
    lower, best = bounds
    argmin = None  # the subspace of the least enumerated value below U0
    for k in range(1, q):
        if best <= lower:
            break
        last, images = [None] * k, [None] * k
        for basis in _rref_bases(q, k, p):
            for r, w in enumerate(basis):
                if w != last[r]:
                    last[r], images[r] = w, [[sum(map(mul, row, w)) % p for row in m] for m in mats.matrices]
            value = q + len(_echelon_mod_p([v for row_images in images for v in row_images], p)[0]) - k
            if value < best:
                best, argmin = value, basis
                if best <= lower:
                    break
    if best < lower:
        raise RuntimeError(
            f"ncrk brute force reached {best}, below the certified lower bound {lower}"
        )
    if argmin is not None and (checked := _subspace_value(mats, argmin, "best subspace")) != best:
        raise RuntimeError(f"ncrk brute force reached {best} on a subspace whose checked value is {checked}")
    return best


def matrix_tuple_tensor(mats: MatrixTuple) -> SparseTensor:
    """The order-3 tensor with one slice per matrix of the tuple."""
    entries = {
        (r, c, i): val
        for i, m in enumerate(mats.matrices)
        for r, row in enumerate(m)
        for c, val in enumerate(row)
        if val
    }
    shape = (mats.rows, mats.cols, len(mats.matrices))
    return SparseTensor(shape, entries, mod_domain(mats.modulus))


def _certified_rank(m: Sequence[Sequence[int]], pivots: list[tuple[int, int]], p: int, what: str) -> int:
    """``len(pivots)``, a lower bound on the rank of ``m`` mod p, once the
    determinant of ``m`` on the pivot rows and columns is found nonzero mod
    p: an exact integer check that shares no code with the elimination.  A
    singular minor raises ``RuntimeError`` naming ``what`` it certifies."""
    minor = [[m[r][c] for _, c in pivots] for r, _ in pivots]
    if minor and _det_int(minor) % p == 0:
        raise RuntimeError(f"the {len(minor)} x {len(minor)} minor certifying {what} is singular mod {p}")
    return len(pivots)


def _raise_lower(lower: int, upper: int, matrices, p: int) -> int:
    """The largest of ``lower`` and the ranks mod p of ``matrices``, taken
    in order while below ``upper``; each rank that raises it is certified
    by a minor.  A rank above ``upper`` raises ``RuntimeError``."""
    for m in matrices:
        pivots = _echelon_mod_p(m, p)[0]
        if len(pivots) > lower:
            lower = _certified_rank(m, pivots, p, "the ncrk lower bound")
            if lower > upper:
                raise RuntimeError(f"ncrk combination rank {lower} exceeds the certified upper bound {upper}")
            if lower == upper:
                break
    return lower


def _subspace_value(mats: MatrixTuple, basis: Sequence[Sequence[int]], name: str) -> int:
    """``cols + dim(sum_j A_j U) - dim U`` for the subspace U spanned by
    ``basis``, ``name``d in errors, or more: an upper bound on the ncrk
    whatever the eliminations did, and the value of U when they are right.

    dim U is at least the size of a nonsingular minor of ``basis`` on its
    echelon pivots.  dim sum_j A_j U is at most rows less the length of a
    checked basis of the annihilator of the images A_j u, u in ``basis``:
    each of its vectors must be orthogonal to every image mod p, and its
    minor on the columns of its unit entries nonsingular mod p.  A failed
    check raises ``RuntimeError``.
    """
    p, rows = mats.modulus, mats.rows
    dim = _certified_rank(basis, _echelon_mod_p(basis, p)[0], p, f"the dimension of the {name}")
    images = [[sum(map(mul, row, u)) % p for row in m] for m in mats.matrices for u in basis]
    annihilator = _annihilator_mod_p(images, p, rows)
    if any(sum(map(mul, v, x)) % p for _, x in annihilator for v in images):
        raise RuntimeError(f"the annihilator of the {name}'s images fails its check mod {p}")
    units = [(i, f) for i, (f, _) in enumerate(annihilator)]
    _certified_rank([x for _, x in annihilator], units, p, f"the annihilator of the {name}'s images")
    return mats.cols + rows - len(annihilator) - dim


# The most combinations sum_i c_i A_i that the ncrk lower bound tries.
_COMBINATIONS = 16


def _combinations(k: int, p: int):
    """The coefficient vectors c of the combinations sum_i c_i A_i of k
    matrices that ``_ncrk_bounds`` tries, at most ``_COMBINATIONS``: first
    the moment curve c_i = t^i mod p, t = 1 to min(p - 1, 8), generic over
    a large field; then, for k > 2, the pairs A_i + A_j, i < j, which over
    a small field reach ranks that its few points miss."""
    curve = ([pow(t, i, p) for i in range(k)] for t in range(1, min(p, 9)))
    # At k = 2 the one pair is the curve's t = 1.
    pairs = ([int(i in pair) for i in range(k)] for pair in itertools.combinations(range(k), 2) if k > 2)
    return itertools.islice(itertools.chain(curve, pairs), _COMBINATIONS)


def _ncrk_bounds(mats: MatrixTuple) -> tuple[int, int]:
    """Certified bounds ``(L', U0)`` with L' <= ncrk <= U0, worked out in
    cost order and returned as soon as they meet.

    L is the largest rank of one matrix of the tuple: for every subspace W
    and every i, dim sum_j A_j W >= dim A_i W >= dim W - (cols - rank A_i),
    so the value of W is at least rank A_i.  This is the d = 1 case of the
    blow-up bound of Derksen and Makam.  The upper bounds come next:
    - C = min(nonzero rows, nonzero columns, ell * nonzero matrices), ell =
      min(rows, cols), the cheapest cover of the tuple tensor's support by
      slices of one mode.  L <= ncrk <= floor(trank) <= C, with the trank
      of ``ncrk_via_grank``'s weights (1, 1, ell).
    - The ``_subspace_value`` of the common kernel of the matrices, which
      they send to 0: cols less its dimension.
    - The ``_subspace_value`` of the whole space: the rank of the matrices
      side by side.
    U0 is the least of them.  A subspace value is checked whatever the
    elimination that found the subspace did, so a wrong kernel can only
    weaken U0.  Only where U0 > L does L' go past L: it is the largest rank
    of the combinations of ``_combinations``, taken while below U0; a
    combination has rank at most the commutative rank, which is at most
    ncrk.  Every rank is certified by a minor (``_raise_lower``).  No
    random number is drawn.  An upper bound below L, or a combination rank
    above U0, contradicts that chain and raises ``RuntimeError``, as does a
    failed certificate.
    """
    p, rows, cols = mats.modulus, mats.rows, mats.cols
    lower = _raise_lower(0, cols, mats.matrices, p)
    nonzero_rows = {r for m in mats.matrices for r, row in enumerate(m) if any(row)}
    nonzero_cols = {c for m in mats.matrices for row in m for c, val in enumerate(row) if val}
    nonzero = sum(1 for m in mats.matrices if any(map(any, m)))
    witnesses = (
        ("slice cover", lambda: min(len(nonzero_rows), len(nonzero_cols), min(rows, cols) * nonzero)),
        ("common kernel", lambda: _subspace_value(mats, [
            x for _, x in _annihilator_mod_p([row for m in mats.matrices for row in m], p, cols)
        ], "common kernel")),
        ("whole space", lambda: _subspace_value(
            mats, [[int(r == c) for c in range(cols)] for r in range(cols)], "whole space")),
    )
    upper = cols  # the value of W = 0
    for name, witness in witnesses:
        value = witness()
        if value < lower:
            raise RuntimeError(
                f"ncrk {name} reached {value}, below the certified lower bound {lower}"
            )
        upper = min(upper, value)
        if upper == lower:
            return lower, upper
    if len(mats.matrices) > 1:
        # zip(*mats.matrices) gives the r-th rows of the A_i, and zipping
        # those gives (A_i[r][c])_i, dotted with coeffs for entry (r, c).
        combos = ([[sum(map(mul, coeffs, e)) % p for e in zip(*rows_r)] for rows_r in zip(*mats.matrices)]
                  for coeffs in _combinations(len(mats.matrices), p))
        lower = _raise_lower(lower, upper, combos, p)
    return lower, upper


def ncrk_via_grank(mats: MatrixTuple, budget: int = 200, seed: int = 0) -> int:
    """Non-commutative rank from above via the basis-change search.

    Runs the stable-rank upper-bound search on the tuple's order-3 tensor
    with weights (1, 1, ell), ell = min(rows, cols), floors its running
    minimum, and returns the least of that floor and U0.  Before any of
    this, ``_ncrk_bounds`` gives certified bounds L' <= ncrk <= U0 from
    the matrices alone.  Where they meet, L' is returned with no tensor
    built, no LP solved and nothing drawn: the result is the same for
    every budget and seed.  Otherwise every floor is at least the true
    rank, which is at least L', so the search stops at the first running
    minimum whose floor equals L': no later sample could lower the result,
    and it equals the floor of the full ``budget`` search with the same
    seed (the bounds draw nothing from its stream), capped at U0.  The
    search's values are those of :func:`grank_upper_search`: a support whose
    checked packing meets its one-mode slice cover takes that cover with no
    LP, and every other support its certified LP optimum.  Where
    the true rank exceeds L' (the 3 x 3 alternating triple E12 - E21,
    E13 - E31, E23 - E32 has L' = 2 and rank 3 = U0), the stop never fires
    and the whole budget is spent.  A running minimum whose floor falls
    below L' contradicts that chain and raises ``RuntimeError`` instead of
    being returned, as do the contradictions and failed certificates of
    ``_ncrk_bounds``.  A negative ``budget`` raises ``ValueError``.
    """
    check_count("budget", budget)
    return _ncrk_search(mats, _ncrk_bounds(mats), budget, seed)


def _ncrk_search(mats: MatrixTuple, bounds: tuple[int, int], budget: int, seed: int) -> int:
    """``ncrk_via_grank`` from the ``bounds`` that ``_ncrk_bounds(mats)``
    gives, with ``budget`` already checked."""
    lower, upper = bounds
    if lower == upper:
        return lower
    t = matrix_tuple_tensor(mats)
    for bound in _running_minima(t, as_weight((1, 1, min(mats.rows, mats.cols)), 3), budget, seed):
        value = math.floor(bound)
        if value < lower:
            raise RuntimeError(
                f"ncrk search reached {value}, below the certified lower bound {lower}"
            )
        if value == lower:
            break
    return min(value, upper)
