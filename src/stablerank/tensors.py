"""Sparse exact tensors, supports, and the block/Kronecker/concatenation products.

Tensors are stored sparsely as a map from index tuples to nonzero scalars.
Two exact scalar domains are supported: arbitrary-precision rationals
("rational") and integers modulo a prime ("mod:<p>").  All indices are
0-based.  Everything here is exact and runs on the standard library; dense
complex arrays, and numpy, belong to ``stablerank.complexrank`` alone.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

RATIONAL = "rational"

Index = tuple[int, ...]
Weight = tuple[Fraction, ...]


def _integers(raw: tuple, what: str) -> tuple[int, ...]:
    """``raw`` as ints.  A number with a fractional part, or integer text,
    raises ``ValueError`` naming ``what``; a list, text that spells no
    integer, NaN, infinity, or another value that is no number raises
    ``TypeError`` naming it, which the command line reports with the file
    it came from."""
    try:
        ints = tuple(int(v) for v in raw)
    except (TypeError, ValueError, OverflowError):
        raise TypeError(f"{what} must be integers, got {list(raw)}") from None
    if ints != raw:
        raise ValueError(f"{what} must be integers, got {list(raw)}")
    return ints


def _check_shape(dims: Sequence[int]) -> tuple[int, ...]:
    shape = _integers(tuple(dims), "dimensions")
    if len(shape) < 1:
        raise ValueError("tensor order must be at least 1")
    if any(n < 1 for n in shape):
        raise ValueError(f"all dimensions must be >= 1, got {shape}")
    return shape


def _check_index(idx: Sequence[int], shape: tuple[int, ...]) -> Index:
    coords = _integers(tuple(idx), "index coordinates")
    if len(coords) != len(shape):
        raise ValueError(f"index {coords} has wrong length for shape {shape}")
    for c, n in zip(coords, shape):
        if not 0 <= c < n:
            raise ValueError(f"index {coords} out of range for shape {shape}")
    return coords


# Miller-Rabin on the first 13 primes as bases is exact below _MR_LIMIT
# (Sorenson and Webster, Math. Comp. 2017); the first 12 alone pass the
# composite 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


@functools.lru_cache(maxsize=64)
def _is_prime(p: int) -> bool:
    if p >= _MR_LIMIT:
        raise ValueError(f"modulus {p} is too large to test for primality (limit {_MR_LIMIT})")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# The one spelling of a mod-p tag, the one ``mod_domain`` writes: ASCII
# digits with no leading zero, so that equal fields have equal tags.
_MOD_TAG = re.compile(r"mod:([1-9][0-9]*)")


def modulus_of(domain: str) -> int | None:
    """Prime modulus of a scalar domain tag, or None for the rationals."""
    if domain == RATIONAL:
        return None
    tag = _MOD_TAG.fullmatch(domain) if isinstance(domain, str) else None
    if tag is None:
        raise ValueError(f"unknown scalar domain {domain!r}")
    p = int(tag[1])
    if not _is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    return p


def mod_domain(p: int) -> str:
    if not isinstance(p, int):
        raise ValueError(f"modulus must be an integer, got {p!r}")
    if not _is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    return f"mod:{p}"


def parse_rational(raw) -> Fraction:
    """``Fraction(raw)`` for input text or JSON numbers.  A zero denominator
    such as ``"1/0"`` raises ``ValueError``; text that spells no rational,
    NaN, infinity, or a value that is no number, such as a list, raises
    ``TypeError``, for the caller to name the field or flag it came from."""
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {raw!r}") from None
    except (ValueError, OverflowError):
        raise TypeError(f"not a rational number: {raw!r}") from None


def _listed(seq, what: str):
    """``seq`` itself if it is a list or tuple; anything else, a string
    above all, which would be read one character at a time, raises
    ``ValueError`` with ``what`` and the value read."""
    if not isinstance(seq, (list, tuple)):
        raise ValueError(f"{what}, got {type(seq).__name__} {seq!r}")
    return seq


def _coerce_scalar(value, p: int | None):
    """Normalize a scalar into its domain; returns None for an exact zero."""
    v = Fraction(value)
    if p is None:
        return v if v else None
    if v.denominator != 1:
        raise ValueError(f"mod-{p} entries must be integers, got {v}")
    residue = v.numerator % p
    return residue if residue else None


@dataclass(frozen=True)
class Support:
    """The set of index tuples at which a tensor is nonzero."""

    shape: tuple[int, ...]
    elements: frozenset[Index]
    _sorted: tuple[Index, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, shape: Sequence[int], elements: Iterable[Sequence[int]]):
        shp = _check_shape(shape)
        elems = frozenset(_check_index(e, shp) for e in elements)
        object.__setattr__(self, "shape", shp)
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_sorted", tuple(sorted(elems)))

    @property
    def order(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.sorted_elements)

    def __contains__(self, idx) -> bool:
        return tuple(idx) in self.elements

    @property
    def sorted_elements(self) -> tuple[Index, ...]:
        """Elements in lexicographic order; the canonical iteration order."""
        return self._sorted

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "elements": [list(e) for e in self.sorted_elements],
        }

    @staticmethod
    def from_json(data: Mapping) -> "Support":
        elements = _listed(data["elements"], "'elements' must be a list")
        for item in elements:
            _listed(item, "each item of 'elements' must be an index list")
        return Support(_listed(data["shape"], "'shape' must be a list"), elements)


@dataclass(frozen=True)
class SparseTensor:
    """Sparse tensor over an exact scalar domain.

    Entries map index tuples to nonzero scalars: ``Fraction`` values in the
    rational domain, integers in ``1..p-1`` in the mod-p domain.  Zero values
    are dropped on construction, so the zero tensor has an empty entry map.
    """

    shape: tuple[int, ...]
    domain: str
    entries: Mapping[Index, Fraction | int]

    def __init__(self, shape: Sequence[int], entries: Mapping, domain: str = RATIONAL):
        shp = _check_shape(shape)
        p = modulus_of(domain)
        clean: dict[Index, Fraction | int] = {}
        for idx, raw in entries.items():
            coords = _check_index(idx, shp)
            val = _coerce_scalar(raw, p)
            if val is not None:
                clean[coords] = val
        object.__setattr__(self, "shape", shp)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "entries", clean)

    @property
    def order(self) -> int:
        return len(self.shape)

    def is_zero(self) -> bool:
        return not self.entries

    def __getitem__(self, idx) -> Fraction | int:
        coords = _check_index(idx, self.shape)
        zero = Fraction(0) if self.domain == RATIONAL else 0
        return self.entries.get(coords, zero)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "domain": self.domain,
            "entries": [
                {"idx": list(idx), "val": str(self.entries[idx])}
                for idx in sorted(self.entries)
            ],
        }

    @staticmethod
    def from_json(data: Mapping) -> "SparseTensor":
        domain = data.get("domain", RATIONAL)
        p = modulus_of(domain)
        entries = {}
        for item in _listed(data["entries"], "'entries' must be a list"):
            if not (isinstance(item, dict) and "idx" in item and "val" in item):
                raise ValueError(
                    f"each item of 'entries' must be an object with 'idx' and 'val', got {item!r}"
                )
            raw = item["val"]
            try:
                val = parse_rational(raw)
            except TypeError:
                raise TypeError(f"each 'val' must be a rational number, got {raw!r}") from None
            _coerce_scalar(val, p)  # names a bad value even where its index repeats
            idx = tuple(_listed(item["idx"], "each 'idx' must be a list of coordinates"))
            if idx in entries:
                raise ValueError(f"index {list(idx)} is listed twice")
            entries[idx] = val
        return SparseTensor(_listed(data["shape"], "'shape' must be a list"), entries, domain)


def support_of(v: SparseTensor) -> Support:
    """Index tuples of the nonzero entries of ``v``."""
    return Support(v.shape, v.entries.keys())


def _require_same_domain(v: SparseTensor, w: SparseTensor) -> None:
    if v.domain != w.domain:
        raise ValueError(f"scalar domain mismatch: {v.domain} vs {w.domain}")


def _require_same_order(v: SparseTensor, w: SparseTensor) -> None:
    if v.order != w.order:
        raise ValueError(f"tensor order mismatch: {v.order} vs {w.order}")


def boxplus(v: SparseTensor, w: SparseTensor) -> SparseTensor:
    """Block direct sum: dimensions add per mode, ``v`` in the low block."""
    _require_same_order(v, w)
    _require_same_domain(v, w)
    shape = tuple(a + b for a, b in zip(v.shape, w.shape))
    entries: dict[Index, Fraction | int] = dict(v.entries)
    for idx, val in w.entries.items():
        entries[tuple(a + n for a, n in zip(idx, v.shape))] = val
    return SparseTensor(shape, entries, v.domain)


def boxtimes(v: SparseTensor, w: SparseTensor) -> SparseTensor:
    """Kronecker product per mode: dimensions multiply, entries multiply.

    The paired index in mode ``i`` is ``a_i * w.shape[i] + b_i``.
    """
    _require_same_order(v, w)
    _require_same_domain(v, w)
    p = modulus_of(v.domain)
    shape = tuple(a * b for a, b in zip(v.shape, w.shape))
    entries: dict[Index, Fraction | int] = {}
    for ia, va in v.entries.items():
        for ib, vb in w.entries.items():
            idx = tuple(a * n + b for a, b, n in zip(ia, ib, w.shape))
            prod = va * vb if p is None else (va * vb) % p
            entries[idx] = prod
    return SparseTensor(shape, entries, v.domain)


def outer(v: SparseTensor, w: SparseTensor) -> SparseTensor:
    """Concatenation product: an order d tensor times an order e tensor
    gives an order d+e tensor with entries multiplied."""
    _require_same_domain(v, w)
    p = modulus_of(v.domain)
    shape = v.shape + w.shape
    entries: dict[Index, Fraction | int] = {}
    for ia, va in v.entries.items():
        for ib, vb in w.entries.items():
            prod = va * vb if p is None else (va * vb) % p
            entries[ia + ib] = prod
    return SparseTensor(shape, entries, v.domain)


def _integer_matrix(mat, width: int, p: int | None, axis: int):
    """The checks on the matrix for mode ``axis``, and that matrix over one
    denominator: its integer numerators and the denominator.  Over F_p the
    denominator must be 1."""
    if len(mat) < 1:
        raise ValueError(f"matrix for mode {axis} has no rows")
    if any(len(row) != width for row in mat):
        raise ValueError(f"matrix for mode {axis} has wrong column count")
    rows = [[Fraction(x) for x in row] for row in mat]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    if p is not None and den != 1:
        raise ValueError(f"mod-{p} matrix entries must be integers")
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _transform_ints(entries: Mapping[Index, int], mats, p: int | None) -> dict[Index, int]:
    """The kernel of :func:`mode_transform`, on ints and unchecked.

    ``entries`` maps indices to nonzero ints and ``mats[i]`` is a nonempty
    rectangular int matrix with one column per slice of mode i.  Returns the
    nonzero entries of the transformed tensor; over F_p (``p`` not None)
    each mode's sums are reduced mod p.
    """
    for axis, mat in enumerate(mats):
        columns = [[(r, row[c]) for r, row in enumerate(mat) if row[c]] for c in range(len(mat[0]))]
        acc: dict[Index, int] = {}
        for idx, val in entries.items():
            head, tail = idx[:axis], idx[axis + 1 :]
            for r, coeff in columns[idx[axis]]:
                key = head + (r,) + tail
                acc[key] = acc.get(key, 0) + coeff * val
        if p is None:
            entries = {k: x for k, x in acc.items() if x}
        else:
            entries = {k: r for k, x in acc.items() if (r := x % p)}
    return entries


def mode_transform(v: SparseTensor, mats: Sequence[Sequence[Sequence]]) -> SparseTensor:
    """Apply one matrix per mode to a sparse tensor, exactly.

    ``mats[i]`` has ``v.shape[i]`` columns and at least one row; the
    result's mode-i dimension is the row count of ``mats[i]``.  Scalars must
    lie in the tensor's domain: rationals (a float is taken at its exact
    value), or integers on a mod-p tensor.  The inputs are checked and put
    on integers, the entries over one denominator and each matrix over its
    own; one integer kernel then applies the matrices, reducing each mode's
    sums mod p over F_p, and the rational result is divided by the product
    of the denominators.  The result is built by the :class:`SparseTensor`
    constructor, whose checks it passes like any other tensor.
    """
    if len(mats) != v.order:
        raise ValueError("need exactly one matrix per mode")
    p = modulus_of(v.domain)
    if p is None:
        den = math.lcm(*(x.denominator for x in v.entries.values()))
        entries = {k: x.numerator * (den // x.denominator) for k, x in v.entries.items()}
    else:
        den = 1
        entries = v.entries  # only read; the kernel builds new dicts
    nums = []
    for axis, mat in enumerate(mats):
        num, mat_den = _integer_matrix(mat, v.shape[axis], p, axis)
        nums.append(num)
        den *= mat_den
    entries = _transform_ints(entries, nums, p)
    if p is None:
        entries = {k: Fraction(x, den) for k, x in entries.items()}
    return SparseTensor(tuple(len(mat) for mat in mats), entries, v.domain)


def as_weight(alpha, order: int) -> Weight:
    """Validate a per-mode weight vector of positive rationals; ``None`` is
    the all-ones weight."""
    if alpha is None:
        return ones_weight(order)
    w = tuple(Fraction(a) for a in alpha)
    if len(w) != order:
        raise ValueError(f"weight has length {len(w)}, tensor order is {order}")
    if any(a <= 0 for a in w):
        raise ValueError("all weight entries must be positive")
    return w


def ones_weight(order: int) -> Weight:
    return (Fraction(1),) * order


def psg_slope(x: Sequence[Sequence[int]], support: Support, alpha) -> Fraction:
    """Slope of a diagonal one-parameter subgroup against a support.

    ``x[i][j]`` is the nonnegative exponent assigned to slice j of mode i.
    The slope is the alpha-weighted total exponent divided by the minimum
    exponent sum over the support, which must be positive.
    """
    if not support.elements:
        raise ValueError("zero tensor has no slope")
    d = support.order
    w = as_weight(alpha, d)
    try:
        rows = len(x)
    except TypeError:
        raise TypeError(f"exponent table must be a list of rows, got {x!r}") from None
    if rows != d:
        raise ValueError("exponent table must have one row per mode")
    for i, row in enumerate(x):
        try:
            length = len(row)
        except TypeError:
            raise TypeError(f"exponent row {i} must be a list of integers, got {row!r}") from None
        if length != support.shape[i]:
            raise ValueError(f"exponent row {i} has wrong length")
        try:
            bad = any(int(e) != e or e < 0 for e in row)
        except (TypeError, ValueError, OverflowError):
            raise TypeError(f"exponent row {i} must hold integers, got {list(row)}") from None
        if bad:
            raise ValueError("exponents must be nonnegative integers")
    x = [[int(e) for e in row] for row in x]  # 1.0 counts as 1
    numerator = sum((w[i] * sum(x[i]) for i in range(d)), Fraction(0))
    denominator = min(sum(x[i][s[i]] for i in range(d)) for s in support.elements)
    if denominator <= 0:
        raise ValueError("subgroup action does not vanish as t -> 0")
    return Fraction(numerator, denominator)

