"""Shared corpus helpers for the test suite."""

import itertools
import random
from fractions import Fraction

import pytest

from stablerank import SparseTensor, Support, modulus_of
from stablerank import lp as lp_module
from stablerank import ranks


@pytest.fixture(autouse=True)
def _cold_root_memo():
    """Start every test with the one-entry memo of ``ranks._root`` empty,
    so a test that patches the pivot loop or the certificate check reaches
    them even when the test before it solved the same support."""
    ranks._last_root = None


def count_simplex(monkeypatch) -> list:
    """Record each program that ``solve`` pivots; returns that list."""
    runs = []
    real = lp_module._run_simplex
    monkeypatch.setattr(lp_module, "_run_simplex", lambda lp: runs.append(lp) or real(lp))
    return runs


def random_support(rng: random.Random, order=None, max_dim=4, max_elems=15) -> Support:
    """Nonempty random support with the acceptance-corpus parameters."""
    d = order if order is not None else rng.choice((3, 4, 5))
    shape = tuple(rng.randint(1, max_dim) for _ in range(d))
    universe = list(itertools.product(*[range(n) for n in shape]))
    k = rng.randint(1, min(max_elems, len(universe)))
    return Support(shape, rng.sample(universe, k))


def indicator_tensor(support: Support) -> SparseTensor:
    """Rational tensor with entry 1 at every support element."""
    return SparseTensor(support.shape, {e: 1 for e in support.elements})


def exhaustive_min_cover(support: Support) -> int:
    """0/1 oracle: try all slice subsets, smallest covering size wins."""
    slots = [(i, j) for i in range(support.order) for j in range(support.shape[i])]
    best = len(slots)
    for mask in range(1 << len(slots)):
        if mask.bit_count() >= best:
            continue
        chosen = {slots[b] for b in range(len(slots)) if mask >> b & 1}
        if all(
            any((i, e[i]) in chosen for i in range(support.order))
            for e in support.elements
        ):
            best = len(chosen)
    return best


def fraction_mode_transform(v, mats):
    """Reference ``mode_transform``: the Fraction implementation it replaced.
    It shares no transform code with the package."""
    if len(mats) != v.order:
        raise ValueError("need exactly one matrix per mode")
    p = modulus_of(v.domain)
    entries = dict(v.entries)
    shape = list(v.shape)
    for axis, mat in enumerate(mats):
        rows = len(mat)
        if any(len(r) != shape[axis] for r in mat):
            raise ValueError(f"matrix for mode {axis} has wrong column count")
        acc = {}
        for idx, val in entries.items():
            col = idx[axis]
            for r in range(rows):
                coeff = mat[r][col]
                if not coeff:
                    continue
                new_idx = idx[:axis] + (r,) + idx[axis + 1 :]
                term = coeff * val
                cur = acc.get(new_idx)
                acc[new_idx] = term if cur is None else cur + term
        if p is None:
            entries = {k: Fraction(x) for k, x in acc.items() if x}
        else:
            entries = {k: x % p for k, x in acc.items() if x % p}
        shape[axis] = rows
    return SparseTensor(tuple(shape), entries, v.domain)
