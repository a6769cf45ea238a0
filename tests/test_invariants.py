"""Cross-quantity invariants: inequalities that tie the package's exact
quantities together, checked on seeded random supports, rational tensors
and matrix tuples."""

import itertools
import math
import random
from fractions import Fraction as F

from conftest import random_support

from stablerank import (
    MatrixTuple,
    SparseTensor,
    boxtimes,
    dual_trank,
    grank_upper_search,
    ncrk_bruteforce,
    ncrk_via_grank,
    psg_slope,
    ranks,
    support_of,
    trank,
    tslice,
)
from stablerank.capset import base_tensor


def _weight(rng, order):
    """All ones a third of the time, else random positive rationals."""
    if rng.random() < 1 / 3:
        return None
    return tuple(F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(order))


def _exponents(rng, support):
    """A random exponent table whose minimum sum over the support is
    positive: a table with a zero sum gets 1 added on mode 0."""
    x = [[rng.randint(0, 3) for _ in range(n)] for n in support.shape]
    if min(sum(x[i][e[i]] for i in range(support.order)) for e in support.elements) == 0:
        x[0] = [e + 1 for e in x[0]]
    return x


def _rational_tensor(rng):
    shape = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
    cells = list(itertools.product(*[range(n) for n in shape]))
    picked = rng.sample(cells, rng.randint(1, min(6, len(cells))))
    values = [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for _ in picked]
    return SparseTensor(shape, dict(zip(picked, values)))


def _matrix_tuple(rng):
    rows, cols, p = rng.randint(1, 3), rng.randint(1, 3), rng.choice((2, 3))
    count = rng.randint(1, 3)
    return MatrixTuple(
        [[[rng.randrange(p) for _ in range(cols)] for _ in range(rows)] for _ in range(count)], p
    )


def test_exact_invariants_hold():
    """``trank == dual_trank``, ``ceil(trank) <= tslice`` (unit weights;
    strict at least once, on the n = 2 cap-set support), ``psg_slope >=
    trank``, ``grank_upper_search <= trank`` and ``_ncrk_lower_bound <=
    ncrk_bruteforce <= ncrk_via_grank``.
    (``grank``'s lower bound is not yet always below its upper bound, so
    it is left out.)"""
    rng = random.Random(200208435)
    strict = 0  # supports with ceil(trank) < tslice
    for _ in range(400):
        support = random_support(rng, order=rng.choice((2, 3, 4)), max_dim=3, max_elems=8)
        alpha = _weight(rng, support.order)
        t = trank(support, alpha).value
        assert dual_trank(support, alpha).value == t, support
        assert psg_slope(_exponents(rng, support), support, alpha) >= t, support
        if alpha is None:
            s = tslice(support).value
            assert math.ceil(t) <= s, support
            strict += math.ceil(t) < s
    # The cap-set supports for n = 1 and 2; at n = 2, trank is 6 and tslice 7.
    for support in (support_of(base_tensor()), support_of(boxtimes(base_tensor(), base_tensor()))):
        t = trank(support).value
        assert dual_trank(support).value == t, support
        s = tslice(support).value
        assert math.ceil(t) <= s, support
        strict += math.ceil(t) < s
    assert strict  # a check that never holds strictly sees only a broken equality
    for _ in range(200):
        v = _rational_tensor(rng)
        alpha = _weight(rng, v.order)
        bound = grank_upper_search(v, alpha, budget=rng.randint(1, 12), seed=rng.randrange(100))
        assert bound <= trank(support_of(v), alpha).value, v
    for _ in range(120):
        mats = _matrix_tuple(rng)
        upper = ncrk_via_grank(mats, budget=rng.randint(1, 24), seed=rng.randrange(100))
        assert ranks._ncrk_lower_bound(mats) <= ncrk_bruteforce(mats) <= upper, mats
