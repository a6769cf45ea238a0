"""Differential test of the mod-p kernels against the ones they replaced.

``old_fp_kernels.py`` keeps the earlier ``_echelon_mod_p`` and
``_annihilator_mod_p`` verbatim.  The current echelon form reduces the
vectors in the pass that drops the zero ones, finds each pivot with a plain
loop, and the back substitution takes one inverse per pivot and mapped dot
products; none of that may move a pivot, so both must return the same
pivots, echelon rows and annihilator bases on every input below.
"""

import random

import old_fp_kernels

from stablerank import ranks


def _vectors(rng: random.Random, p: int) -> tuple[list[list[int]], int]:
    """0-9 vectors of width 1-9 with entries in [0, p), the domain the
    package passes; entries are often 0 or 1, so ranks often fall short,
    and a zero vector, a repeated vector or a combination of two is often
    added."""
    width, count = rng.randint(1, 9), rng.randint(0, 9)
    small = rng.random() < 0.5
    vectors = [[rng.randrange(min(p, 2) if small else p) for _ in range(width)] for _ in range(count)]
    if vectors and rng.random() < 0.3:
        vectors.insert(rng.randrange(len(vectors) + 1), [0] * width)
    if vectors and rng.random() < 0.3:
        vectors.insert(rng.randrange(len(vectors) + 1), list(rng.choice(vectors)))
    if len(vectors) > 1 and rng.random() < 0.3:
        u, v = rng.sample(vectors, 2)
        c = rng.randrange(1, p)
        vectors.append([(a + c * b) % p for a, b in zip(u, v)])
    return vectors, width


def test_kernels_match_the_old_ones():
    rng = random.Random(20_261_022)
    seen = dict.fromkeys(("empty", "zero", "repeated", "deficient", "full"), 0)
    for _ in range(2500):
        p = rng.choice((2, 3, 5, 7, 101))
        vectors, width = _vectors(rng, p)
        pivots, rows = ranks._echelon_mod_p(vectors, p)
        assert (pivots, rows) == old_fp_kernels._echelon_mod_p(vectors, p), (vectors, p)
        got = ranks._annihilator_mod_p(vectors, p, width)
        assert got == old_fp_kernels._annihilator_mod_p(vectors, p, width), (vectors, p)
        seen["empty"] += not vectors
        seen["zero"] += [0] * width in vectors
        seen["repeated"] += len({tuple(v) for v in vectors}) < len(vectors)
        seen["deficient" if len(pivots) < min(len(vectors), width) else "full"] += 1
    assert min(seen.values()) >= 50, seen
