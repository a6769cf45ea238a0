"""Write ``tests/data/lp_vertices.json``, the golden vertices of a seeded LP corpus.

Run from the repository root::

    PYTHONPATH=src python tests/make_lp_vertices.py

Each case stores the LP data and the ``to_json()`` of its one ``solve``,
so ``test_lp_vertices.py`` pins the exact vertex (``x`` and ``y``), not just
the optimal value.  The corpus has three families:

- ``small``: 600 small LPs with fractional and negative data, some
  infeasible or unbounded, which are pivoted directly;
- ``tall``: about 150 LPs with more than ``2 * cols + 8`` rows, which take
  the dual route (or fall back from it when the dual is not optimal);
- ``capset``: the full collapsed cap-set LPs for n = 1..12, every row
  included, not only the binding rows that ``capset.reduced_lp`` solves.

The pins were first recorded with the solver that predates the integer-row
kernel, and this script rewrites them unchanged, so the test also shows that
the kernel pivots to the same vertices.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from stablerank.capset import trinomial
from stablerank.lp import LinearProgram, solve

OUT = Path(__file__).parent / "data" / "lp_vertices.json"
SEED = 20200219
SMALL = 600
TALL = 150
CAPSET_N = 12


def _rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 1, 2, 3, 4)))


def _sparse_row(rng: random.Random, cols: int, lo: int, hi: int, density: float):
    row = [(j, _rational(rng, lo, hi)) for j in range(cols) if rng.random() < density]
    return [(j, a) for j, a in row if a]


def small_lp(rng: random.Random) -> LinearProgram:
    cols = rng.randint(1, 5)
    rows = rng.randint(1, 6)
    objective = [_rational(rng, -1, 6) for _ in range(cols)]
    matrix = [_sparse_row(rng, cols, -2, 5, 0.7) for _ in range(rows)]
    rhs = [_rational(rng, -3, 3) for _ in range(rows)]
    return LinearProgram(objective, matrix, rhs)


def tall_lp(rng: random.Random) -> LinearProgram:
    cols = rng.randint(2, 5)
    rows = 2 * cols + 9 + rng.randint(0, 12)
    # Mostly covering-type data, so most duals are optimal; a few negative
    # entries and costs leave some duals unbounded or infeasible, which
    # exercises the fall-back to the direct solve.
    neg = rng.random() < 0.3
    objective = [_rational(rng, -1 if neg else 1, 5) for _ in range(cols)]
    matrix = []
    for _ in range(rows):
        row = _sparse_row(rng, cols, -1 if neg else 0, 4, 0.6)
        if not any(a > 0 for _, a in row):
            k = rng.randrange(cols)
            row = sorted([(j, a) for j, a in row if j != k] + [(k, Fraction(1))])
        matrix.append(row)
    rhs = [_rational(rng, -1 if neg else 0, 3) for _ in range(rows)]
    return LinearProgram(objective, matrix, rhs)


def capset_lp(n: int) -> LinearProgram:
    """The full collapsed cap-set LP: one row ``t_i + t_j + t_k >= 1`` per
    triple ``i <= j <= k`` with ``i + j + k <= 2n``, in lexicographic order."""
    f = trinomial(n)
    objective = [3 * f[i] for i in range(2 * n + 1)]
    top = 2 * n
    rows = [
        sorted(Counter((i, j, k)).items())
        for i in range(top // 3 + 1)
        for j in range(i, (top - i) // 2 + 1)
        for k in range(j, top - i - j + 1)
    ]
    return LinearProgram(objective, rows, [1] * len(rows))


def lp_to_json(lp: LinearProgram) -> dict:
    """The caller's rationals of ``lp``, as strings: each stored integer
    over ``lp.den``."""

    def q(v: int) -> str:
        return str(Fraction(v, lp.den))

    return {
        "objective": [q(c) for c in lp.objective],
        "rows": [[[j, q(a)] for j, a in row] for row in lp.rows],
        "rhs": [q(b) for b in lp.rhs],
    }


def case(name: str, lp: LinearProgram) -> dict:
    return {"name": name, **lp_to_json(lp), "solve": solve(lp).to_json()}


def main() -> None:
    rng = random.Random(SEED)
    cases = [case(f"small-{k}", small_lp(rng)) for k in range(SMALL)]
    cases += [case(f"tall-{k}", tall_lp(rng)) for k in range(TALL)]
    cases += [case(f"capset-{n}", capset_lp(n)) for n in range(1, CAPSET_N + 1)]
    lines = ",\n".join(json.dumps(c, separators=(",", ":")) for c in cases)
    OUT.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
    statuses: dict[str, int] = {}
    for c in cases:
        statuses[c["solve"]["status"]] = statuses.get(c["solve"]["status"], 0) + 1
    print(f"wrote {len(cases)} cases to {OUT}: {statuses}")


if __name__ == "__main__":
    main()
