"""Write ``tests/data/search_golden.json``, golden outputs of the basis-change search.

Run from the repository root::

    PYTHONPATH=src python tests/make_search_golden.py

The file pins the outputs of the seeded search and of brute force, so a
change that makes either cheaper can show its printed values are the
same.  It pins outputs, not draws: where its certified bounds meet,
``ncrk_via_grank`` returns before it draws anything.  The check
that a stopped search agrees with the full one, sample stream and all, is
``tests/test_ranks.py::TestNcrkEarlyStop::test_matches_the_full_search``.
It has three parts:

- ``ncrk``: the CSV stdout of ``stablerank ncrk --mode search`` on the first
  12 acceptance tuples (F_2, generator seed 4242) at ``--seed`` 0, 1 and 2;
- ``ncrk_modes``: the exit code and CSV stdout of ``--mode brute`` and
  ``--mode both`` on the same 12 tuples and on 6 seeded tuples over F_101
  of 2 x 2 or 3 x 3 matrices of rank 1 or 2, where the largest rank is
  below the number of columns and brute force has subspaces to enumerate;
- ``grank``: ``grank_upper_search`` values, as strings, on 24 seeded
  low-rank tensors of order 2-4 and dimensions 2-3, half rational and
  half over F_p, with and without random rational weights, at budgets
  8-64.  Their dense supports give the search something to find.

``test_search_golden.py`` recomputes each output and compares the strings.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from stablerank import SparseTensor, cli, grank_upper_search, mod_domain

OUT = Path(__file__).parent / "data" / "search_golden.json"
TUPLE_SEED = 4242
TENSOR_SEED = 20201013
F101_SEED = 101
SEARCH_SEEDS = (0, 1, 2)
MODULI = (2, 3, 5, 7, 2**61 - 1)


def acceptance_tuples() -> list[dict]:
    """The first 12 tuples of the acceptance generator, as ``ncrk`` input."""
    rng = random.Random(TUPLE_SEED)
    tuples = []
    for _ in range(12):
        size, count = rng.choice((2, 3)), rng.randint(1, 3)
        mats = [[[rng.randrange(2) for _ in range(size)] for _ in range(size)] for _ in range(count)]
        tuples.append({"modulus": 2, "matrices": mats})
    return tuples


def low_rank_f101_tuples() -> list[dict]:
    """Tuples over F_101 of 1-3 products U V, U of size x r and V of
    r x size, with size 2 or 3 and 1 <= r < size."""
    rng = random.Random(F101_SEED)
    tuples = []
    for _ in range(6):
        size, count = rng.choice((2, 3)), rng.randint(1, 3)
        r = rng.randint(1, size - 1)
        mats = []
        for _ in range(count):
            u = [[rng.randrange(101) for _ in range(r)] for _ in range(size)]
            v = [[rng.randrange(101) for _ in range(size)] for _ in range(r)]
            mats.append([[sum(u[i][k] * v[k][j] for k in range(r)) % 101 for j in range(size)]
                         for i in range(size)])
        tuples.append({"modulus": 101, "matrices": mats})
    return tuples


def run_ncrk(data: dict, *flags: str) -> tuple[int, str]:
    """The exit code and stdout of ``stablerank ncrk`` on ``data`` in CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tuple.json"
        path.write_text(json.dumps(data))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["ncrk", str(path), "--format", "csv", *flags])
    return code, out.getvalue()


def ncrk_csv(data: dict, seed: int) -> str:
    code, out = run_ncrk(data, "--mode", "search", "--seed", str(seed))
    if code != 0:
        raise RuntimeError(f"ncrk exited {code} on {data}")
    return out


def random_tensor(rng: random.Random, p: int | None) -> SparseTensor:
    """A sum of one or two dense rank-one tensors: the identity sees every
    entry, while a basis change that aligns the factors shrinks the
    support, so the value depends on which samples the search draws."""
    shape = tuple(rng.randint(2, 3) for _ in range(rng.choice((2, 3, 3, 4))))
    entries: dict[tuple[int, ...], int] = {}
    for _ in range(rng.choice((1, 1, 2))):
        vecs = [[rng.choice((-1, 1, 2)) if p is None else rng.randrange(1, p) for _ in range(n)]
                for n in shape]
        for idx in itertools.product(*[range(n) for n in shape]):
            entries[idx] = entries.get(idx, 0) + math.prod(vec[i] for vec, i in zip(vecs, idx))
    return SparseTensor(shape, entries, "rational" if p is None else mod_domain(p))


def grank_case(rng: random.Random, p: int | None) -> dict:
    v = random_tensor(rng, p)
    alpha = None
    if rng.random() < 0.5:
        alpha = [str(Fraction(rng.randint(1, 6), rng.randint(1, 4))) for _ in range(v.order)]
    budget, seed = rng.choice((8, 16, 32, 64)), rng.randrange(1000)
    value = grank_upper_search(v, alpha, budget=budget, seed=seed)
    return {"tensor": v.to_json(), "alpha": alpha, "budget": budget, "seed": seed, "value": str(value)}


def main() -> None:
    ncrk = [
        {**data, "seed": seed, "csv": ncrk_csv(data, seed)}
        for data in acceptance_tuples()
        for seed in SEARCH_SEEDS
    ]
    ncrk_modes = [
        {**data, "mode": mode, **dict(zip(("code", "csv"), run_ncrk(data, "--mode", mode)))}
        for data in acceptance_tuples() + low_rank_f101_tuples()
        for mode in ("brute", "both")
    ]
    rng = random.Random(TENSOR_SEED)
    grank = [grank_case(rng, None) for _ in range(12)]
    grank += [grank_case(rng, MODULI[k % len(MODULI)]) for k in range(12)]
    parts = [
        f'"{name}": [\n' + ",\n".join(json.dumps(c, separators=(",", ":")) for c in cases) + "\n]"
        for name, cases in (("ncrk", ncrk), ("ncrk_modes", ncrk_modes), ("grank", grank))
    ]
    OUT.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")
    lowered = sum(
        c["value"] != str(grank_upper_search(SparseTensor.from_json(c["tensor"]), c["alpha"], budget=1))
        for c in grank
    )
    print(f"wrote {len(ncrk)} ncrk, {len(ncrk_modes)} ncrk_modes and {len(grank)} grank cases to {OUT}; "
          f"the search lowers {lowered} grank values below the identity's")


if __name__ == "__main__":
    main()
