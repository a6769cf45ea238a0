"""The four benchmark workloads: seeded inputs, one pass, output checks.

Each workload turns a seed into a list of inputs, runs the package on all of
them in one pass, and checks every output independently of the package.  The
package functions are looked up on their modules at call time, so the spans
that ``tracing.install`` puts there see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import random
from fractions import Fraction
from pathlib import Path

GOLDEN_CSV = Path("tests") / "data" / "capset_table_20.csv"


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


class Workload:
    name = ""
    # Imported before the inputs are built, so the import counts as set-up.
    modules = ("stablerank",)
    # A workload whose pass must start cold runs one pass per process.
    fresh_process = False

    def inputs(self, seed: int, quick: bool, root: Path) -> list:
        raise NotImplementedError

    def solve(self, item):
        raise NotImplementedError

    def run(self, items: list, begin) -> list:
        """One pass; an input whose call raised maps to the exception."""
        outputs = []
        for k, item in enumerate(items):
            begin(k)
            try:
                outputs.append(self.solve(item))
            except Exception as exc:  # counted as a failed input
                outputs.append(exc)
        return outputs

    def check(self, item, output) -> bool:
        raise NotImplementedError

    def canonical(self, output):
        """A JSON value that equals between two runs with equal results."""
        raise NotImplementedError

    def corrupt(self, output):
        """A wrong output, used to show that the checks catch one."""
        raise NotImplementedError


class CapsetTable(Workload):
    """``stablerank capset --table 20 --format csv`` against the golden file."""

    name = "capset-table"
    modules = ("stablerank", "stablerank.cli")
    fresh_process = True

    def inputs(self, seed, quick, root):
        # The table does not depend on the seed; the golden file is the input.
        n = 6 if quick else 20
        golden = (root / GOLDEN_CSV).read_bytes().decode().splitlines(keepends=True)
        self.header = golden[0]
        return golden[1 : n + 1]

    def run(self, items, begin):
        from stablerank import cli

        begin("table")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["capset", "--table", str(len(items)), "--format", "csv"])
        lines = buf.getvalue().splitlines(keepends=True)
        if code != 0 or lines[:1] != [self.header] or len(lines) != len(items) + 1:
            error = RuntimeError(f"exit code {code}, {len(lines)} lines, header {lines[:1]!r}")
            return [error] * len(items)
        return lines[1:]

    def check(self, item, output):
        return output == item

    def canonical(self, output):
        return output

    def corrupt(self, output):
        return output.replace(",", ",9", 1)


def random_support(rng: random.Random):
    """A support drawn like the acceptance corpus: order 3-5, dimensions
    at most 4, at most 15 elements."""
    from stablerank.tensors import Support

    d = rng.choice((3, 4, 5))
    shape = tuple(rng.randint(1, 4) for _ in range(d))
    universe = list(itertools.product(*[range(n) for n in shape]))
    k = rng.randint(1, min(15, len(universe)))
    return Support(shape, rng.sample(universe, k))


class SupportCorpus(Workload):
    """``trank`` and ``tslice`` on the 200-support acceptance corpus.

    The seed only shuffles the order.  A freshly drawn corpus, or even one
    with each support's slices relabelled, moves a pass's cost more than a
    run can average out, through a few costly branch-and-bound runs.
    """

    name = "support-corpus"
    CORPUS_SEED = 20240814

    def inputs(self, seed, quick, root):
        corpus_rng = random.Random(self.CORPUS_SEED)
        items = [random_support(corpus_rng) for _ in range(20 if quick else 200)]
        random.Random(seed).shuffle(items)
        return items

    def solve(self, item):
        from stablerank import ranks

        return ranks.trank(item), ranks.tslice(item)

    def check(self, item, output):
        rank, cover = output
        return _certificate_ok(item, rank) and _cover_ok(item, rank.value, cover)

    def canonical(self, output):
        rank, cover = output
        return [str(rank.value), cover.value]

    def corrupt(self, output):
        rank, cover = output
        return rank, dataclasses.replace(cover, value=cover.value + 1)


def _certificate_ok(support, rank) -> bool:
    """Exact primal-dual check of a unit-weight covering LP solution."""
    elements = support.sorted_elements
    primal, dual = rank.primal, rank.dual
    if [len(p) for p in primal] != list(support.shape) or set(dual) != set(elements):
        return False
    if any(v < 0 for mode in primal for v in mode) or any(v < 0 for v in dual.values()):
        return False
    if any(sum(primal[i][e[i]] for i in range(support.order)) < 1 for e in elements):
        return False
    for i, n in enumerate(support.shape):
        loads = [Fraction(0)] * n
        for e in elements:
            loads[e[i]] += dual[e]
        if any(load > 1 for load in loads):
            return False
    primal_value = sum(v for mode in primal for v in mode)
    return rank.certificate_ok and primal_value == sum(dual.values()) == rank.value


def _cover_ok(support, rank_value: Fraction, cover) -> bool:
    chosen = cover.chosen
    if any(not (0 <= i < support.order and 0 <= j < support.shape[i]) for i, j in chosen):
        return False
    covered = all(
        any((i, e[i]) in chosen for i in range(support.order)) for e in support.elements
    )
    return covered and cover.value == len(chosen) and _ceil(rank_value) <= cover.value


class GrankAscent(Workload):
    """``sandwich(v, budget=8, seed=<seed>)`` on five rational tensors.

    The tensors are a fixed corpus and the seed is the basis-search seed.
    On freshly drawn dense tensors the ascent's cost varies severalfold,
    because ``spectral_norm`` iterates up to 2000 times on nearly degenerate
    spectra, and a run cannot average that out.
    """

    name = "grank-ascent"
    CORPUS_SEED = 0
    # (label, shape, density); the W-state is fixed, the rest are drawn.
    SHAPES = [
        ("333-d0.6", (3, 3, 3), 0.6),
        ("444-dense", (4, 4, 4), 1.0),
        ("555-dense", (5, 5, 5), 1.0),
        ("3333-d0.5", (3, 3, 3, 3), 0.5),
    ]

    def inputs(self, seed, quick, root):
        from stablerank.tensors import SparseTensor

        rng = random.Random(self.CORPUS_SEED)
        w_state = SparseTensor((2, 2, 2), {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
        items = [("w-state", w_state, seed)]
        for label, shape, density in self.SHAPES[: 1 if quick else None]:
            entries = {}
            for idx in itertools.product(*[range(n) for n in shape]):
                if rng.random() < density:
                    entries[idx] = rng.choice((-2, -1, 1, 2))
            items.append((label, SparseTensor(shape, entries), seed))
        return items

    def solve(self, item):
        from stablerank import complexrank

        label, tensor, seed = item
        return complexrank.sandwich(tensor, budget=8, seed=seed)

    def check(self, item, output):
        ok = output.lower <= output.upper + 1e-6
        if item[0] == "w-state":
            ok = ok and output.upper == Fraction(3, 2) and abs(output.lower - 1.5) <= 1e-6
        return ok

    def canonical(self, output):
        return [f"{output.lower:.12g}", str(output.upper)]

    def corrupt(self, output):
        return dataclasses.replace(output, upper=Fraction(-1))


class NcrkSearch(Workload):
    """``ncrk --mode both --budget 200`` on the first 12 acceptance tuples.

    The tuples come from the acceptance generator (F_2, size 2-3, 1-3
    matrices, seed 4242); the seed picks the search seeds, ``12 * seed + k``
    for tuple k, so seed 0 repeats the acceptance run.  Freshly drawn tuples
    would move a pass's cost more than a run can average out.
    """

    name = "ncrk-search"
    CORPUS_SEED = 4242

    def inputs(self, seed, quick, root):
        from stablerank.ranks import MatrixTuple

        corpus_rng = random.Random(self.CORPUS_SEED)
        items = []
        for k in range(3 if quick else 12):
            size, count = corpus_rng.choice((2, 3)), corpus_rng.randint(1, 3)
            mats = [
                [[corpus_rng.randrange(2) for _ in range(size)] for _ in range(size)]
                for _ in range(count)
            ]
            items.append((MatrixTuple(mats, 2), 12 * seed + k))
        return items

    def solve(self, item):
        from stablerank import ranks

        mats, seed = item
        return ranks.ncrk_bruteforce(mats), ranks.ncrk_via_grank(mats, budget=200, seed=seed)

    def check(self, item, output):
        brute, search = output
        return isinstance(brute, int) and brute == search

    def canonical(self, output):
        return list(output)

    def corrupt(self, output):
        return output[0], output[1] + 1


WORKLOADS = {w.name: w for w in (CapsetTable(), SupportCorpus(), GrankAscent(), NcrkSearch())}
