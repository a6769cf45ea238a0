"""Differential test of the pivot loop against the tableau it replaced.

``old_tableau.py`` keeps the earlier ``_run_simplex`` and ``_primitive``
verbatim.  The current kernel builds the phase-I row from the sparse stored
rows, makes a pivot row primitive only when its pivot entry is not 1, and
shares one ``Fraction(0)`` among the zero duals; none of that may move a
pivot, so both must return the same ``(status, x, y, value)``, entry types
included, on every program below.
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import old_tableau
from conftest import random_support

from stablerank import LinearProgram
from stablerank import lp as lp_module
from stablerank.ranks import build_lp

WEIGHTS = (F(1, 2), F(1), F(3, 4), F(2), F(1, 3))


def _covering_lps():
    """400 seeded random supports (order 3-5, dimensions at most 4, at most
    15 elements), each as a covering LP with unit weights and with a prefix
    of ``WEIGHTS``, whose denominators make ``den`` 4 or 12."""
    rng = random.Random(20_081_435)
    lps = []
    for _ in range(400):
        support = random_support(rng)
        lps.append(build_lp(support, None))
        lps.append(build_lp(support, WEIGHTS[: support.order]))
    return lps


def _vertex_lps():
    cases = json.loads((Path(__file__).parent / "data" / "lp_vertices.json").read_text())
    return [LinearProgram(c["objective"], c["rows"], c["rhs"]) for c in cases]


def _assert_same_runs(lps) -> set:
    """Assert that both kernels return the same run on each program, with
    ``Fraction`` entries; returns the statuses seen."""
    statuses = set()
    for lp in lps:
        old = old_tableau._run_simplex(lp)
        new = lp_module._run_simplex(lp)
        assert new == old, lp
        status, x, y, value = new
        assert all(type(v) is F for v in (*x, *y)), lp
        assert value is None or type(value) is F, lp
        statuses.add(status)
    return statuses


def test_covering_lps_match_the_old_tableau():
    lps = _covering_lps()
    assert len(lps) == 800
    assert {lp.den for lp in lps[1::2]} >= {4, 12}
    assert all(lp.den == 1 for lp in lps[::2])
    assert _assert_same_runs(lps) == {"optimal"}


def test_duals_of_covering_lps_match_the_old_tableau():
    duals = [lp_module.dual_program(lp) for lp in _covering_lps()]
    # Every dual row starts on its own surplus column: no phase I.
    assert all(b < 0 for lp in duals for b in lp.rhs)
    assert _assert_same_runs(duals) == {"optimal"}


def test_vertex_corpus_and_its_duals_match_the_old_tableau():
    """Every LP of ``lp_vertices.json`` and its dual, save the seven
    collapsed cap-set LPs of more than 100 rows (n = 6..12): pivoted as
    given they take about 6.5 s per kernel, and ``solve`` pivots each of
    them as its dual, which is in the set."""
    lps = _vertex_lps()
    assert len(lps) == 762
    given = [lp for lp in lps if lp.num_rows <= 100]
    assert len(given) == 755
    assert _assert_same_runs(given) == {"optimal", "infeasible", "unbounded"}
    assert _assert_same_runs([lp_module.dual_program(lp) for lp in lps]) == {
        "optimal", "infeasible", "unbounded"
    }
