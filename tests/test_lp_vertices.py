"""Golden-vertex regression: the solver returns the recorded ``x`` and ``y``.

``data/lp_vertices.json`` is written by ``make_lp_vertices.py``.  Matching
``to_json()`` exactly pins the vertex Bland's rule reaches, which the value
column of the cap-set table alone does not.
"""

import json
from pathlib import Path

from stablerank import OPTIMAL, LinearProgram, solve, verify_certificate

CASES = json.loads((Path(__file__).parent / "data" / "lp_vertices.json").read_text())


def _family(name):
    return [c for c in CASES if c["name"].startswith(name + "-")]


def _lp(case):
    return LinearProgram(case["objective"], case["rows"], case["rhs"])


def _check(lp, sol, expected):
    assert sol.to_json() == expected
    if sol.status == OPTIMAL:
        assert verify_certificate(lp, sol)


def test_corpus_shape():
    assert len(_family("small")) == 600
    assert len(_family("tall")) == 150
    assert len(_family("capset")) == 12
    statuses = {c["solve"]["status"] for c in CASES}
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_small_lps():
    for case in _family("small"):
        lp = _lp(case)
        assert lp.num_rows <= 2 * lp.num_vars + 8
        _check(lp, solve(lp), case["solve"])


def test_tall_lps_take_the_dual_route():
    for case in _family("tall"):
        lp = _lp(case)
        assert lp.num_rows > 2 * lp.num_vars + 8
        _check(lp, solve(lp), case["solve"])


def test_collapsed_capset_lps():
    for case in _family("capset"):
        lp = _lp(case)
        _check(lp, solve(lp), case["solve"])
