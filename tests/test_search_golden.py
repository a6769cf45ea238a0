"""Golden outputs of the basis-change search, recorded by ``make_search_golden.py``.

``ncrk --mode search`` must print the same CSV bytes, ``ncrk --mode brute``
and ``--mode both`` the same exit codes and CSV bytes, and
``grank_upper_search`` return the same values, as the code that wrote
``data/search_golden.json``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from stablerank import SparseTensor, grank_upper_search
from stablerank.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "search_golden.json").read_text())


def test_golden_shape():
    assert len(GOLDEN["ncrk"]) == 36 and len(GOLDEN["grank"]) == 24
    assert len(GOLDEN["ncrk_modes"]) == 36


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ncrk_search_csv(tmp_path, seed):
    path = tmp_path / "tuple.json"
    for case in GOLDEN["ncrk"]:
        if case["seed"] != seed:
            continue
        path.write_text(json.dumps({"modulus": case["modulus"], "matrices": case["matrices"]}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["ncrk", str(path), "--mode", "search", "--format", "csv", "--seed", str(seed)])
        assert code == 0 and out.getvalue() == case["csv"], case["matrices"]


@pytest.mark.parametrize("mode", ["brute", "both"])
def test_ncrk_brute_and_both_csv(tmp_path, capsys, mode):
    path = tmp_path / "tuple.json"
    for case in GOLDEN["ncrk_modes"]:
        if case["mode"] != mode:
            continue
        path.write_text(json.dumps({"modulus": case["modulus"], "matrices": case["matrices"]}))
        code = main(["ncrk", str(path), "--mode", mode, "--format", "csv"])
        out = capsys.readouterr().out
        assert (code, out) == (case["code"], case["csv"]), case["matrices"]


def test_grank_upper_search_values():
    for case in GOLDEN["grank"]:
        v = SparseTensor.from_json(case["tensor"])
        value = grank_upper_search(v, case["alpha"], budget=case["budget"], seed=case["seed"])
        assert str(value) == case["value"], case
