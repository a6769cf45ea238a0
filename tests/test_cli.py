import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import stablerank
from stablerank import capset, cli
from stablerank.cli import main

DATA_DIR = Path(__file__).parent / "data"

W_TENSOR = {
    "shape": [2, 2, 2],
    "domain": "rational",
    "entries": [
        {"idx": [1, 0, 0], "val": "1"},
        {"idx": [0, 1, 0], "val": "1"},
        {"idx": [0, 0, 1], "val": "1"},
    ],
}

W_SUPPORT = {"shape": [2, 2, 2], "elements": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}

TABLE20_SHA256 = "9504b33789c41da86130944b07b3f8855e0b3d1bd6316071c6f3eb7c65c09001"


@pytest.fixture
def w_tensor_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(W_TENSOR))
    return str(path)


@pytest.fixture
def w_support_file(tmp_path):
    path = tmp_path / "w_support.json"
    path.write_text(json.dumps(W_SUPPORT))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestTrankCommand:
    def test_tensor_file(self, capsys, w_tensor_file):
        code, out = run(capsys, "trank", w_tensor_file, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == "3/2" and data["certificate_ok"] is True

    def test_support_file(self, capsys, w_support_file):
        code, out = run(capsys, "trank", w_support_file, "--format", "json")
        assert code == 0 and json.loads(out)["value"] == "3/2"

    def test_empty_support(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"shape": [2, 2], "elements": []}))
        code, out = run(capsys, "trank", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["value"] == "0"

    def test_alpha_option(self, capsys, w_support_file):
        code, out = run(
            capsys, "trank", w_support_file, "--alpha", "1/2,1/2,1/2", "--format", "json"
        )
        assert code == 0 and json.loads(out)["value"] == "3/4"

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(capsys, "trank", str(path))
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _ = run(capsys, "trank", "/nonexistent/input.json")
        assert code == 2

    def test_wrong_alpha_length_exits_2(self, capsys, w_support_file):
        code, _ = run(capsys, "trank", w_support_file, "--alpha", "1,1")
        assert code == 2

    @pytest.mark.parametrize(
        "alpha,message",
        [("1,1", "error: weight has length 2, tensor order is 3\n"),
         ("0,1,1", "error: all weight entries must be positive\n"),
         ("-1,1,1", "error: all weight entries must be positive\n"),
         ("1,x,1", "error: --alpha must be comma-separated rationals, got '1,x,1'\n"),
         ("1,,1", "error: --alpha must be comma-separated rationals, got '1,,1'\n")],
    )
    def test_bad_alpha_on_empty_support_exits_2(self, capsys, tmp_path, alpha, message):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"shape": [2, 2, 2], "elements": []}))
        code = main(["trank", str(path), f"--alpha={alpha}"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", message)

    def test_repeated_index_exits_2(self, capsys, tmp_path):
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps({"shape": [2, 2], "entries": [
            {"idx": [0, 0], "val": 1}, {"idx": [0, 0], "val": 0}, {"idx": [1, 1], "val": "2"}]}))
        code = main(["trank", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "listed twice" in captured.err

    def test_one_based_display(self, capsys, w_support_file):
        code, out = run(
            capsys, "trank", w_support_file, "--one-based", "--format", "json"
        )
        data = json.loads(out)
        assert [1, 1, 2] in [e["idx"] for e in data["dual"]]


class TestTsliceCommand:
    def test_w_support(self, capsys, w_support_file):
        code, out = run(capsys, "tslice", w_support_file, "--format", "json")
        assert code == 0 and json.loads(out)["value"] == 2

    def test_singleton(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"shape": [2, 2], "elements": [[1, 1]]}))
        code, out = run(capsys, "tslice", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["value"] == 1

    def test_empty_support(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"shape": [2, 2], "elements": []}))
        code, out = run(capsys, "tslice", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["value"] == 0

    @pytest.mark.parametrize("first", ["trank", "tslice"])
    def test_branching_corpus_support_prints_the_pinned_bytes(self, capsys, first):
        # Support 30 of the acceptance corpus: tslice branches past its root
        # relaxation, the LP that trank solves. Run back to back in one
        # process, in either order, both print the pinned JSON.
        path = str(DATA_DIR / "corpus_30_support.json")
        for command in (first, "tslice" if first == "trank" else "trank"):
            code, out = run(capsys, command, path, "--format", "json")
            assert code == 0 and out == (DATA_DIR / f"corpus_30_{command}.json").read_text()

    @pytest.mark.parametrize("first", [None, "trank", "tslice"])
    def test_weighted_corpus_support_prints_the_pinned_bytes(self, capsys, first):
        # The weights have denominator 12, so the objective is not integral.
        # After a unit-weight trank or tslice on the same support, the
        # weighted root is solved again and prints the pinned JSON.
        path = str(DATA_DIR / "corpus_30_support.json")
        if first is not None:
            assert run(capsys, first, path, "--format", "json")[0] == 0
        code, out = run(capsys, "trank", path, "--alpha", "1/2,1,3/4,2,1/3", "--format", "json")
        assert code == 0 and out == (DATA_DIR / "corpus_30_trank_alpha.json").read_text()

    def test_limit_exits_4(self, capsys, w_support_file):
        code, _ = run(capsys, "tslice", w_support_file, "--limit", "3")
        assert code == 4

    def test_failed_certificate_exits_3(self, capsys, monkeypatch, w_support_file):
        monkeypatch.setattr("stablerank.lp.verify_certificate", lambda lp, sol: False)
        code = main(["tslice", w_support_file])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: ")


class TestGrankCommand:
    def test_w_state_interval(self, capsys, w_tensor_file):
        code, out = run(
            capsys, "grank", w_tensor_file, "--budget", "16", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["upper_bound"] == "3/2"
        assert abs(data["lower_bound"] - 1.5) <= 1e-6
        assert data["lower_bound"] <= 1.5 + 1e-9

    def test_deterministic_output(self, capsys, w_tensor_file):
        args = ("grank", w_tensor_file, "--budget", "12", "--seed", "5", "--format", "json")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_round_trip(self, capsys, w_tensor_file):
        _, out = run(capsys, "grank", w_tensor_file, "--format", "json")
        data = json.loads(out)
        assert json.loads(json.dumps(data)) == data

    def test_underflowing_entries_exit_2(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({
            "shape": [2, 2],
            "entries": [{"idx": [0, 0], "val": "1e-400"}, {"idx": [1, 1], "val": "1e-400"}],
        }))
        code = main(["grank", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: tensor entries underflow double precision\n"

    @pytest.mark.parametrize("tiny", ["1e-200", "1e-310"])
    def test_entries_with_underflowing_squares(self, capsys, tmp_path, tiny):
        # Nonzero doubles whose squares underflow: the ascent rescales them
        # exactly, so the output is that of the same tensor with entries 1.
        outputs = []
        for val in (tiny, "1"):
            path = tmp_path / f"diag_{val}.json"
            path.write_text(json.dumps({
                "shape": [2, 2],
                "entries": [{"idx": [0, 0], "val": val}, {"idx": [1, 1], "val": val}],
            }))
            code = main(["grank", str(path), "--format", "json"])
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("alpha,weight", [("1e-400,1", "1e-400"), ("1,1e400", "1e400"), (" 1e400 ,1", "1e400")])
    def test_weight_outside_double_precision_exits_2(self, capsys, tmp_path, alpha, weight):
        # A weight that rounds to 0.0 reached the ascent and divided by zero
        # (exit 1); one too large for a double failed there unnamed.  Both
        # are refused before the search.  The zero tensor's bounds are 0
        # with no search and no double: its output does not move.
        path = tmp_path / "swap.json"
        path.write_text(json.dumps({"shape": [2, 2], "entries": [{"idx": [0, 1], "val": 1}, {"idx": [1, 0], "val": 1}]}))
        code = main(["grank", str(path), "--alpha", alpha])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: --alpha weight {weight} is outside double precision\n"
        path.write_text(json.dumps({"shape": [2, 2], "entries": []}))
        code, out = run(capsys, "grank", str(path), "--alpha", alpha)
        assert code == 0 and "upper_bound: 0\n" in out

    def test_dense_tensor_sandwich_under_the_row_cap(self, capsys, monkeypatch, tmp_path):
        # All 27 entries are nonzero.  The search takes the support's rank, 3,
        # from a checked packing that meets its one-mode slice cover, with no
        # LP, and checks the 27-row cap as the LP would.
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"shape": [3, 3, 3], "entries": [
            {"idx": [i, j, k], "val": 1 + (i + 2 * j + 4 * k) % 3}
            for i in range(3) for j in range(3) for k in range(3)
        ]}))
        code, out = run(capsys, "grank", str(path), "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["upper_bound"] == "3"
        assert abs(data["lower_bound"] - 3) <= 1e-6 and data["lower_bound"] <= 3 + 1e-6
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", "26")
        code = main(["grank", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err == "error: LP has 27 rows, exceeding STABLERANK_MAX_LP_ROWS=26\n"
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", "27")
        code, out = run(capsys, "grank", str(path))
        assert code == 0 and "upper_bound: 3\n" in out

    def test_dense_array_too_large_exits_4(self, capsys, tmp_path):
        # numpy refuses the 10^15-entry complex array before allocating it.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"shape": [100000, 100000, 100000], "entries": [{"idx": [0, 0, 0], "val": "1"}]}))
        code = main(["grank", str(path)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestCapsetCommand:
    def test_single_row(self, capsys):
        code, out = run(capsys, "capset", "--n", "7", "--format", "json")
        assert code == 0 and json.loads(out)["bound"] == 722

    def test_full_cross_check(self, capsys):
        code, out = run(capsys, "capset", "--n", "1", "--full", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["full_value"] == "9/4" == data["value"]
        assert data["full_matches_reduced"] is True

    def test_verify_conjecture(self, capsys):
        code, out = run(capsys, "capset", "--verify-conjecture", "6", "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["matches"] is True

    def test_table_20_golden_hash(self, capsys):
        code, out = run(capsys, "capset", "--table", "20", "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE20_SHA256

    def test_table_20_golden_file(self, capsys):
        _, out = run(capsys, "capset", "--table", "20", "--format", "csv")
        assert out == (DATA_DIR / "capset_table_20.csv").read_text()

    def test_table_60_golden_file(self, capsys):
        # Written by the earlier solver, which built the full collapsed LP.
        code, out = run(capsys, "capset", "--table", "60", "--format", "csv")
        assert code == 0
        assert out.encode() == (DATA_DIR / "capset_table_60.csv").read_bytes()

    @pytest.mark.parametrize("fmt,suffix", [("text", "txt"), ("json", "json")])
    def test_table_60_golden_file_in_other_formats(self, capsys, fmt, suffix):
        # Written before the tight-row LP route was deleted.
        code, out = run(capsys, "capset", "--table", "60", "--format", fmt)
        assert code == 0
        assert out.encode() == (DATA_DIR / f"capset_table_60.{suffix}").read_bytes()

    def test_verify_conjecture_golden_file(self, capsys):
        # the text reports of N = 2..60, one after another
        out = []
        for n in range(2, 61):
            code, text = run(capsys, "capset", "--verify-conjecture", str(n))
            assert code == 0, n
            out.append(text)
        assert "".join(out).encode() == (DATA_DIR / "capset_verify_conjecture_2_60.txt").read_bytes()

    def test_pins_without_the_simplex(self, capsys, monkeypatch):
        # capset pivots no LP: with the simplex made to raise, the n = 1..60
        # table in every format and the conjecture reports match their pins
        def refuse(lp):
            raise AssertionError("simplex reached")

        monkeypatch.setattr(stablerank.lp, "_run_simplex", refuse)
        for fmt, suffix in (("csv", "csv"), ("json", "json"), ("text", "txt")):
            code, out = run(capsys, "capset", "--table", "60", "--format", fmt)
            assert code == 0
            assert out.encode() == (DATA_DIR / f"capset_table_60.{suffix}").read_bytes()
        reports = []
        for n in range(2, 61):
            code, text = run(capsys, "capset", "--verify-conjecture", str(n))
            assert code == 0, n
            reports.append(text)
        assert "".join(reports).encode() == (DATA_DIR / "capset_verify_conjecture_2_60.txt").read_bytes()

    def test_missing_selector_exits_2(self, capsys):
        code, _ = run(capsys, "capset")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--table", "0", "--format", "csv"),
            ("--table", "-3"),
            ("--table", "61"),
            ("--n", "0"),
            ("--n", "61"),
            ("--n", "70", "--format", "json"),
            ("--verify-conjecture", "61"),
            ("--verify-conjecture", "1"),
        ],
    )
    def test_out_of_range_exits_2(self, capsys, argv):
        code = main(["capset", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        # --verify-conjecture keeps its range 2..60, though the closed form
        # also certifies the pattern at n = 1
        low = 2 if argv[0] == "--verify-conjecture" else 1
        assert captured.err == f"error: {argv[0]} must be between {low} and 60, got {argv[1]}\n"


def test_python_dash_m_runs_the_cli():
    package_root = Path(stablerank.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "stablerank", "capset", "--n", "3", "--format", "csv"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "n,value,bound,eg,eg_prime,conjecture_match\n3,15,15,30,18,true\n"


# The exact commands run in a fresh interpreter, since this one has numpy.
_NUMPY_FREE_SCRIPT = """
import json, sys
from pathlib import Path
from stablerank.cli import main

tmp = Path(sys.argv[1])
w = {"shape": [2, 2, 2], "entries": [{"idx": i, "val": 1} for i in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]}
(tmp / "w.json").write_text(json.dumps(w))
(tmp / "m.json").write_text(json.dumps({"modulus": 2, "matrices": [[[1, 0], [0, 1]]]}))
(tmp / "x.json").write_text(json.dumps({"x": [[1, 0], [1, 0], [1, 0]]}))
codes = [
    main(["trank", str(tmp / "w.json")]),
    main(["tslice", str(tmp / "w.json")]),
    main(["capset", "--table", "3"]),
    main(["ncrk", str(tmp / "m.json"), "--mode", "both"]),
    main(["slope", str(tmp / "w.json"), "--exponents", str(tmp / "x.json")]),
]
assert codes == [0] * 5, codes
assert main(["grank", str(tmp / "w.json"), "--tol", "nan"]) == 2
assert "numpy" not in sys.modules, "an exact command imported numpy"
assert main(["grank", str(tmp / "w.json"), "--format", "json"]) == 0
assert "numpy" in sys.modules
from stablerank.complexrank import sandwich
print("ok")
"""


def test_exact_commands_do_not_import_numpy(tmp_path):
    package_root = Path(stablerank.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"upper_bound": "3/2"' in proc.stdout and proc.stdout.endswith("ok\n")


class TestNcrkCommand:
    @pytest.fixture
    def identity_file(self, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"modulus": 2, "matrices": [[[1, 0], [0, 1]]]}))
        return str(path)

    @pytest.fixture
    def e11_file(self, tmp_path):
        path = tmp_path / "e11.json"
        path.write_text(json.dumps({"modulus": 2, "matrices": [[[1, 0], [0, 0]]]}))
        return str(path)

    def test_brute_identity(self, capsys, identity_file):
        code, out = run(capsys, "ncrk", identity_file, "--format", "json")
        assert code == 0 and json.loads(out)["ncrk"] == 2

    def test_search_e11(self, capsys, e11_file):
        code, out = run(capsys, "ncrk", e11_file, "--mode", "search", "--format", "json")
        assert code == 0 and json.loads(out)["ncrk"] == 1

    def test_both_agree(self, capsys, e11_file):
        code, out = run(capsys, "ncrk", e11_file, "--mode", "both", "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["agree"] is True

    def test_disagreement_gate_exits_3(self, capsys, tmp_path):
        # The bounds are 2 and 3 and the ncrk is 2; the identity basis alone
        # gives 3, so a budget-1 search disagrees with brute force.
        path = tmp_path / "pair.json"
        matrices = [[[0, 1, 1], [1, 1, 0], [0, 0, 0]], [[0, 1, 0], [1, 1, 0], [1, 1, 0]]]
        path.write_text(json.dumps({"modulus": 2, "matrices": matrices}))
        code, out = run(
            capsys, "ncrk", str(path), "--mode", "both", "--budget", "1",
            "--format", "json",
        )
        data = json.loads(out)
        assert code == 3
        assert data["agree"] is False
        assert data["brute"] == 2 and data["search"] == 3

    @pytest.mark.parametrize("matrices,message", [
        ([["12", "34"]], "each matrix row must be a list of entries, got str '12'"),
        (["1"], "each matrix must be a list of rows, got str '1'"),
    ])
    def test_string_matrix_or_row_exits_2(self, capsys, tmp_path, matrices, message):
        # Read one character at a time, these would run as [[1, 2], [3, 4]]
        # and [[1]] and exit 0.
        path = tmp_path / "strings.json"
        path.write_text(json.dumps({"modulus": 7, "matrices": matrices}))
        assert main(["ncrk", str(path), "--mode", "both"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.fixture
    def bounds_calls(self, monkeypatch):
        calls = []
        real = stablerank.ranks._ncrk_bounds

        def counted(mats):
            calls.append(mats)
            return real(mats)

        monkeypatch.setattr(stablerank.ranks, "_ncrk_bounds", counted)
        monkeypatch.setattr(cli, "_ncrk_bounds", counted)
        return calls

    @pytest.mark.parametrize("mode", ["brute", "search", "both"])
    @pytest.mark.parametrize("name", ["ncrk_f2_8x8", "ncrk_alternating_f3", "ncrk_f101_rank1"])
    def test_bounds_are_worked_out_once(self, capsys, bounds_calls, name, mode):
        code, out = run(capsys, "ncrk", str(DATA_DIR / f"{name}.json"), "--mode", mode)
        assert code == 0 and len(bounds_calls) == 1
        if mode == "both":
            assert out == (DATA_DIR / f"{name}_both.txt").read_text()

    @pytest.mark.parametrize("mode,code,calls", [("brute", 4, 0), ("both", 4, 0), ("search", 0, 1)])
    def test_limit_is_checked_before_the_bounds(self, capsys, bounds_calls, identity_file, mode, code, calls):
        # F_2^2 has 5 subspaces; the search enumerates none and takes no limit.
        assert run(capsys, "ncrk", identity_file, "--mode", mode, "--limit", "4")[0] == code
        assert len(bounds_calls) == calls

    def test_limit_exits_4(self, capsys, identity_file):
        code, _ = run(capsys, "ncrk", identity_file, "--limit", "1")
        assert code == 4

    def test_limit_counts_subspaces(self, capsys, identity_file):
        # F_2^2 has 5 subspaces: 0, three lines and the plane
        assert run(capsys, "ncrk", identity_file, "--limit", "5") == (0, "command: ncrk\nmode: brute\nbrute: 2\nncrk: 2\n")
        assert main(["ncrk", identity_file, "--limit", "4"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: F_2^2 has at least 5 subspaces, above the enumeration limit 4; use the search mode\n"
        )

    @pytest.mark.parametrize("mode", ["search", "both", "brute"])
    def test_search_below_the_lower_bound_exits_3(self, capsys, monkeypatch, identity_file, mode):
        ranks = stablerank.ranks
        lower = ranks.ncrk_bruteforce(stablerank.MatrixTuple([[[1, 0], [0, 1]]], 2)) + 1
        monkeypatch.setattr(ranks, "_raise_lower", lambda lower_, upper, matrices, p: lower)
        code = main(["ncrk", identity_file, "--mode", mode])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "below the certified lower bound 3" in captured.err

    @pytest.mark.parametrize("mode", ["search", "both", "brute"])
    def test_singular_lower_bound_minor_exits_3(self, capsys, monkeypatch, e11_file, mode):
        ranks = stablerank.ranks
        real = ranks._echelon_mod_p

        def one_pivot_too_many(m, p):
            pivots, rows = real(m, p)
            return pivots + [(1, 1)], rows + [[0, 1]]

        monkeypatch.setattr(ranks, "_echelon_mod_p", one_pivot_too_many)
        code = main(["ncrk", e11_file, "--mode", mode])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: the 2 x 2 minor certifying the ncrk lower bound is singular mod 2\n"

    def test_search_prints_ncrk_only_when_proved(self, capsys, tmp_path):
        # The rank-1 matrix over F_101: the search value meets the bound.
        code, out = run(capsys, "ncrk", str(DATA_DIR / "ncrk_f101_rank1.json"), "--mode", "search")
        assert (code, out) == (0, "command: ncrk\nmode: search\nalpha: 1,1,3\nsearch: 1\nncrk: 1\n")
        # Bounds 2 and 3, ncrk 2: the identity basis alone gives 3, which
        # is not proved, so only the search value prints.
        path = tmp_path / "pair.json"
        matrices = [[[0, 1, 1], [1, 1, 0], [0, 0, 0]], [[0, 1, 0], [1, 1, 0], [1, 1, 0]]]
        path.write_text(json.dumps({"modulus": 2, "matrices": matrices}))
        code, out = run(capsys, "ncrk", str(path), "--mode", "search", "--budget", "1", "--format", "csv")
        assert (code, out) == (0, 'command,mode,alpha,search\nncrk,search,"1,1,3",3\n')
        code, out = run(capsys, "ncrk", str(path), "--mode", "search", "--format", "json")
        assert code == 0 and json.loads(out) == {
            "command": "ncrk", "mode": "search", "alpha": "1,1,3", "search": 2, "ncrk": 2,
        }

    @pytest.mark.parametrize("mode", ["search", "both", "brute"])
    @pytest.mark.parametrize("tamper,message", [
        ("pivot", "the annihilator of the whole space's images fails its check mod 101"),
        ("minor", "the 2 x 2 minor certifying the ncrk lower bound is singular mod 101"),
    ])
    def test_failed_bound_certificate_exits_3(self, capsys, monkeypatch, tmp_path, mode, tamper, message):
        # The pair over F_101 has L = 1, subspace values 2 and 2, and A1 + A2
        # of rank 2.  An elimination of the matrices' columns, the whole
        # space's images, that drops a pivot row gives a wrong annihilator;
        # a singular 2 x 2 minor refuses the combination's rank.
        ranks = stablerank.ranks
        matrices = [[[49, 75, 5], [62, 31, 29], [18, 9, 41]], [[40, 33, 61], [33, 55, 68], [26, 77, 75]]]
        if tamper == "pivot":
            real = ranks._echelon_mod_p
            columns = [list(col) for m in matrices for col in zip(*m)]

            def one_pivot_too_few(vectors, p):
                pivots, rows = real(vectors, p)
                return (pivots[:-1], rows[:-1]) if [list(v) for v in vectors] == columns else (pivots, rows)

            monkeypatch.setattr(ranks, "_echelon_mod_p", one_pivot_too_few)
        else:
            real = ranks._det_int
            monkeypatch.setattr(ranks, "_det_int", lambda m: 0 if len(m) == 2 else real(m))
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"modulus": 101, "matrices": matrices}))
        code = main(["ncrk", str(path), "--mode", mode])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")

    def test_random_f2_pair_of_full_rank(self, capsys):
        # Two 8 x 8 matrices over F_2 drawn row by row with random.Random(1)
        # and randrange(2); both are invertible, so the bound is 8 = cols and
        # none of the 417,199 subspaces of F_2^8 is enumerated.
        code, out = run(capsys, "ncrk", str(DATA_DIR / "ncrk_f2_8x8.json"))
        assert code == 0 and out == (DATA_DIR / "ncrk_f2_8x8.txt").read_text()

    @pytest.mark.parametrize("name", ["ncrk_f2_8x8", "ncrk_alternating_f3", "ncrk_f101_rank1"])
    def test_both_modes_on_checked_in_tuples(self, capsys, name):
        # The search stops at the slice cover on the 8 x 8 pair (cover 8 =
        # bound) and runs its budget on the alternating triple (cover 3 >
        # bound 2); the expected text of both was written by a search
        # without the cover check.  On the rank-1 3 x 3 matrix over F_101
        # the stacked rank meets the bound 1, where a search that finds 2
        # used to fail the gate.
        code, out = run(capsys, "ncrk", str(DATA_DIR / f"{name}.json"), "--mode", "both")
        assert code == 0 and out == (DATA_DIR / f"{name}_both.txt").read_text()

    @pytest.mark.parametrize("n,bounds", [(6, (5, 6)), (8, (7, 8))])
    def test_gap_pairs_are_the_first_drawn(self, n, bounds):
        # Pairs of n x n matrices over F_2 drawn row by row with
        # random.Random(0) and randrange(2): the checked-in pair is the first
        # whose certified bounds do not meet.
        rng = random.Random(0)
        for _ in range(10):  # 4 draws at n = 6, 1 at n = 8
            matrices = [[[rng.randrange(2) for _ in range(n)] for _ in range(n)] for _ in range(2)]
            if (got := stablerank.ranks._ncrk_bounds(stablerank.MatrixTuple(matrices, 2)))[0] < got[1]:
                break
        assert got == bounds
        assert json.loads((DATA_DIR / f"ncrk_f2_{n}x{n}_gap.json").read_text()) == {"modulus": 2, "matrices": matrices}

    @pytest.mark.parametrize("mode,pin", [("brute", "ncrk_f2_6x6_gap.txt"), ("both", "ncrk_f2_6x6_gap_both.txt")])
    def test_gap_pair_enumerates_every_subspace(self, capsys, mode, pin):
        # Bounds (5, 6) and ncrk 6: brute force never reaches the lower
        # bound, so it enumerates all 2,823 subspaces of F_2^6 of dimension
        # 1 to 5, and the search spends its whole budget.  The pinned text
        # was written before the mod-p kernels' per-rank savings.
        code, out = run(capsys, "ncrk", str(DATA_DIR / "ncrk_f2_6x6_gap.json"), "--mode", mode)
        assert code == 0 and out == (DATA_DIR / pin).read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["ncrk", "{matrices}", "--mode", "search"],
        ["grank", "{tensor}"],
        ["capset", "--n", "2", "--full"],
        ["trank", "{tensor}"],
    ],
)
def test_failed_support_certificate_exits_3(capsys, monkeypatch, tmp_path, argv):
    # The alternating triple over F_2 has bounds 2 and 3, so the ncrk
    # search cannot stop before its tensor and solves an LP.
    matrices = tmp_path / "tuple.json"
    alternating = [[[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
                   [[0, 0, 0], [0, 0, 1], [0, 1, 0]]]
    matrices.write_text(json.dumps({"modulus": 2, "matrices": alternating}))
    tensor = tmp_path / "w.json"
    tensor.write_text(json.dumps(W_TENSOR))
    monkeypatch.setattr("stablerank.lp.verify_certificate", lambda lp, sol: False)
    code = main([a.format(matrices=matrices, tensor=tensor) for a in argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: ")


class TestSlopeCommand:
    def test_w_state(self, capsys, w_support_file, tmp_path):
        exps = tmp_path / "x.json"
        exps.write_text(json.dumps({"x": [[1, 0], [1, 0], [1, 0]]}))
        code, out = run(
            capsys, "slope", w_support_file, "--exponents", str(exps), "--format", "json"
        )
        assert code == 0 and json.loads(out)["slope"] == "3/2"

    def test_nonvanishing_exits_2(self, capsys, w_support_file, tmp_path):
        exps = tmp_path / "x.json"
        exps.write_text(json.dumps({"x": [[0, 0], [0, 0], [0, 0]]}))
        code, _ = run(capsys, "slope", w_support_file, "--exponents", str(exps))
        assert code == 2

    def test_integral_float_exponents(self, capsys, w_support_file, tmp_path):
        exps = tmp_path / "x.json"
        exps.write_text('{"x": [[1.0, 0], [1, 0], [1, 0]]}')
        code, out = run(capsys, "slope", w_support_file, "--exponents", str(exps))
        assert code == 0 and out == "command: slope\nslope: 3/2\n"


class TestEnvironmentCap:
    def test_lp_row_cap_exits_4(self, capsys, monkeypatch, w_support_file):
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", "1")
        code, _ = run(capsys, "trank", w_support_file)
        assert code == 4

    def test_malformed_cap_exits_2(self, capsys, monkeypatch, w_support_file):
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", "abc")
        code = main(["trank", w_support_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: STABLERANK_MAX_LP_ROWS must be an integer, got 'abc'\n"

    # int() takes each of these; only ASCII digits are a cap
    @pytest.mark.parametrize(
        "raw,message",
        [
            ("-1", "must be a nonnegative integer, got '-1'"),
            ("1_0", "must be an integer, got '1_0'"),
            (" 3 ", "must be an integer, got ' 3 '"),
        ],
    )
    @pytest.mark.parametrize("command", ["trank", "tslice"])
    def test_cap_spellings_exit_2(self, capsys, monkeypatch, w_support_file, raw, message, command):
        monkeypatch.setenv("STABLERANK_MAX_LP_ROWS", raw)
        code = main([command, w_support_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: STABLERANK_MAX_LP_ROWS {message}\n"


def _tensor_text(val: str) -> str:
    return json.dumps({"shape": [2, 2], "entries": [{"idx": [0, 0], "val": val}]})


_TUPLE_TEXT = json.dumps({"modulus": 3, "matrices": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]})


# Out-of-range or malformed numbers, domains and matrix entries, each exiting 2.
# Raw JSON text: the literal 1e400 parses as float("inf").
@pytest.mark.parametrize(
    "command,text,exponents",
    [
        ("trank", '{"shape": [2, 2, 1e400], "elements": [[0, 0, 0]]}', None),
        ("trank", '{"shape": [2, 2, 2], "elements": [[0, 0, 1e400]]}', None),
        ("trank", '{"shape": [2, 2, 2], "elements": [[0, 0, 1.5]]}', None),
        ("trank", '{"shape": [2, 2, 2.5], "elements": [[0, 0, 1]]}', None),
        ("slope", json.dumps(W_SUPPORT), '{"x": [[1e400, 0], [1, 0], [1, 0]]}'),
        ("grank", _tensor_text("1e400"), None),
        ("grank", _tensor_text("1e200"), None),
        ("ncrk", '{"modulus": 1e400, "matrices": [[[1, 0], [0, 1]]]}', None),
        ("trank", _tensor_text("1/0"), None),
        ("tslice", _tensor_text("1/0"), None),
        ("grank", _tensor_text("1/0"), None),
        ("slope", _tensor_text("1/0"), '{"x": [[1, 0], [1, 0]]}'),
        ("trank --alpha 1,1,1/0", json.dumps(W_SUPPORT), None),
        ("grank --alpha 1/0,1,1", json.dumps(W_TENSOR), None),
        ("slope --alpha 1,1/0,1", json.dumps(W_SUPPORT), '{"x": [[1, 0], [1, 0], [1, 0]]}'),
        ("trank", '{"shape": [2], "domain": 5, "entries": []}', None),
        ("grank", '{"shape": [2], "domain": null, "entries": []}', None),
        ("trank", '{"shape": [2], "domain": "mod:07", "entries": []}', None),
        ("trank", '{"shape": [2], "domain": "mod:+7", "entries": []}', None),
        ("tslice", '{"shape": [2], "domain": "mod: 0_7", "entries": []}', None),
        ("trank", '{"shape": [2], "domain": "mod:\\u0667", "entries": []}', None),
        ("ncrk", '{"modulus": 2, "matrices": [[[1, 0], [0, 1.5]]]}', None),
        ("ncrk", '{"modulus": 2, "matrices": [[[1, 0], [0, "1/0"]]]}', None),
        ("ncrk", '{"modulus": 2, "matrices": [[[1, 0], [0, "a"]]]}', None),
        ("ncrk", '{"modulus": 2, "matrices": [[[1, 0], [0, null]]]}', None),
        ("trank", '{"shape": [2, 2], "domain": "mod:3", "entries": [{"idx": [0, 0], "val": 1.5}, '
                  '{"idx": [1, 1], "val": 2.9}]}', None),
        # negative counts and a tolerance that is negative or not finite
        ("tslice --limit -1", json.dumps(W_SUPPORT), None),
        ("ncrk --limit -1", _TUPLE_TEXT, None),
        ("ncrk --mode search --budget -5", _TUPLE_TEXT, None),
        ("grank --iters -3", json.dumps(W_TENSOR), None),
        ("grank --budget -3", json.dumps(W_TENSOR), None),
        ("grank --tol -1", json.dumps(W_TENSOR), None),
        ("grank --tol nan", json.dumps(W_TENSOR), None),
        ("grank --tol inf", json.dumps(W_TENSOR), None),
        ("grank --tol nan", _tensor_text("1"), None),
        # positive rational weights with no positive finite double
        ("grank --alpha 1e-400,1", _tensor_text("1"), None),
        ("grank --alpha 1e400,1", _tensor_text("1"), None),
    ],
)
def test_out_of_range_numbers_exit_2(capsys, tmp_path, command, text, exponents):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [*command.split(), str(path)]
    if exponents is not None:
        exps = tmp_path / "x.json"
        exps.write_text(exponents)
        argv += ["--exponents", str(exps)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


# The first modulus that Miller-Rabin on the first 13 primes cannot decide.
@pytest.mark.parametrize(
    "command,text",
    [
        ("ncrk", '{"modulus": 3317044064679887385961981, "matrices": [[[1, 0], [0, 1]]]}'),
        ("trank", '{"shape": [2], "domain": "mod:3317044064679887385961981", "entries": []}'),
    ],
)
def test_modulus_past_the_primality_limit_exits_2(capsys, tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too large to test for primality" in captured.err


# JSON files whose top level is not an object with the expected keys.
@pytest.mark.parametrize(
    "command,text,message",
    [
        ("ncrk", '{"matrices": [[[1]]]}', "not a matrix tuple file, no 'modulus' key"),
        ("ncrk", "[1, 2]", "not a matrix tuple file, no 'matrices' key"),
        ("ncrk", '"matrices"', "not a matrix tuple file, no 'matrices' key"),
        ("slope", "[1, 2]", "not an exponent file, no 'x' key"),
        ("slope", '{"y": [[1, 0], [1, 0], [1, 0]]}', "not an exponent file, no 'x' key"),
        ("trank", "5", "neither a tensor nor a support file"),
        ("tslice", '"elements"', "neither a tensor nor a support file"),
        ("grank", "5", "not a tensor file"),
        ("grank", '{"shape": [2, 2], "entries": "ab"}', "'entries' must be a list, got str 'ab'"),
        (
            "trank",
            '{"shape": [2, 2], "entries": [5]}',
            "each item of 'entries' must be an object with 'idx' and 'val', got 5",
        ),
        (
            "grank",
            '{"shape": [2, 2], "entries": [{"idx": [0, 0]}]}',
            "each item of 'entries' must be an object with 'idx' and 'val', got {'idx': [0, 0]}",
        ),
        (
            "grank",
            '{"shape": [2, 2], "entries": [{"idx": 0, "val": 1}]}',
            "each 'idx' must be a list of coordinates, got int 0",
        ),
        ("tslice", '{"shape": [2, 2], "elements": 5}', "'elements' must be a list, got int 5"),
        ("trank", '{"shape": [2, 2], "elements": [3]}', "each item of 'elements' must be an index list, got int 3"),
        ("tslice", '{"shape": 5, "elements": []}', "'shape' must be a list, got int 5"),
        ("grank", '{"shape": "ab", "entries": []}', "'shape' must be a list, got str 'ab'"),
        # a nested list where a number belongs: a value of the wrong type,
        # named with the file it is in
        ("trank", '{"shape": [2, 2], "elements": [[[0], 1]]}', "{path}: index coordinates must be integers, got [[0], 1]"),
        ("trank", '{"shape": [[2], 2], "elements": [[0, 1]]}', "{path}: dimensions must be integers, got [[2], 2]"),
        (
            "trank",
            '{"shape": [2, 2], "entries": [{"idx": [0, 1], "val": [1]}]}',
            "{path}: each 'val' must be a rational number, got [1]",
        ),
        ("ncrk", '{"modulus": 3, "matrices": [[[[1]]]]}', "{path}: matrix entries must be integers, got [1]"),
        ("slope", '{"x": [[[1], 0], [0, 1], [0, 1]]}', "{path}: exponent row 0 must hold integers, got [[1], 0]"),
        # text, or NaN, where a number belongs
        ("ncrk", '{"modulus": 2, "matrices": [[[1, 0], [0, "a"]]]}', "{path}: matrix entries must be integers, got 'a'"),
        ("ncrk", '{"modulus": 2, "matrices": [[[1, "1/0"]]]}', "{path}: matrix entries must be integers, got '1/0'"),
        ("trank", '{"shape": [2, 2], "elements": [[0, "a"]]}', "{path}: index coordinates must be integers, got [0, 'a']"),
        ("trank", '{"shape": [2, 2], "elements": [[0, NaN]]}', "{path}: index coordinates must be integers, got [0, nan]"),
        ("tslice", '{"shape": [2, "a"], "elements": []}', "{path}: dimensions must be integers, got [2, 'a']"),
        (
            "trank",
            '{"shape": [2, 2], "entries": [{"idx": [0, 1], "val": "x"}]}',
            "{path}: each 'val' must be a rational number, got 'x'",
        ),
        (
            "grank",
            '{"shape": [2, 2], "entries": [{"idx": [0, 1], "val": NaN}]}',
            "{path}: each 'val' must be a rational number, got nan",
        ),
        ("slope", '{"x": [[1, "a"], [0, 1], [0, 1]]}', "{path}: exponent row 0 must hold integers, got [1, 'a']"),
        ("slope", '{"x": [[1e400, 0], [0, 1], [0, 1]]}', "{path}: exponent row 0 must hold integers, got [inf, 0]"),
        ("trank", '{"shape": [2, 2], "elements": [[0, 1e400]]}', "{path}: index coordinates must be integers, got [0, inf]"),
        ("ncrk", '{"modulus": 2, "matrices": [[[1, 1e400]]]}', "{path}: matrix entries must be integers, got inf"),
        (
            "grank",
            '{"shape": [2, 2], "entries": [{"idx": [0, 1], "val": 1e400}]}',
            "{path}: each 'val' must be a rational number, got inf",
        ),
        # a rational entry outside double precision, or entries whose norm
        # is: grank names the file and the entry
        (
            "grank",
            '{"shape": [2, 2], "entries": [{"idx": [0, 1], "val": "1e400"}, {"idx": [1, 0], "val": 1}]}',
            "{path}: entry [0, 1] overflows double precision",
        ),
        (
            "grank",
            '{"shape": [2, 2], "entries": [{"idx": [0, 1], "val": 1}, {"idx": [1, 0], "val": "1e200"}]}',
            "{path}: tensor norm overflows double precision at its largest entry [1, 0]",
        ),
        ("slope", '{"x": [[1, 0], 2, [0, 1]]}', "{path}: exponent row 1 must be a list of integers, got 2"),
        ("slope", '{"x": 5}', "{path}: exponent table must be a list of rows, got 5"),
    ],
)
def test_wrong_top_level_shape_exits_2(capsys, tmp_path, w_support_file, command, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = ["slope", w_support_file, "--exponents", str(path)] if command == "slope" else [command, str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    # a file of the wrong kind is named; a malformed field names itself
    where = f"{path}: " if message.startswith(("not ", "neither ")) else ""
    assert captured.err == f"error: {where}{message.replace('{path}', str(path))}\n"


# RecursionError is a RuntimeError, the solver-anomaly class, so a file
# nested past the decoder's recursion limit must be refused by name instead.
@pytest.mark.parametrize("command", ["trank", "tslice", "grank", "ncrk", "slope", "slope --exponents"])
def test_too_deeply_nested_json_exits_2(capsys, tmp_path, w_support_file, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    if command == "slope":
        argv = ["slope", str(path), "--exponents", w_support_file]
    elif command == "slope --exponents":
        argv = ["slope", w_support_file, "--exponents", str(path)]
    else:
        argv = [command, str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: JSON nested too deeply to read\n"


def test_zero_counts_are_valid(capsys, tmp_path, w_tensor_file):
    code, out = run(capsys, "grank", w_tensor_file, "--iters", "0", "--budget", "0", "--tol", "0")
    assert code == 0 and "iterations: 0\n" in out
    path = tmp_path / "tuple.json"
    path.write_text(_TUPLE_TEXT)
    code, out = run(capsys, "ncrk", str(path), "--mode", "both", "--budget", "0")
    assert code == 0 and "agree: true\n" in out
    code, _ = run(capsys, "tslice", w_tensor_file, "--limit", "0")
    assert code == 4  # a limit of zero is a limit, not a parse failure


# Each run is a subprocess under a timeout: a primality test that trial-divides
# never returns on the first two moduli.
@pytest.mark.parametrize(
    "modulus,expected",
    [
        (2**61 - 1, 0),  # a Mersenne prime
        ((2**31 - 1) ** 2, 2),  # composite with no small factor
        (318665857834031151167461, 2),  # strong pseudoprime to bases 2, 3, ..., 37
        (3317044064679887385961981, 2),  # at the primality-test bound
    ],
)
def test_large_moduli_finish(tmp_path, modulus, expected):
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({"modulus": modulus, "matrices": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}))
    package_root = Path(stablerank.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "stablerank", "ncrk", str(path), "--mode", "search"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
        timeout=20,
    )
    assert proc.returncode == expected
    if expected:
        assert proc.stdout == "" and proc.stderr.startswith("error: ")
    else:
        assert "ncrk: 2" in proc.stdout


COMMANDS = ("trank", "tslice", "grank", "capset", "ncrk", "slope")

# Each command with each of its flags, in every format; {tensor}, {support},
# {tuple} and {x} name input files.
_FLAG_RUNS = [
    ["trank", "{tensor}"],
    ["trank", "{support}", "--alpha", "1,1/2,2"],
    ["trank", "{support}", "--one-based"],
    ["tslice", "{tensor}"],
    ["tslice", "{support}", "--limit", "2"],
    ["tslice", "{support}", "--one-based"],
    ["grank", "{tensor}", "--budget", "3"],
    ["grank", "{tensor}", "--budget", "3", "--seed", "1"],
    ["grank", "{tensor}", "--budget", "3", "--iters", "20"],
    ["grank", "{tensor}", "--budget", "3", "--tol", "1e-6"],
    ["grank", "{tensor}", "--budget", "3", "--alpha", "1,1/2,2"],
    ["grank", "{tensor}", "--budget", "3", "--one-based"],
    ["capset", "--n", "3"],
    ["capset", "--table", "4"],
    ["capset", "--verify-conjecture", "5"],
    ["capset", "--n", "2", "--full"],
    ["capset", "--n", "3", "--one-based"],
    ["ncrk", "{tuple}"],
    ["ncrk", "{tuple}", "--mode", "both"],
    ["ncrk", "{tuple}", "--mode", "search", "--budget", "5"],
    ["ncrk", "{tuple}", "--mode", "search", "--seed", "1"],
    ["ncrk", "{tuple}", "--limit", "3"],
    ["ncrk", "{tuple}", "--one-based"],
    ["slope", "{support}", "--exponents", "{x}"],
    ["slope", "{support}", "--exponents", "{x}", "--alpha", "1,1/2,2"],
    ["slope", "{support}", "--exponents", "{x}", "--one-based"],
]
_PARSER_CORPUS = (
    [[*argv, "--format", fmt] for argv in _FLAG_RUNS for fmt in ("text", "json", "csv")]
    + [["--help"]]
    + [[name, "--help"] for name in COMMANDS]
    + [[], ["bogus"], ["cap"], ["--"], ["--format", "json", "capset"], ["capset", "--n", "3", "extra"]]
)


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``, help and usage
    errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", _PARSER_CORPUS, ids=" ".join)
def test_one_subparser_build_prints_what_the_full_build_does(
    capsys, monkeypatch, tmp_path, argv
):
    """A run that names its command builds only that subparser; every byte
    it prints matches a run through the parser with all six."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    files = {"tensor": W_TENSOR, "support": W_SUPPORT, "x": {"x": [[1, 0], [1, 0], [1, 0]]},
             "tuple": json.loads(_TUPLE_TEXT)}
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    argv = [a.format(**{name: str(tmp_path / f"{name}.json") for name in files}) for a in argv]
    full = cli.build_parser
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or full(command))
    lean = _outcome(capsys, argv)
    assert built == [argv[0] if argv and argv[0] in COMMANDS else None]
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert lean == _outcome(capsys, argv)
    assert lean[1] or lean[2]


def test_help_texts_match_the_pin(capsys, monkeypatch):
    """``--help``, then ``<command> --help`` for each command, at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    text = ""
    for argv in (["--help"], *([name, "--help"] for name in COMMANDS)):
        code, out, err = _outcome(capsys, argv)
        assert (code, err) == (0, "")
        text += out
    assert text == (DATA_DIR / "cli_help.txt").read_text()
