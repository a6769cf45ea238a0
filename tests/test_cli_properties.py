"""Property test of the CLI exit-code contract.

Every input, however malformed, exits 0, 2, 3 or 4: no exception escapes
``main``, and stderr carries nothing but ``error:`` lines.  Each run draws a
small tensor, support, exponent table or matrix tuple and at most one kind of
fault (malformed JSON, a bad size, a bad index, an odd scalar, a fractional
number in a mod-p tensor, a bad domain or modulus, a bad ``--alpha``), so
that every fault is also reached on input that is valid otherwise.  A mod-p
tensor file with a fractional number in it must exit 2, and so must a tensor
file that lists one index twice.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablerank.cli import main

FAULTS = ("none", "json", "size", "index", "scalar", "fraction", "domain", "alpha")

ODD_SCALARS = ["1/0", "a", "", None, True, 1.5, [], {}, 1e400, float("nan"), "1e-320"]
BAD_SIZES = [0, -1, 1.5, "2", None, 1e400]
BAD_COORDS = [-1, 3, 1.5, "0", None]
BAD_DOMAINS = ["mod:4", "mod:1", "complex", "", 5, None, ["rational"]]
BAD_MODULI = [0, 1, 4, -3, 2.5, "3", None, 1e400]
BAD_ALPHAS = ["", "1,1", "0,1,1", "-1,1,1", "1/0,1,1", "1,1,1/0", "a,b,c", "1,,1",
              "inf,1,1", "nan,1,1", "1e400,1,1", "1,1,1,1"]
BROKEN_JSON = ["", "{", "not json", "null", "1", '"text"', "[]", "{}", '{"entries": 5}',
               '{"shape": [2], "elements": 5}', '{"entries": {"a": 1}}']


@st.composite
def shapes(draw, fault):
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    if fault == "size":
        shape[draw(st.integers(0, len(shape) - 1))] = draw(st.sampled_from(BAD_SIZES))
    return shape


@st.composite
def elements(draw, shape, fault):
    dims = [n if isinstance(n, int) and n > 0 else 1 for n in shape]
    elems = draw(st.lists(st.tuples(*[st.integers(0, n - 1) for n in dims]).map(list),
                          max_size=4))
    if fault == "index" and elems:
        bad = elems[draw(st.integers(0, len(elems) - 1))]
        if draw(st.booleans()):  # one coordinate too many
            bad.append(0)
        elif len(bad) > 1 and draw(st.booleans()):  # one too few
            bad.pop()
        else:
            bad[draw(st.integers(0, len(bad) - 1))] = draw(st.sampled_from(BAD_COORDS))
    return elems


@st.composite
def tensor_data(draw, fault):
    shape = draw(shapes(fault))
    idxs = draw(elements(shape, fault))
    val = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=5).map(str),
                    st.fractions(max_denominator=4).map(float))
    entries = [{"idx": idx, "val": draw(val)} for idx in idxs]
    if fault == "scalar" and entries:
        entries[-1]["val"] = draw(st.sampled_from(ODD_SCALARS))
    if fault == "fraction" and entries:
        entries[draw(st.integers(0, len(entries) - 1))]["val"] = draw(st.integers(-12, 12)) + 0.5
    data = {"shape": shape, "entries": entries}
    domain = draw(st.sampled_from(BAD_DOMAINS if fault == "domain"
                                  else ["mod:2", "mod:3"] if fault == "fraction"
                                  else ["rational", "mod:2", "mod:3", None]))
    if domain is not None or fault == "domain":
        data["domain"] = domain
    return data


@st.composite
def support_data(draw, fault):
    shape = draw(shapes(fault))
    return {"shape": shape, "elements": draw(elements(shape, fault))}


@st.composite
def tuple_data(draw, fault):
    rows, cols, count = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    entry = st.integers(0, 3)
    mats = [[[draw(entry) for _ in range(cols)] for _ in range(rows)] for _ in range(count)]
    if fault == "size":  # a ragged or empty matrix
        mats[-1] = draw(st.sampled_from([[], [[]], mats[-1][:1] + [[1] * (cols + 1)]]))
    if fault == "scalar":
        mats[0][0][0] = draw(st.sampled_from(ODD_SCALARS))
    modulus = draw(st.sampled_from(BAD_MODULI if fault == "domain" else [2, 3, 5]))
    return {"modulus": modulus, "matrices": mats}


@st.composite
def exponent_data(draw, order, fault):
    exps = draw(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3),
                         min_size=order, max_size=order))
    if fault == "scalar":
        exps[0][0] = draw(st.sampled_from(ODD_SCALARS + [-1]))
    if fault == "size":
        exps.append([1])
    return {"x": exps}


def as_text(draw, data, fault):
    return draw(st.sampled_from(BROKEN_JSON)) if fault == "json" else json.dumps(data)


@st.composite
def alphas(draw, order, fault):
    if fault == "alpha":
        return draw(st.sampled_from(BAD_ALPHAS))
    weight = st.fractions(min_value=0, max_value=3, max_denominator=4).filter(bool)
    w = draw(st.none() | st.lists(weight, min_size=order, max_size=order))
    return None if w is None else ",".join(map(str, w))


def _fractional_mod_entry(data) -> bool:
    """Does a mod-p tensor file hold a finite number with a fractional part?

    Such an entry is not in the domain, so the run must exit 2."""
    if not isinstance(data.get("entries"), list) or data.get("domain") not in ("mod:2", "mod:3"):
        return False
    return any(isinstance(e["val"], float) and math.isfinite(e["val"]) and e["val"] % 1
               for e in data["entries"])


def _repeated_index(data) -> bool:
    """Does a tensor file list one index twice?  It contradicts itself, so
    the run must exit 2."""
    if not isinstance(data.get("entries"), list):
        return False
    idxs = [tuple(e["idx"]) for e in data["entries"]]
    return len(set(idxs)) < len(idxs)


@st.composite
def cli_runs(draw):
    """A command line, the files it reads, whether warnings are tolerated,
    and the exit codes allowed."""
    command = draw(st.sampled_from(["trank", "tslice", "slope", "ncrk", "grank"]))
    fault = draw(st.sampled_from(FAULTS))
    files = {}
    argv = [command, "{input}"]
    tolerate_warnings = False
    codes = (0, 2, 3, 4)
    if command == "ncrk":
        files["input"] = as_text(draw, draw(tuple_data(fault)), fault)
        argv += ["--mode", draw(st.sampled_from(["brute", "search", "both"])), "--budget", "2"]
    elif command == "grank":
        data = draw(tensor_data(fault))
        files["input"] = as_text(draw, data, fault)
        argv += ["--budget", "2", "--iters", "30"]
        # The ascent may warn on rational tensors with a zero Gram direction,
        # a known defect of its own; mod-p and malformed inputs may not warn.
        tolerate_warnings = data.get("domain", "rational") == "rational"
        if _repeated_index(data):
            codes = (2,)
    else:
        data = draw(st.one_of(tensor_data(fault), support_data(fault)))
        files["input"] = as_text(draw, data, fault)
        if _fractional_mod_entry(data) or _repeated_index(data):
            codes = (2,)
        if command == "slope":
            files["exponents"] = json.dumps(draw(exponent_data(len(data["shape"]), fault)))
            argv += ["--exponents", "{exponents}"]
    if command in ("trank", "slope", "grank"):
        alpha = draw(alphas(len(data["shape"]), fault))
        if alpha is not None:
            argv.append(f"--alpha={alpha}")
    argv.append(draw(st.sampled_from(["--format=text", "--format=json", "--format=csv"])))
    return argv, files, tolerate_warnings, codes


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_properties")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(run=cli_runs())
def test_every_input_meets_the_exit_code_contract(workdir, run):
    argv, files, tolerate_warnings, codes = run
    paths = {}
    for name, text in files.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(text)
    argv = [a.format(**paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
            lines = err.getvalue().splitlines()
        except SystemExit as exc:  # argparse prints its own usage message
            code, lines = exc.code, []
    assert code in codes, (argv, files, err.getvalue())
    for line in lines:
        assert line.startswith("error: "), (argv, files, line)
    if not tolerate_warnings:
        assert not caught, (argv, files, [str(w.message) for w in caught])
