"""Command-line front end.

Subcommands: trank, tslice, grank, capset, ncrk, slope.  Rational values are
always printed as strings like "3/2"; floating-point bounds carry 12
significant digits.  Exit codes: 0 success, 2 parse/usage failure, 3 solver
anomaly or failed consistency gate, 4 resource limit exceeded.  Output is
byte-identical for identical invocations (including --seed).

A run whose first argument names a subcommand builds that one subparser
alone; help, and any argument list that names none first, build all six,
so help and usage errors print the same text either way.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import capset
from .lp import LPSizeError
from .ranks import (
    MatrixTuple,
    SliceLimitError,
    SubspaceLimitError,
    _check_subspace_limit,
    _ncrk_bounds,
    _ncrk_brute,
    _ncrk_search,
    check_count,
    check_tolerance,
    trank,
    tslice,
)
from .tensors import SparseTensor, Support, parse_rational, psg_slope, support_of

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_LIMIT = 4


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _parse_alpha(raw: str | None):
    if raw is None:
        return None
    try:
        return [parse_rational(tok.strip()) for tok in raw.split(",")]
    except TypeError:
        raise ValueError(f"--alpha must be comma-separated rationals, got {raw!r}") from None


def _check_double_weights(raw: str, alpha) -> None:
    """Refuse a positive ``--alpha`` weight that has no positive finite
    double, such as 1e-400 (0.0) or 1e400 (none): grank's ascent weighs in
    doubles.  A nonpositive weight is left to the weight check."""
    for token, a in zip(raw.split(","), alpha):
        try:
            ok = a <= 0 or float(a) > 0
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"--alpha weight {token.strip()} is outside double precision")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # a RuntimeError, which would exit 3
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _has(data, key: str) -> bool:
    """Whether ``data``, read from a JSON file, is an object with ``key``."""
    return isinstance(data, dict) and key in data


def _parsed(path: str, build, *fields):
    """``build(*fields)`` on fields read from file ``path``.  A value of the
    wrong type among them, such as a list where a number belongs, raises
    ``TypeError`` naming its field; the refusal names the file too."""
    try:
        return build(*fields)
    except TypeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_support(path: str) -> Support:
    data = _load_json(path)
    if _has(data, "elements"):
        return _parsed(path, Support.from_json, data)
    if _has(data, "entries"):
        return support_of(_parsed(path, SparseTensor.from_json, data))
    raise ValueError(f"{path}: neither a tensor nor a support file")


def _load_tensor(path: str) -> SparseTensor:
    data = _load_json(path)
    if not _has(data, "entries"):
        raise ValueError(f"{path}: not a tensor file")
    return _parsed(path, SparseTensor.from_json, data)


def _load_fields(path: str, what: str, *keys: str) -> list:
    """The values of ``keys`` in the JSON object of file ``path``; a file
    that is not an object with every key is refused as not ``what``."""
    data = _load_json(path)
    for key in keys:
        if not _has(data, key):
            raise ValueError(f"{path}: not {what}, no {key!r} key")
    return [data[key] for key in keys]


def _shift(idx, one_based: bool):
    return [i + 1 for i in idx] if one_based else list(idx)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return json.dumps(value)
    return str(value)


def _emit(payload, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(json.dumps(payload, indent=2))
        stream.write("\n")
    elif fmt == "csv":
        rows = payload if isinstance(payload, list) else [payload]
        keys = list(rows[0].keys())
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_cell(row[k]) for k in keys])
    else:
        rows = payload if isinstance(payload, list) else [payload]
        for row in rows:
            for key, val in row.items():
                stream.write(f"{key}: {_cell(val)}\n")
            if len(rows) > 1:
                stream.write("\n")


def _cmd_trank(args, out) -> int:
    support = _load_support(args.file)
    alpha = _parse_alpha(args.alpha)
    result = trank(support, alpha)
    payload = {
        "command": "trank",
        "value": str(result.value),
        "certificate_ok": result.certificate_ok,
        "primal": [[str(v) for v in mode] for mode in result.primal],
        "dual": [
            {"idx": _shift(idx, args.one_based), "val": str(result.dual[idx])}
            for idx in sorted(result.dual)
        ],
    }
    _emit(payload, args.format, out)
    return EXIT_OK


def _cmd_tslice(args, out) -> int:
    check_count("--limit", args.limit)
    support = _load_support(args.file)
    result = tslice(support, limit=args.limit)
    payload = {
        "command": "tslice",
        "value": result.value,
        "chosen": [_shift(c, args.one_based) for c in sorted(result.chosen)],
    }
    _emit(payload, args.format, out)
    return EXIT_OK


def _cmd_grank(args, out) -> int:
    check_count("--budget", args.budget)
    check_count("--iters", args.iters)
    check_tolerance("--tol", args.tol)
    # numpy loads for this command only, after the checks
    from .complexrank import _EntryOverflow, sandwich

    tensor = _load_tensor(args.file)
    alpha = _parse_alpha(args.alpha)
    if alpha is not None and not tensor.is_zero():  # the zero tensor's bounds take no double
        _check_double_weights(args.alpha, alpha)
    try:
        result = sandwich(
            tensor,
            alpha,
            max_iters=args.iters,
            tol=args.tol,
            budget=args.budget,
            seed=args.seed,
        )
    except _EntryOverflow as exc:  # an entry of the file has no double
        raise ValueError(f"{args.file}: {exc}") from None
    payload = {
        "command": "grank",
        "lower_bound": _round12(result.lower),
        "upper_bound": str(result.upper),
        "iterations": result.report.iterations,
        "stationarity_residual": _round12(result.report.stationarity_residual),
        "ratios": [_round12(r) for r in result.report.ratios],
    }
    _emit(payload, args.format, out)
    return EXIT_OK


def _capset_row(n: int, full: bool) -> dict:
    res = capset.reduced_lp(n)
    row = {
        "n": n,
        "value": str(res.value),
        "bound": res.bound,
        "eg": capset.eg_bound(n),
        "eg_prime": capset.eg_prime_bound(n),
        # reduced_lp returned, so its certificate proved conjectured_t(n)
        # optimal (it raises otherwise): the conjecture matches
        "conjecture_match": None if n < 2 else True,
    }
    if full:
        full_value = capset.full_capset_lp(n)
        row["full_value"] = str(full_value)
        row["full_matches_reduced"] = full_value == res.value
    return row


def _cmd_capset(args, out) -> int:
    for flag, n, low in (
        ("--n", args.n, 1),
        ("--table", args.table, 1),
        # the closed form also certifies n = 1; this range stays 2..60, and
        # conjecture_match stays empty at n = 1, so that no output moves
        ("--verify-conjecture", args.verify_conjecture, 2),
    ):
        if n is not None and not low <= n <= capset.TABLE_MAX_N:
            raise ValueError(f"{flag} must be between {low} and {capset.TABLE_MAX_N}, got {n}")
    if args.verify_conjecture is not None:
        report = capset.verify_conjecture(args.verify_conjecture)
        _emit(report.to_json(), args.format, out)
        return EXIT_OK
    if args.table is not None:
        rows = [_capset_row(n, args.full) for n in range(1, args.table + 1)]
        _emit(rows, args.format, out)
        return EXIT_OK
    if args.n is None:
        raise ValueError("capset needs one of --n, --table, --verify-conjecture")
    _emit(_capset_row(args.n, args.full), args.format, out)
    return EXIT_OK


def _cmd_ncrk(args, out) -> int:
    check_count("--budget", args.budget)
    check_count("--limit", args.limit)
    fields = _load_fields(args.file, "a matrix tuple file", "matrices", "modulus")
    mats = _parsed(args.file, MatrixTuple, *fields)
    payload: dict = {"command": "ncrk", "mode": args.mode}
    code = EXIT_OK
    # Both routes start from the same certified bounds, worked out once and
    # only after an over-limit column space has been refused.
    if args.mode in ("brute", "both"):
        _check_subspace_limit(mats, args.limit)
    bounds = _ncrk_bounds(mats)
    if args.mode in ("brute", "both"):
        payload["brute"] = _ncrk_brute(mats, bounds)
    if args.mode in ("search", "both"):
        ell = min(mats.rows, mats.cols)
        payload["alpha"] = f"1,1,{ell}"
        payload["search"] = _ncrk_search(mats, bounds, args.budget, args.seed)
    if args.mode == "both":
        payload["agree"] = payload["brute"] == payload["search"]
        if not payload["agree"]:
            code = EXIT_SOLVER
    # The search value is an attained upper bound; alone, it is the ncrk
    # only where it meets the certified lower bound.
    if "brute" in payload:
        payload["ncrk"] = payload["brute"]
    elif payload["search"] == bounds[0]:
        payload["ncrk"] = payload["search"]
    _emit(payload, args.format, out)
    return code


def _cmd_slope(args, out) -> int:
    support = _load_support(args.file)
    (exponents,) = _load_fields(args.exponents, "an exponent file", "x")
    value = _parsed(args.exponents, psg_slope, exponents, support, _parse_alpha(args.alpha))
    _emit({"command": "slope", "slope": str(value)}, args.format, out)
    return EXIT_OK


_FILE = (("file",), {"help": "tensor or support JSON file"})
_SEED = (("--seed",), {"type": int, "default": 0})
_TOP = capset.TABLE_MAX_N

# The six commands in the order --help lists them: name, help, handler,
# whether --alpha is taken, and the arguments before the common ones.
_COMMANDS = (
    ("trank", "support rank from the covering LP", _cmd_trank, True, (_FILE,)),
    ("tslice", "minimum slice cover of a support", _cmd_tslice, False, (
        _FILE,
        (("--limit",), {"type": int, "default": 40, "help": "maximum total slice count"}),
    )),
    ("grank", "two-sided stable rank bounds", _cmd_grank, True, (
        (("file",), {"help": "tensor JSON file with rational entries"}),
        (("--budget",), {"type": int, "default": 64, "help": "basis changes to sample"}),
        _SEED,
        (("--iters",), {"type": int, "default": 400, "help": "ascent iterations"}),
        (("--tol",), {"type": float, "default": 1e-10, "help": "ascent stopping tolerance"}),
    )),
    ("capset", "cap-set upper bound table", _cmd_capset, False, (
        (("--n",), {"type": int, "help": f"single table row, 1..{_TOP}"}),
        (("--table",), {"type": int, "metavar": "N", "help": f"rows 1..N, N at most {_TOP}"}),
        (("--verify-conjecture",), {"type": int, "metavar": "N", "help": f"N, 2..{_TOP}"}),
        (("--full",), {"action": "store_true", "help": "also solve the uncollapsed LP"}),
    )),
    ("ncrk", "non-commutative rank of a matrix tuple", _cmd_ncrk, False, (
        (("file",), {"help": "JSON file with modulus and matrices"}),
        (("--mode",), {"choices": ("brute", "search", "both"), "default": "brute"}),
        (("--budget",), {"type": int, "default": 200}),
        _SEED,
        (("--limit",), {"type": int, "default": 1 << 20, "help": "subspace enumeration cap"}),
    )),
    ("slope", "slope of a diagonal subgroup on a support", _cmd_slope, True, (
        _FILE,
        (("--exponents",), {
            "required": True,
            "help": 'JSON file {"x": [[...], ...]} with one exponent row per mode',
        }),
    )),
)
_NAMES = tuple(name for name, *_ in _COMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser: with every subcommand, or with ``command``'s
    alone.  A run that names its command builds only that one; help and
    errors that list the commands see the same text either way."""
    parser = argparse.ArgumentParser(
        prog="stablerank",
        description="Exact stable-rank computations for tensors.",
        epilog=(
            "Exit codes: 0 ok, 2 parse failure, 3 solver anomaly, "
            "4 resource limit.  The environment variable "
            "STABLERANK_MAX_LP_ROWS caps the number of LP constraints."
        ),
    )
    # With one command built, the metavar keeps all six in the usage line of
    # a top-level error; the full build takes none, which would rename
    # "argument command" in its errors.
    listed = {} if command is None else {"metavar": "{" + ",".join(_NAMES) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **listed)
    for name, help_text, handler, alpha, arguments in _COMMANDS:
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument(
            "--one-based",
            action="store_true",
            help="display indices 1-based (storage stays 0-based)",
        )
        if alpha:
            p.add_argument("--alpha", help="comma-separated positive rationals, e.g. 1,1/2,2")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in _NAMES else None).parse_args(argv)
    out = sys.stdout
    try:
        return args.handler(args, out)
    except (LPSizeError, SliceLimitError, SubspaceLimitError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
