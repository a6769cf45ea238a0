"""Spans around calls into stablerank's public functions, installed from outside.

``install`` replaces each target function with a wrapper in every module of
the package that bound it, so a call through ``from .lp import solve`` is
traced as well as one through ``stablerank.lp.solve``.  Spans stay in memory;
``layer_metrics`` turns one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, function) -> span name.  Two functions may share a span name.
TARGETS = {
    ("lp", "solve"): "lp.solve",
    ("lp", "verify_certificate"): "lp.verify",
    ("tensors", "mode_transform"): "tensors.mode_transform",
    ("tensors", "support_of"): "tensors.support_of",
    ("ranks", "trank"): "ranks.trank",
    ("ranks", "build_lp"): "ranks.build_lp",
    ("ranks", "tslice"): "ranks.tslice",
    ("ranks", "grank_upper_search"): "ranks.search",
    ("ranks", "ncrk_bruteforce"): "ranks.ncrk_brute",
    ("ranks", "ncrk_via_grank"): "ranks.ncrk_search",
    ("complexrank", "sandwich"): "complexrank.sandwich",
    ("complexrank", "ascend"): "complexrank.ascend",
    ("complexrank", "spectral_norm"): "complexrank.spectral_norm",
    ("complexrank", "stationarity_residual"): "complexrank.stationarity",
    ("capset", "reduced_lp"): "capset.reduced_lp",
    ("capset", "verify_conjecture"): "capset.conjecture",
    ("capset", "eg_bound"): "capset.cutoffs",
    ("capset", "eg_prime_bound"): "capset.cutoffs",
    ("cli", "main"): "cli.main",
}


def _solve_attrs(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    return {"rows": lp.num_rows, "cols": lp.num_vars}


def _verify_attrs(args, kwargs, result):
    return {"ok": result is True}


def _ascend_attrs(args, kwargs, result):
    return {"iterations": result.iterations}


ATTRS = {"lp.solve": _solve_attrs, "lp.verify": _verify_attrs, "complexrank.ascend": _ascend_attrs}


class Tracer:
    """Records spans as ``[input, id, parent, name, start, end, attrs]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.input = None

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [self.input, sid, self.stack[-1] if self.stack else None, name, 0.0, 0.0, None]
            self.spans.append(span)
            self.stack.append(sid)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                self.stack.pop()
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        return traced

    def take(self) -> list[list]:
        """The spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded ``stablerank`` module that binds it.

    Targets of a module that is not loaded are skipped: nothing can call them.
    """
    modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "stablerank"]
    for (mod, attr), name in TARGETS.items():
        module = sys.modules.get(f"stablerank.{mod}")
        if module is None:
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original)
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is original]:
                setattr(m, key, wrapper)
    program = sys.modules["stablerank.lp"].LinearProgram
    program.__init__ = tracer.wrap("lp.program", program.__init__)


# Per-layer metric -> unit.  Times and counts are per pass.
UNITS = {
    "lp.solve.calls": "count",
    "lp.solve.self_s": "s",
    "lp.solve.rows": "count",
    "lp.solve.cols": "count",
    "lp.solve.dual_share": "ratio",
    "lp.program.self_s": "s",
    "lp.verify.calls": "count",
    "lp.verify.self_s": "s",
    "lp.verify.failed": "count",
    "ranks.trank.calls": "count",
    "ranks.build_lp.self_s": "s",
    "ranks.tslice.self_s": "s",
    "ranks.tslice.lp_solves": "count",
    "ranks.search.samples": "count",
    "ranks.search.trank_calls": "count",
    "ranks.search.cache_hit_ratio": "ratio",
    "ranks.ncrk_brute.self_s": "s",
    "tensors.mode_transform.calls": "count",
    "tensors.mode_transform.self_s": "s",
    "tensors.support_of.self_s": "s",
    "complexrank.ascend.self_s": "s",
    "complexrank.ascend.iterations": "count",
    "complexrank.spectral_norm.calls": "count",
    "complexrank.spectral_norm.self_s": "s",
    "complexrank.stationarity.self_s": "s",
    "capset.reduced_lp.self_s": "s",
    "capset.conjecture.self_s": "s",
    "capset.cutoffs.self_s": "s",
    "cli.main.self_s": "s",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it.
    """
    by_id = {s[1]: s for s in spans}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        self_s[s[3]] = self_s.get(s[3], 0.0) + (s[5] - s[4])
        calls[s[3]] = calls.get(s[3], 0) + 1
        if s[2] is not None:
            parent = by_id[s[2]][3]
            self_s[parent] -= s[5] - s[4]

    def parent_name(s):
        return None if s[2] is None else by_id[s[2]][3]

    def under(s, name):
        while s[2] is not None:
            s = by_id[s[2]]
            if s[3] == name:
                return True
        return False

    solves = [s for s in spans if s[3] == "lp.solve"]
    sized = [s[6] for s in solves if s[6]]  # a solve that raised has no size
    samples = sum(1 for s in spans if s[3] == "tensors.support_of" and parent_name(s) == "ranks.search")
    search_tranks = sum(1 for s in spans if s[3] == "ranks.trank" and parent_name(s) == "ranks.search")
    out = {
        "lp.solve.calls": len(solves),
        "lp.solve.rows": statistics.fmean([a["rows"] for a in sized]) if sized else 0.0,
        "lp.solve.cols": statistics.fmean([a["cols"] for a in sized]) if sized else 0.0,
        "lp.solve.dual_share": (
            sum(1 for a in sized if a["rows"] > 2 * a["cols"] + 8) / len(sized) if sized else 0.0
        ),
        "lp.verify.calls": calls.get("lp.verify", 0),
        "lp.verify.failed": sum(1 for s in spans if s[3] == "lp.verify" and not (s[6] and s[6]["ok"])),
        "ranks.trank.calls": calls.get("ranks.trank", 0),
        "ranks.tslice.lp_solves": sum(1 for s in solves if under(s, "ranks.tslice")),
        "ranks.search.samples": samples,
        "ranks.search.trank_calls": search_tranks,
        "ranks.search.cache_hit_ratio": 1 - search_tranks / samples if samples else 0.0,
        "tensors.mode_transform.calls": calls.get("tensors.mode_transform", 0),
        "complexrank.ascend.iterations": sum(
            s[6]["iterations"] for s in spans if s[3] == "complexrank.ascend" and s[6]
        ),
        "complexrank.spectral_norm.calls": calls.get("complexrank.spectral_norm", 0),
    }
    for metric in UNITS:
        if metric.endswith(".self_s"):
            out[metric] = self_s.get(metric[: -len(".self_s")], 0.0)
    return out
