"""Benchmark of the stablerank package: four workloads, every output checked.

Run from the repository root:

    python3 bench/run.py --workload capset-table --seed 1 --seconds 10 --trace 0
    python3 bench/run.py                  # every workload, then a table
    python3 -m pytest -q bench            # quick mode: shrunken workloads

The load is one closed-loop client: each input starts when the previous one
has finished.  The work runs in child processes (``worker.py``) that import
``src/stablerank`` from this checkout with BLAS pinned to one thread.
``capset-table`` starts a fresh process for every pass, because the package
caches solved LPs in memory and every CLI call pays the cold cost.  Passes
repeat until ``--seconds`` have gone by.

``--trace 0`` prints the end-to-end metrics of a workload:

    wall_ref       median over passes of a pass's wall time divided by the
                   mean time of a fixed reference loop sampled during it
                   (``worker.PassClock``); the host's speed drift cancels
    items_per_ref  inputs per reference-loop time, the inverse of the above
    setup_s        median of several process starts: interpreter start,
                   import of stablerank and input generation or parsing
    peak_rss_mb    peak resident set size of the process that does the work

The report line also holds the plain wall time of a pass (``wall_s``), the
inputs per second (``items_per_s``) and the share of inputs whose output
check failed or that raised (``fail_ratio``); the table prints all of them.

``--trace 1`` runs half the time untraced and half with spans installed
around the package's public functions (``tracing.py``), and prints the
per-layer metrics, the traced pass time and the tracing overhead (traced
minus untraced pass time at the same reference speed).  Spans are written
to ``.bench_out/``.

Output: one report line per workload (environment, seed, outputs' sha256,
failures), then the result object as the last line.  The exit code is 1
when an output check fails, 2 when the package is missing, 3 when a worker
crashes or the time limit is hit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 9

END_TO_END_UNITS = {"wall_ref": "ref", "items_per_ref": "items/ref", "setup_s": "s", "peak_rss_mb": "MB"}
TABLE_UNITS = {"wall_s": "s", "items_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB",
               "fail_ratio": "ratio", "wall_ref": "ref"}
LAYER_UNITS = {**UNITS, "trace.wall_s": "s", "trace.overhead_s": "s"}


class HarnessError(RuntimeError):
    """A worker crashed, printed no result, or the time limit ran out."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = _child_env()
        self.deadline = 0.0

    def spawn(self, workload: str, seed: int, *extra: str) -> dict:
        """Run one worker; its result plus ``setup`` seconds from spawn to ready."""
        cmd = [sys.executable, str(WORKER), "--root", str(ROOT), "--workload", workload,
               "--seed", str(seed), *extra]
        if self.args.quick:
            cmd.append("--quick")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{workload} worker killed at the {TIME_LIMIT_S:.0f} s limit")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise HarnessError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(lines[-1])
        result["setup"] = result["ready"] - spawned
        return result

    def measure(self, workload: str, seed: int, seconds: float, traced: bool, spans: Path | None) -> list[dict]:
        """Workers that run passes for ``seconds``, at least one pass."""
        extra = ["--traced"] if traced else []
        if self.args.inject_fault:
            extra.append("--inject-fault")
        if WORKLOADS[workload].fresh_process:
            results, start = [], time.monotonic()
            while not results or time.monotonic() - start < seconds:
                path = ["--spans", str(spans.with_suffix(f".{len(results)}.jsonl"))] if spans else []
                results.append(self.spawn(workload, seed, *extra, *path))
            return results
        path = ["--spans", str(spans.with_suffix(".jsonl"))] if spans else []
        return [self.spawn(workload, seed, "--seconds", str(seconds), *extra, *path)]

    def run(self, workload: str, seed: int, seconds: float, trace: bool) -> dict:
        """Measure one workload; the report holds metrics and checks."""
        self.deadline = time.monotonic() + TIME_LIMIT_S
        if trace:
            spans = OUT_DIR / f"{workload}-seed{seed}"
            plain = self.measure(workload, seed, seconds / 2, False, None)
            traced = self.measure(workload, seed, seconds / 2, True, spans)
            workers = plain + traced
        else:
            plain = workers = self.measure(workload, seed, seconds, False, None)
        passes = [p for w in workers for p in w["passes"]]
        items = workers[0]["items"]
        attempted = items * len(passes)
        failed = sum(p["failed"] for p in passes)
        digests = sorted({p["digest"] for p in passes})
        plain_passes = [p for w in plain for p in w["passes"]]
        wall = statistics.median(p["seconds"] for p in plain_passes)
        wall_ref = statistics.median(p["seconds"] / p["ref_seconds"] for p in plain_passes)
        if trace:
            traced_passes = [p for w in traced for p in w["passes"]]
            metrics = {name: statistics.median_low(p["layer"][name] for p in traced_passes) for name in UNITS}
            traced_ref = statistics.median(p["ref_seconds"] for p in traced_passes)
            traced_wall_ref = statistics.median(p["seconds"] / p["ref_seconds"] for p in traced_passes)
            metrics["trace.wall_s"] = statistics.median(p["seconds"] for p in traced_passes)
            # At the traced passes' speed, so that the host's drift cancels.
            metrics["trace.overhead_s"] = (traced_wall_ref - wall_ref) * traced_ref
            units = LAYER_UNITS
        else:
            setups = [w["setup"] for w in workers]
            setup_runs = 2 if self.args.quick else SETUP_SAMPLES
            while len(setups) < setup_runs:
                setups.append(self.spawn(workload, seed, "--setup-only")["setup"])
            metrics = {
                "wall_ref": wall_ref,
                "items_per_ref": items / wall_ref,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(w["maxrss_kb"] for w in workers) / 1024,
            }
            units = END_TO_END_UNITS
        return {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "quick": self.args.quick,
            "correct": failed == 0 and len(digests) == 1,
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "wall_s": wall,
            "items_per_s": items / wall,
            "passes": len(passes),
            "pass_seconds": [p["seconds"] for p in passes],
            "ref_seconds": [p["ref_seconds"] for p in passes],
            "setup_seconds": [w["setup"] for w in workers],
            "output_sha256": digests,
            "errors": [e for p in passes for e in p["errors"]][:5],
            "env": {**_environment(), **workers[0]["env"]},
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        }


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _environment() -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stablerank").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "source_sha256": source.hexdigest(),
        **_git_state(),
    }


def _result(report: dict) -> dict:
    return {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}


def _table(reports: list[dict]) -> str:
    header = f"{'workload':<16}" + "".join(f"{f'{n} [{u}]':>24}" for n, u in TABLE_UNITS.items())
    rows = [header]
    for r in reports:
        values = {**r, **{n: m["value"] for n, m in r["metrics"].items()}}
        rows.append(f"{r['workload']:<16}" + "".join(f"{values[n]:>24.6g}" for n in TABLE_UNITS))
    return "\n".join(rows)


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the stablerank package.")
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0, help="measured time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="shrink every workload")
    ap.add_argument("--inject-fault", action="store_true", help="corrupt one output per pass")
    args = ap.parse_args()

    if not (ROOT / "src" / "stablerank" / "__init__.py").is_file():
        print(f"error: no stablerank package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    try:
        for name in names:
            reports.append(runner.run(name, args.seed, args.seconds, bool(args.trace)))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for report in reports:
        print(json.dumps(report))
    if args.workload != "all":
        print(json.dumps(_result(reports[0])))
    else:
        if not args.trace:
            print(_table(reports))
        print(json.dumps({r["workload"]: _result(r) for r in reports}))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
