"""Benchmark worker: one process that imports stablerank, builds one
workload's inputs and runs timed passes over them.

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's ``src``
and reads the single JSON line it prints.  ``ready`` is the monotonic clock
once the inputs exist, so the parent can time interpreter start, import and
input generation together.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracing import Tracer, install, layer_metrics
from workloads import WORKLOADS


def _environment() -> dict:
    import numpy

    from stablerank import lp

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": sys.version.split()[0],
        "backend": f"{lp._Q.__module__}.{lp._Q.__qualname__}",
        "numpy": numpy.__version__,
        "scipy": scipy_version,
    }


REF_INTERVAL_S = 0.1


def reference_loop() -> float:
    """Seconds one fixed loop of exact rational and dict arithmetic takes,
    the kind of work the package's inner loops do."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(1, 1000):
        q = Fraction(i % 89 + 1, i % 97 + 1) * Fraction(3, i % 7 + 1) - Fraction(1, i % 5 + 1)
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + q
    return time.perf_counter() - t0


class PassClock:
    """Times a pass, and samples the reference loop evenly over it.

    On a shared host the processor's speed drifts by a third within seconds
    as other tenants load it, and wall times drift with it.  A pass's wall
    time divided by the mean reference time sampled over the same stretch
    cancels most of that.  A timer signal runs the loop every
    ``REF_INTERVAL_S`` in the middle of the pass; the pass clock excludes
    those pauses.  In a traced pass each pause is a ``bench.reference`` span,
    so it counts in no layer's self time.
    """

    def __init__(self, tracer: Tracer | None):
        self.loop = reference_loop if tracer is None else tracer.wrap("bench.reference", reference_loop)

    def start(self) -> None:
        self.refs = [reference_loop()]
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        self.t0 = time.perf_counter()

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.refs.append(self.loop())
        self.paused += time.perf_counter() - t0

    def stop(self) -> tuple[float, float]:
        """Pass seconds net of the pauses, and the mean reference seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - self.t0 - self.paused
        self.refs.append(reference_loop())
        return seconds, sum(self.refs) / len(self.refs)


def _check(workload, items, outputs) -> tuple[int, list[str], str]:
    """Failed count, first errors, and sha256 of the canonical outputs."""
    failed, errors, canonical = 0, [], []
    for k, (item, out) in enumerate(zip(items, outputs)):
        if isinstance(out, Exception):
            ok, value = False, f"error: {out!r}"
        else:
            try:
                ok, value = bool(workload.check(item, out)), workload.canonical(out)
            except Exception as exc:  # a malformed output fails its check
                ok, value = False, f"check error: {exc!r}"
        if not ok:
            failed += 1
            errors.append(f"input {k}: {value}")
        canonical.append(value)
    blob = json.dumps(canonical, sort_keys=True, default=str).encode()
    return failed, errors[:5], hashlib.sha256(blob).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", type=Path, help="file the traced spans are written to")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    for name in workload.modules:
        module = importlib.import_module(name)
    src = (args.root / "src").resolve()
    if src not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"imported {module.__file__}, not the package under {src}")
    items = workload.inputs(args.seed, args.quick, args.root)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.traced:
        tracer = Tracer()
        install(tracer)
    passes, spans = [], []
    clock = PassClock(tracer)
    start = time.monotonic()
    while True:
        index = len(passes)

        def begin(k):
            if tracer is not None:
                tracer.input = f"{index}.{k}"

        clock.start()
        outputs = workload.run(items, begin)
        seconds, ref_seconds = clock.stop()
        record = {"seconds": seconds, "ref_seconds": ref_seconds}
        if tracer is not None:
            pass_spans = tracer.take()
            record["layer"] = layer_metrics(pass_spans)
            spans.extend([index, *s] for s in pass_spans)
        if args.inject_fault and not isinstance(outputs[0], Exception):
            outputs[0] = workload.corrupt(outputs[0])
        record["failed"], record["errors"], record["digest"] = _check(workload, items, outputs)
        passes.append(record)
        if workload.fresh_process or time.monotonic() - start >= args.seconds:
            break

    if args.spans is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        keys = ("pass", "input", "id", "parent", "name", "start", "end", "attrs")
        with args.spans.open("w") as fh:
            for s in spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
    print(json.dumps({
        "ready": ready,
        "items": len(items),
        "passes": passes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": _environment(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
