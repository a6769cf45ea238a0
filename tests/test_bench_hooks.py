"""The names the benchmark reaches into the package for still exist.

``bench/tracing.py`` wraps each ``(module, function)`` of its ``TARGETS``
with ``getattr``, and ``bench/worker.py`` records ``stablerank.lp._Q`` as
the arithmetic backend.  Removing or renaming one of them breaks the
benchmark, so this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.TARGETS)


@pytest.mark.parametrize("module,attr", _targets())
def test_trace_target_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"stablerank.{module}"), attr))


def test_worker_reads_the_backend():
    from stablerank import lp

    assert isinstance(lp._Q, type)  # the worker prints its module and qualname
