"""The harness in quick mode: every declared metric is emitted, checks bite.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1", "--quick", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace, section):
    code, lines = run_bench("--workload", workload, "--trace", str(trace))
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    report = json.loads(lines[-2])
    assert report["fail_ratio"] == 0 and report["env"]["backend"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_output_is_counted(workload):
    code, lines = run_bench("--workload", workload, "--trace", "0", "--inject-fault")
    assert code == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert json.loads(lines[-2])["fail_ratio"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not lines
