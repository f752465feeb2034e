"""Smoke test of the benchmark: every workload, untraced and traced, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py

Checks the result-line contract of BENCHMARK.json, that every declared
per-layer metric is measured by at least one workload, and that the
benchmark refuses to run where there is no rydkit source.
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
_results: dict[tuple[str, int], dict] = {}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.2",
           "--trace", str(trace), "--smoke"]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int) -> dict:
    if (workload, trace) not in _results:
        proc = run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        _results[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _results[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_every_layer_metric_is_measured():
    unmeasured = [m["name"] for m in SPEC["per_layer"]
                  if not any(result(w, 1)["metrics"][m["name"]]["value"] > 0 for w in WORKLOADS)]
    assert unmeasured == []


def test_fails_without_rydkit_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
