"""Smoke test of the benchmark itself, on shrunken workloads.

    python3 -m pytest bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
from run import tail  # noqa: E402


def _run(workload: str, seed: int, trace: int, root: Path = ROOT):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr + proc.stdout[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_are_the_declared_ones(workload, trace, kind):
    metrics = _result(_run(workload, 1, trace))["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    for m in metrics.values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_check(workload):
    _result(_run(workload, 2, 0))


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 1, 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_leaves_ten_samples_beyond():
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
