"""Smoke test of the benchmark: each workload once, in the shortest run.

Run from the repository root with ``python3 -m pytest perfbench`` (about
a minute).  It checks that both modes print every metric
``BENCHMARK.json`` names, with its unit and a finite value, and that the
command refuses to report when the program's source is missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(cwd / HERE.name / "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in expected)
    for metric in expected:
        reported = metrics[metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(reported["value"]), metric["name"]


def test_refuses_without_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "digest", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
