"""Smoke check of the benchmark harness itself, on 10x10 lattices.

    python3 -m pytest perfbench/test_smoke.py

Runs all three workloads untraced and traced, and checks that every metric
BENCHMARK.json names is printed with its unit, that the outputs pass their
checks, and that the harness refuses to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "all",
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--side", "10"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(trace: int) -> tuple[str, dict]:
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return proc.stdout, result["metrics"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_printed(trace, section):
    text, metrics = _result(trace)
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for workload in WORKLOADS:
        printed = {k[len(workload) + 1:]: v for k, v in metrics.items()
                   if k.startswith(workload + ".")}
        assert {k: v["unit"] for k, v in printed.items()} == expected
        assert f"workload {workload}:" in text
    for name in expected:
        assert f"  {name} " in text
    if trace == 0:
        assert "  fail_ratio " in text
    else:
        assert metrics["county_pipeline.cluster.calls"]["value"] > 0
        assert metrics["metro_regress.spatial_models.log_det_calls"]["value"] > 0
        for layer in ("cluster", "spatial_models"):
            assert metrics[f"state_hotspot.{layer}.calls"]["value"] == 0


def test_refuses_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
