"""Smoke test of the benchmark harness on the CLI tests' tiny world.

Runs every workload's code path, untraced and traced, through the real
command (`run.py`), with the build cached in a temporary directory. Takes
seconds:

    python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

# The end-to-end metrics every workload prints by name (some as n/a).
REPORTED = ("setup_s", "peak_rss_mb", "failed_frac", "query_p50_s",
            "query_tail_s", "queries_per_s", "acc_0.25m_2deg", "median_t_m",
            "median_r_deg", "map_bytes", "train_epoch_s", "train_step_tail_s",
            "train_final_loss")


def bench(cache: Path, workload: str, trace: int, run_py: Path = HERE / "run.py",
          cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--profile", "tiny",
         "--cache-root", str(cache), "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.fixture(scope="module")
def cache(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("bench_cache")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_untraced_then_traced(cache, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(cache, workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stdout
        assert result["attempted"] >= 1
        # the tiny maps are too weak to localize; their training never fails
        assert result["failed"] == (result["attempted"]
                                    if workload.startswith("localize") else 0)
        units = {m["name"]: m["unit"] for m in DECLARED[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        shown = {line.split()[0] for line in lines[:-1] if line.strip()}
        assert set(REPORTED) <= shown
    # both modes of one seed have run: their outputs were compared
    assert any(line.startswith("output check") and "identical" in line
               for line in lines), proc.stdout


def test_refuses_without_sources(tmp_path):
    """In a directory holding only the benchmark it exits non-zero and
    prints no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path / "cache", WORKLOADS[0], 0,
                 run_py=tmp_path / "perfbench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
