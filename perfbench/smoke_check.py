"""Seconds-long checks of the benchmark itself, at the ``--smoke`` sizes.

    python3 -m pytest perfbench/smoke_check.py -q

Not collected by a bare ``pytest`` run (the file name does not start
with ``test_``): every case starts the real daemon, so the suite takes
about a minute.  It checks the result-line contract against
``BENCHMARK.json``, that every declared metric is computed by some
workload, and that the benchmark refuses to run without the program's
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import OVERHEAD_OF, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert set(OVERHEAD_OF) <= {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.fixture(scope="module")
def smoke_runs() -> dict:
    """Every workload at smoke size, untraced and traced, run once:
    ``(workload, trace) -> (completed process, report or None)``."""
    runs = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "3",
                       "--trace", trace, "--smoke")
            path = ROOT / ".perfbench" / "results" / f"{workload}-seed3-trace{trace}.json"
            report = json.loads(path.read_text()) if out.returncode == 0 else None
            runs[workload, trace] = (out, report)
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(smoke_runs, workload, trace):
    out, report = smoke_runs[workload, trace]
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert [(name, entry["unit"]) for name, entry in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in table
    ]
    if trace == "0":
        assert set(report["e2e"]) == {m["name"] for m in table}


def test_every_listed_layer_is_computed(smoke_runs):
    """A declared per-layer name no workload computes would silently read 0."""
    produced = set(OVERHEAD_OF)
    for workload in WORKLOADS:
        _out, report = smoke_runs[workload, "1"]
        produced |= set(report["layers"]) if report else set()
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= produced


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "offline", "--seed", "1", "--seconds", "3",
               "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
