"""Smoke test of the benchmark at tiny sizes, in both trace modes.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py

Checks that every workload prints exactly the metrics BENCHMARK.json names,
with their units, that outputs pass their checks, that idle layers read zero
where they should, and that the benchmark refuses to run without the sources.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_the_declared_metrics(workload, trace, section):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == declared
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_idle_layers_read_zero(workload):
    metrics = run(workload, 1)["metrics"]
    evals = metrics["karcher.linesearch.evals"]["value"]
    reads = metrics["files.read_subspace_file.calls"]["value"]
    sources = metrics["blindid.generate_sources.calls"]["value"]
    assert (evals > 0) == (workload == "karcher-cloud")
    assert (reads > 0) == (workload == "cli-file-mean")
    assert (sources > 0) == (workload == "bi-trials")
    assert metrics["karcher.karcher_mean.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
