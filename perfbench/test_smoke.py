"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload must print each of its end-to-end metrics by name with its
unit, the last line must follow the result format, ``sweep`` / ``query`` /
``verify`` must report no failed operation, and a traced run must report
every per-layer metric.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "frac"}
PRINTED = {
    "sweep": {"solve_s_p50": "s", "solves_per_s": "1/s"},
    "query": {"query_us_p50": "us", "query_us_p99": "us"},
    "verify": {"verify_s_p50": "s", "mc_msteps_per_s": "M/s", "trace_steps_per_s": "1/s"},
    "fuzz": {"fuzz_solved_frac": "frac", "fuzz_untyped_frac": "frac"},
}
MUST_NOT_FAIL = ("sweep", "query", "verify")


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _printed(stdout):
    """{name: (value, unit)} from the report lines above the result."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    proc = _run(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    printed = _printed(proc.stdout)
    for name, unit in {**COMMON, **PRINTED[workload]}.items():
        assert name in printed, f"{workload}: {name} not printed"
        assert printed[name][1] == unit, f"{workload}: {name} unit {printed[name][1]}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {name: unit for name, unit, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload in MUST_NOT_FAIL:
        assert printed["failed_frac"][0] == 0.0
        assert result["failed"] == 0 and result["correct"]


@pytest.mark.parametrize("workload", MUST_NOT_FAIL)
def test_per_layer_metrics_reported(workload):
    proc = _run(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {name: unit for name, unit, _ in run.PER_LAYER}
    assert result["failed"] == 0
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "verify":
        # quadrature runs only in set-up: the analytic values are precomputed
        assert layers["fundamental.quad_calls"] == 0
        assert layers["simulate.many_s"] > 0
    if workload == "sweep":
        assert layers["fundamental.quad_calls"] > 0
        assert layers["simulate.many_s"] == 0


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("sweep", trace=0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
