"""Self-test of the benchmark: ``python -m pytest bench/``.

A short run of every workload, untraced and traced: the result line
carries every declared metric with its unit, the traced run records
calls in each layer the workload exercises, and both runs produce the
same result digests.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench",
                                                        "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def measured(workload: str, trace: int) -> tuple[dict, dict]:
    out = run("--workload", workload, "--seed", "1", "--seconds", "0.5",
              "--trace", str(trace), "--out", "-")
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload(workload):
    sys.path.insert(0, BENCH)
    from tracer import WORKLOAD_LAYERS

    record, result = measured(workload, 0)
    assert set(result) == RESULT_KEYS
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced, traced_result = measured(workload, 1)
    assert traced_result["correct"], traced["problems"]
    assert {name: m["unit"] for name, m in
            traced_result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    silent = [layer for layer in WORKLOAD_LAYERS[workload]
              if not traced_result["metrics"][f"{layer}.calls"]["value"]]
    assert not silent, f"no spans recorded for {silent}"
    schemes = [name for name in traced_result["metrics"]
               if name.startswith("faults.scheme.")]
    assert schemes
    assert all(bool(traced_result["metrics"][name]["value"])
               == (workload == "campaign") for name in schemes)

    shared = set(record["digests"]) & set(traced["digests"])
    assert shared
    assert all(record["digests"][key] == traced["digests"][key]
               for key in shared)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run("--workload", "fleet-control", "--seed", "1",
              "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_compare_verdicts():
    sys.path.insert(0, BENCH)
    from compare import verdict

    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    faster = [80.0, 81.0, 79.0, 80.5, 79.5]
    assert verdict(base, faster, list(zip(base, faster)), "lower",
                   0.1)[0] == "better"
    assert verdict(faster, base, list(zip(faster, base)), "lower",
                   0.1)[0] == "worse"
    assert verdict(base, base, list(zip(base, base)), "lower",
                   0.1)[0] == "unchanged"
    noisy = [50.0, 100.0, 150.0, 75.0, 125.0]
    assert verdict(noisy, base, list(zip(noisy, base)), "lower",
                   0.1)[0] == "unresolved"
