"""Simulator throughput microbenchmark (instructions per second).

Tracks the raw speed of the two inner loops everything else is built
on: functional execution (``FunctionalCore.run`` via the system's
execute path) and timing replay (``TimingModel.simulate``).  Each is
measured best-of-N on a steady-state (warm) workload, so dispatch-table
construction and per-program metadata passes are amortised exactly as
they are in real sweeps.  A second benchmark measures sweep-pool
occupancy with stage-granular dispatch (trace + cell tasks) against the
old benchmark-granular grouping, on a pool wider than the benchmark
count — the ``jobs > #benchmarks`` case the stage split exists for.

Merges results into ``BENCH_throughput.json`` at the repo root, so the
perf trajectory is visible PR over PR.
"""

import json
import os
import time
from pathlib import Path

from repro.core.system import CheckMode, ParaVerserSystem, warm_addresses
from repro.cpu.timing import TimingModel
from repro.harness.experiments import a510, x2
from repro.harness.parallel import SweepCell, SweepRunner
from repro.harness.runner import _probe_config, main_x2, make_config
from repro.mem.hierarchy import SharedUncore
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile

#: Object-trace (one heap object per committed instruction)
#: implementation, from the commit preceding the columnar-trace pass —
#: measured interleaved with the columnar stack in one session on the
#: same machine (gcc profile, 30 k instructions, best of 5, best of 3
#: rounds), so the speedup figures below compare like with like.
PRE_PR_FUNCTIONAL_IPS = 530_034
PRE_PR_TIMING_IPS = 311_734

BENCH = "gcc"
#: Reduce via REPRO_BENCH_BUDGET for smoke runs (e.g. CI); speedup
#: figures are only comparable at the default 30 k budget.
BUDGET = int(os.environ.get("REPRO_BENCH_BUDGET", 30_000))
REPS = int(os.environ.get("REPRO_BENCH_REPS", 5))
SEED = 7

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def _merge_artifact(update: dict) -> dict:
    """Read-modify-write ``BENCH_throughput.json`` so each benchmark
    refreshes only its own section."""
    payload = {}
    if ARTIFACT.is_file():
        try:
            payload = json.loads(ARTIFACT.read_text())
        except ValueError:
            payload = {}
    payload.update(update)
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _best_of(reps, fn):
    best = float("inf")
    value = None
    for _ in range(reps):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, value


def _functional_rate(program):
    system = ParaVerserSystem(_probe_config(SEED))
    system.execute(program, BUDGET)  # warm-up: builds dispatch tables
    elapsed, run = _best_of(REPS, lambda: system.execute(program, BUDGET))
    return run.instructions / elapsed, run


def _timing_rate(program, run):
    main = main_x2()
    hierarchy = main.config.hierarchy
    uncore = SharedUncore(hierarchy.l3, hierarchy.dram,
                          hierarchy.uncore_clock_ghz)
    model = TimingModel(main, uncore)
    model.warm_data(warm_addresses(program))
    model.simulate(program, run.columns)  # warm-up: caches + metadata pass
    elapsed, _ = _best_of(
        REPS, lambda: model.simulate(program, run.columns))
    return len(run.columns) / elapsed


def test_bench_throughput(benchmark):
    program = build_program(get_profile(BENCH), seed=SEED)

    def measure():
        functional_ips, run = _functional_rate(program)
        timing_ips = _timing_rate(program, run)
        return functional_ips, timing_ips

    functional_ips, timing_ips = benchmark.pedantic(
        measure, rounds=1, iterations=1)

    payload = {
        "benchmark": BENCH,
        "instructions": BUDGET,
        "reps": REPS,
        "functional_inst_per_sec": round(functional_ips),
        "timing_inst_per_sec": round(timing_ips),
        "pre_pr_functional_inst_per_sec": PRE_PR_FUNCTIONAL_IPS,
        "pre_pr_timing_inst_per_sec": PRE_PR_TIMING_IPS,
        "functional_speedup": round(
            functional_ips / PRE_PR_FUNCTIONAL_IPS, 3),
        "timing_speedup": round(timing_ips / PRE_PR_TIMING_IPS, 3),
    }
    _merge_artifact(payload)

    print(f"\nfunctional: {functional_ips:,.0f} inst/s "
          f"({payload['functional_speedup']:.2f}x pre-PR)")
    print(f"timing:     {timing_ips:,.0f} inst/s "
          f"({payload['timing_speedup']:.2f}x pre-PR)")

    assert functional_ips > 0 and timing_ips > 0


# -- sweep-pool occupancy: stage-granular vs benchmark-granular --------------

SWEEP_BENCHMARKS = ("exchange2", "xz", "mcf")
SWEEP_JOBS = 4  # deliberately wider than the benchmark count


def _sweep_cells():
    cells = []
    for bench in SWEEP_BENCHMARKS:
        cells.append(SweepCell(bench, "2xA510",
                               make_config([a510(2.0)] * 2)))
        cells.append(SweepCell(bench, "1xX2-opp",
                               make_config([x2(3.0)],
                                           CheckMode.OPPORTUNISTIC)))
    return cells


def _run_sweep(stage_overlap: bool) -> dict:
    runner = SweepRunner(jobs=SWEEP_JOBS, max_instructions=BUDGET,
                         seed=SEED, stage_overlap=stage_overlap)
    try:
        runner.run(_sweep_cells())
    finally:
        runner.close()
    stats = runner.last_stats
    return {
        "tasks": stats["tasks"],
        "elapsed_s": round(stats["elapsed_s"], 3),
        "busy_s": round(stats["busy_s"], 3),
        "occupancy": round(stats["occupancy"], 3),
    }


def test_bench_sweep_overlap(benchmark):
    """Stage tasks vs whole-benchmark tasks on jobs > #benchmarks."""

    def measure():
        return _run_sweep(False), _run_sweep(True)

    grouped, staged = benchmark.pedantic(measure, rounds=1, iterations=1)

    payload = {"sweep_overlap": {
        "benchmarks": list(SWEEP_BENCHMARKS),
        "configs_per_benchmark": 2,
        "instructions": BUDGET,
        "jobs": SWEEP_JOBS,
        # Wall-time wins need real cores; on narrower hosts the stage
        # split still shows up as pool occupancy (no idle slots while
        # traces compute) plus per-task busy time inflated by
        # time-slicing.
        "host_cpus": os.cpu_count(),
        "benchmark_granular": grouped,
        "stage_granular": staged,
        "occupancy_gain": round(
            staged["occupancy"] / grouped["occupancy"], 3)
        if grouped["occupancy"] > 0 else None,
    }}
    _merge_artifact(payload)

    print(f"\ngrouped (benchmark tasks): {grouped['tasks']} tasks, "
          f"{grouped['elapsed_s']:.2f}s wall, "
          f"occupancy {grouped['occupancy']:.2f}")
    print(f"staged  (stage tasks):     {staged['tasks']} tasks, "
          f"{staged['elapsed_s']:.2f}s wall, "
          f"occupancy {staged['occupancy']:.2f}")

    # The split itself is deterministic: a trace task per benchmark plus
    # a task per cell, against one task per benchmark.
    assert grouped["tasks"] == len(SWEEP_BENCHMARKS)
    assert staged["tasks"] == len(SWEEP_BENCHMARKS) * 3
    assert 0.0 < staged["occupancy"] <= 1.0
