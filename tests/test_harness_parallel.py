"""Parallel sweep engine: jobs>1 must match the serial path exactly."""

import pytest

from repro.core.system import CheckMode
from repro.harness.experiments import a510, x2
from repro.harness.parallel import (
    _WORKER_CACHES,
    WORKER_CACHE_LIMIT,
    SweepCell,
    SweepRunner,
    plan_chunks,
    worker_cache,
)
from repro.harness.runner import WorkloadCache, env_jobs, make_config

BUDGET = 4000
SEED = 7


def _cells():
    """2 benchmarks x 2 configs, interleaved like a figure sweep."""
    cells = []
    for bench in ("exchange2", "xz"):
        cells.append(SweepCell(bench, "2xA510",
                               make_config([a510(2.0)] * 2)))
        cells.append(SweepCell(bench, "1xX2-opp",
                               make_config([x2(3.0)],
                                           CheckMode.OPPORTUNISTIC)))
    return cells


def _fingerprint(result):
    return (
        result.baseline_time_ns,
        result.checked_time_ns,
        result.slowdown,
        result.coverage,
        result.stall_ns,
        result.segments,
        result.lsl_bytes,
        result.noc_extra_llc_ns,
        result.main_timing.cycles,
        result.main_timing.mispredicts,
        result.baseline_timing.cycles,
    )


def test_jobs2_matches_serial():
    cells = _cells()
    serial = WorkloadCache(max_instructions=BUDGET, seed=SEED,
                           trace_cache=None, jobs=1)
    want = [_fingerprint(r) for r in serial.sweep(cells)]

    parallel = WorkloadCache(max_instructions=BUDGET, seed=SEED,
                             trace_cache=None, jobs=2)
    try:
        got = [_fingerprint(r) for r in parallel.sweep(cells)]
    finally:
        parallel.close()

    # Same ordering and the same numbers, cell for cell.
    assert got == want


def test_sweep_runner_preserves_cell_order():
    cells = _cells()
    runner = SweepRunner(jobs=2, max_instructions=BUDGET, seed=SEED)
    try:
        results = runner.run(cells)
    finally:
        runner.close()
    assert len(results) == len(cells)
    cache = WorkloadCache(max_instructions=BUDGET, seed=SEED,
                          trace_cache=None, jobs=1)
    for cell, result in zip(cells, results):
        want = cache.run_config(cell.benchmark, cell.config)
        assert _fingerprint(result) == _fingerprint(want)


def test_env_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert env_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert env_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert env_jobs() >= 1  # resolves to the CPU count


def test_sweep_serial_fallback_uses_no_pool():
    cache = WorkloadCache(max_instructions=BUDGET, seed=SEED,
                          trace_cache=None, jobs=1)
    results = cache.sweep(_cells())
    assert cache._runner is None  # never spawned a pool
    assert len(results) == 4


@pytest.mark.parametrize("benchmarks,jobs,tasks", [
    (1, 1, 1), (1, 2, 2), (1, 4, 3),
    (2, 1, 2), (2, 2, 2), (2, 4, 4),
    (3, 1, 3), (3, 2, 3), (3, 4, 6),
])
def test_plan_chunks(benchmarks, jobs, tasks):
    """min(#configs, ceil(jobs / #benchmarks)) near-even chunks each."""
    names = ["exchange2", "xz", "mcf"][:benchmarks]
    # Three configs per benchmark, interleaved config-major.
    cells = [name for _ in range(3) for name in names]
    plan = plan_chunks(cells, jobs)
    assert len(plan) == tasks
    # Every cell lands in exactly one task, under its own benchmark.
    placed = sorted(index for _, indices in plan for index in indices)
    assert placed == list(range(len(cells)))
    for benchmark, indices in plan:
        assert indices and all(cells[i] == benchmark for i in indices)
    for name in names:
        chunks = [indices for benchmark, indices in plan
                  if benchmark == name]
        # Config order is kept: the chunks, in task order, concatenate
        # to the benchmark's cells in cell order.
        assert [i for chunk in chunks for i in chunk] == \
            [i for i, cell in enumerate(cells) if cell == name]
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1
    # Benchmarks are planned in first-seen order.
    assert list(dict.fromkeys(b for b, _ in plan)) == names


@pytest.mark.parametrize("jobs", [2, 4])
def test_pool_wider_than_benchmark_count_matches_serial(jobs):
    """jobs > #benchmarks: one benchmark's configs split across workers."""
    cells = [
        SweepCell("exchange2", f"{n}xA510", make_config([a510(2.0)] * n))
        for n in (1, 2, 4)
    ] + [SweepCell("exchange2", "1xX2-opp",
                   make_config([x2(3.0)], CheckMode.OPPORTUNISTIC))]
    with SweepRunner(jobs=jobs, max_instructions=BUDGET,
                     seed=SEED) as runner:
        got = [_fingerprint(r) for r in runner.run(cells)]
    cache = WorkloadCache(max_instructions=BUDGET, seed=SEED,
                          trace_cache=None, jobs=1)
    want = [_fingerprint(cache.run_config(cell.benchmark, cell.config))
            for cell in cells]
    assert got == want


def test_worker_cache_is_a_bounded_lru():
    saved = dict(_WORKER_CACHES)
    _WORKER_CACHES.clear()
    try:
        for seed in range(WORKER_CACHE_LIMIT):
            worker_cache(100, seed)
        assert len(_WORKER_CACHES) == WORKER_CACHE_LIMIT
        # Touch the oldest entry so it becomes most-recently used...
        keep = worker_cache(100, 0)
        # ...then overflow: the evicted entry is the oldest *untouched*.
        worker_cache(100, WORKER_CACHE_LIMIT)
        assert len(_WORKER_CACHES) == WORKER_CACHE_LIMIT
        assert (100, 1) not in _WORKER_CACHES
        assert _WORKER_CACHES[(100, 0)] is keep
        # A hit returns the same object, not a rebuilt cache.
        assert worker_cache(100, 0) is keep
    finally:
        _WORKER_CACHES.clear()
        _WORKER_CACHES.update(saved)
