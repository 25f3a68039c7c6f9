"""Parallel sweep engine for ``(benchmark, config)`` cells.

Figure benchmarks are embarrassingly parallel across benchmarks: every
cell shares nothing but the functional trace of its own benchmark.  The
:class:`SweepRunner` fans work across a ``ProcessPoolExecutor`` as
``(benchmark, contiguous chunk of that benchmark's configs)`` tasks
(:func:`plan_chunks`).  Each benchmark is cut into
``min(#configs, ceil(jobs / #benchmarks))`` near-even chunks, so with
at least as many benchmarks as workers every task is one whole
benchmark, and a pool wider than the benchmark count still gives every
worker configs of its own.  Every task builds (or reuses) its trace
from the worker's own :func:`worker_cache`; no trace crosses a process
boundary.

Determinism does not depend on the schedule:

* **Trace reuse** — each worker keeps a bounded process-global
  :class:`~repro.harness.runner.WorkloadCache`, so a worker that sees
  the same benchmark twice never re-runs its trace, and the trace is a
  pure function of ``(benchmark, budget, seed)`` wherever it is built.
* **Baseline independence** — the unchecked baseline is cached per
  ``(main core, NoC)`` pair purely as a speed win: with zero checker
  traffic its mesh contribution has zero rate, so whichever config
  computes it first gets the same numbers.  Chunks of one benchmark
  may therefore run on different workers (each computes the baseline
  at most once) without perturbing results.
* **Input-order merge** — results are placed by original cell index, so
  ``jobs=N`` output is bit-identical to ``jobs=1``.

With ``jobs=1`` (the default, via ``REPRO_JOBS``) no pool is created
and everything runs in-process.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.core.system import ParaVerserConfig, SystemResult


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: a benchmark under one checker config."""

    benchmark: str
    label: str
    config: ParaVerserConfig


#: Caches per (budget, seed) per worker process, reused across tasks so a
#: worker that sees the same benchmark twice never re-runs the trace.
#: Bounded LRU: long-lived serve workers cycle through distinct
#: (instructions, seed) pairs and must not accumulate traces forever.
#: Shared with the serving layer (repro.serve.workers), whose pool
#: workers must agree with sweep workers on trace reuse semantics.
_WORKER_CACHES: OrderedDict = OrderedDict()
WORKER_CACHE_LIMIT = 8


def worker_cache(max_instructions: int, seed: int):
    """The process-global :class:`WorkloadCache` for (budget, seed)."""
    from repro.harness.runner import WorkloadCache

    key = (max_instructions, seed)
    cache = _WORKER_CACHES.get(key)
    if cache is None:
        # jobs=1 in workers: no recursive pools.
        cache = WorkloadCache(max_instructions=max_instructions,
                              seed=seed, jobs=1)
        _WORKER_CACHES[key] = cache
        while len(_WORKER_CACHES) > WORKER_CACHE_LIMIT:
            _WORKER_CACHES.popitem(last=False)
    else:
        _WORKER_CACHES.move_to_end(key)
    return cache


def plan_chunks(benchmarks: list[str],
                jobs: int) -> list[tuple[str, list[int]]]:
    """Split a sweep into ``(benchmark, cell indices)`` tasks.

    ``benchmarks`` names each cell's benchmark, in cell order.  Each
    benchmark's cells (in cell order, first-seen benchmark first) are
    cut into ``min(#configs, ceil(jobs / #benchmarks))`` contiguous
    chunks whose sizes differ by at most one.
    """
    groups: dict[str, list[int]] = {}
    for index, benchmark in enumerate(benchmarks):
        groups.setdefault(benchmark, []).append(index)
    per_benchmark = -(-jobs // max(1, len(groups)))
    tasks = []
    for benchmark, indices in groups.items():
        parts = min(len(indices), per_benchmark)
        size, extra = divmod(len(indices), parts)
        start = 0
        for part in range(parts):
            end = start + size + (part < extra)
            tasks.append((benchmark, indices[start:end]))
            start = end
    return tasks


# -- worker entry points -----------------------------------------------------

def _run_group(benchmark: str, configs: list[ParaVerserConfig],
               max_instructions: int, seed: int) -> list[SystemResult]:
    """Run one chunk of one benchmark's configs, in order."""
    cache = worker_cache(max_instructions, seed)
    return [cache.run_config(benchmark, config) for config in configs]


def _campaign_chunk_task(spec_payload: dict, trials: list[int],
                         shard_dir: str | None) -> tuple[list[dict], float]:
    """Stage entry point: run a chunk of campaign trials in one task.

    One submission per trial drowns short trials in pool round-trip and
    pickling overhead (a jobs=4 campaign used to run *slower* than
    serial); chunking amortises the dispatch while each trial stays the
    same pure function of ``(spec.seed, trial)``, so results are
    bit-identical to any other scheduling.  Shard appends still happen
    per trial, so a killed worker loses at most the trial in flight.
    """
    from repro.faults.engine import CampaignSpec, run_trial_in_worker

    spec = CampaignSpec.from_json(spec_payload)
    start = time.perf_counter()
    records = [run_trial_in_worker(spec, trial, shard_dir)
               for trial in trials]
    return records, time.perf_counter() - start


class SweepRunner:
    """Fans sweep cells across worker processes, merging deterministically."""

    def __init__(self, jobs: int, max_instructions: int, seed: int) -> None:
        self.jobs = jobs
        self.max_instructions = max_instructions
        self.seed = seed
        self._pool: ProcessPoolExecutor | None = None

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def run(self, cells: list[SweepCell]) -> list[SystemResult]:
        """Run all cells; results are returned in input-cell order."""
        if self.jobs <= 1 or len(cells) <= 1:
            cache = worker_cache(self.max_instructions, self.seed)
            return [cache.run_config(cell.benchmark, cell.config)
                    for cell in cells]

        pool = self._executor()
        futures = {
            pool.submit(_run_group, benchmark,
                        [cells[i].config for i in indices],
                        self.max_instructions, self.seed): indices
            for benchmark, indices in plan_chunks(
                [cell.benchmark for cell in cells], self.jobs)
        }
        results: list[SystemResult | None] = [None] * len(cells)
        for future, indices in futures.items():
            for index, result in zip(indices, future.result()):
                results[index] = result
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
