"""Worker-pool lifecycle and the process-side evaluation entry points.

The pool is a bounded :class:`~concurrent.futures.ProcessPoolExecutor`
whose workers reuse the sweep engine's process-global
:func:`~repro.harness.parallel.worker_cache`, so a worker that serves
the same ``(workload, instructions, seed)`` twice never recomputes the
functional trace — and with ``REPRO_TRACE_CACHE`` set, traces persist
across workers and across service restarts.  Multi-spec batches are
dispatched at stage granularity: one trace task, then per-spec
evaluation tasks carrying the traced run as a serialized artifact, so
the batch's specs spread across the whole pool instead of serialising
on one worker.

Everything a worker returns is a plain JSON-able dict: rows travel back
through the executor, then over the wire, without pickle-sensitive
simulator objects.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

#: Row key set on per-spec evaluation failure (the batch itself is fine).
ROW_ERROR = "error"


# -- worker-side (runs in pool processes) -----------------------------------

def _result_row(result, config) -> dict:
    """Headline numbers of one simulated run, JSON-able."""
    from repro.power.energy import energy_report

    energy = energy_report(result, config.main)
    checker_area = sum(c.config.area_mm2 for c in config.checkers)
    return {
        "workload": result.workload,
        "config_label": result.config_label,
        "instructions": result.instructions,
        "segments": result.segments,
        "slowdown_percent": result.overhead_percent,
        "coverage": result.coverage,
        "energy_overhead_percent": energy.overhead_percent,
        "area_overhead_percent": (
            checker_area / config.main.config.area_mm2 * 100.0),
        "stall_ns": result.stall_ns,
        "verified_clean": all(not r.detected for r in result.verify_results),
    }


def _campaign_row(cache, workload: str, config, trials: int,
                  seed: int) -> dict:
    """Run a stuck-at injection campaign against one configuration."""
    from repro.core.system import ParaVerserSystem
    from repro.faults.campaign import FaultCampaign, covered_segments

    cached = cache.get(workload)
    result = cache.run_config(workload, config)
    system = ParaVerserSystem(config)
    segments = system.segment(cached.run)
    campaign = FaultCampaign(cached.program, segments,
                             config.checkers[0].config)
    tally = campaign.run(trials, seed=seed,
                         covered=covered_segments(result)).tally
    return {
        "injected": tally.injected,
        "detected": tally.detected,
        "masked": tally.masked,
        "detection_rate_all": tally.detection_rate_all,
        "detection_rate_effective": tally.detection_rate_effective,
    }


def _config_for_spec(spec: dict):
    """Build a ParaVerserConfig from a checkers-spec request."""
    from repro.core.system import CheckMode
    from repro.cpu.presets import pool_instances
    from repro.harness.runner import make_config

    return make_config(pool_instances(spec["checkers"]),
                       CheckMode(spec["mode"]),
                       hash_mode=bool(spec["hash_mode"]))


def _campaign_spec_row(spec: dict) -> dict:
    """Run one campaign spec serially inside this worker process.

    Pool workers must not spawn nested pools, so the trials run inline;
    per-trial derived seeds make the row identical to what any other
    scheduling of the same spec produces (``tests/test_faults_engine``).
    """
    from repro.faults.engine import CampaignSpec, run_campaign

    campaign_spec = CampaignSpec(
        workload=spec["workload"],
        checkers=spec["checkers"],
        mode=spec["mode"],
        hash_mode=bool(spec["hash_mode"]),
        instructions=spec["instructions"],
        seed=spec["seed"],
        trials=int(spec["trials"]),
        trial_offset=int(spec.get("trial_offset", 0)),
        fault_kinds=tuple(spec["fault_kinds"]),
        scheme=spec.get("scheme", "paraverser"),
    )
    return run_campaign(campaign_spec, jobs=1).to_row()


def _cache_traffic_snapshot(cache) -> tuple | None:
    """Current persistent-cache counters, or None when caching is off."""
    tc = cache.trace_cache
    if tc is None:
        return None
    s = tc.stats
    return (s.hits, s.misses, s.bytes_read, s.bytes_written)


def _cache_traffic_delta(cache, before: tuple | None) -> dict | None:
    """What this task added to the persistent-cache counters.

    The worker-process :class:`~repro.cpu.tracecache.TraceCache` counters
    are cumulative and invisible to the service, so each task ships its
    own delta in the row; the service folds them into the stats tree and
    strips the key before the row reaches a client.
    """
    if before is None or cache.trace_cache is None:
        return None
    s = cache.trace_cache.stats
    delta = {
        "hits": s.hits - before[0],
        "misses": s.misses - before[1],
        "bytes_read": s.bytes_read - before[2],
        "bytes_written": s.bytes_written - before[3],
    }
    return delta if any(delta.values()) else None


def evaluate_spec(spec: dict) -> dict:
    """Evaluate one sim spec (see ``EvalRequest.sim_spec``) to a row."""
    from repro.detect import SimulatedBackend, get_backend
    from repro.harness.parallel import worker_cache

    cache = worker_cache(spec["instructions"], spec["seed"])
    workload = spec["workload"]
    traffic_before = _cache_traffic_snapshot(cache)
    source = cache.trace_source(workload)
    if spec.get("op") == "campaign":
        row = _campaign_spec_row(spec)
        row["instructions"] = spec["instructions"]
        row["seed"] = spec["seed"]
        row["trace_source"] = source
        traffic = _cache_traffic_delta(cache, traffic_before)
        if traffic:
            row["trace_cache"] = traffic
        return row
    if spec.get("backend"):
        backend = get_backend(spec["backend"])
        report = backend.evaluate(cache, workload)
        row = {
            "backend": report.backend,
            "workload": report.benchmark,
            "slowdown_percent": report.slowdown_percent,
            "coverage": report.coverage,
            "energy_overhead_percent": report.energy_overhead_percent,
            "area_overhead_percent": report.area_overhead_percent,
            "segments": report.segments,
            "verified_clean": report.verified_clean,
        }
        config = (backend.make_config()
                  if isinstance(backend, SimulatedBackend) else None)
    else:
        config = _config_for_spec(spec)
        row = _result_row(cache.run_config(workload, config), config)
    trials = int(spec.get("fault_trials") or 0)
    if trials:
        if config is None:
            row["injection"] = {
                "error": "fault injection needs a simulated configuration"}
        else:
            row["injection"] = _campaign_row(cache, workload, config,
                                             trials, spec["seed"])
    row["instructions"] = spec["instructions"]
    row["seed"] = spec["seed"]
    row["trace_source"] = source
    traffic = _cache_traffic_delta(cache, traffic_before)
    if traffic:
        row["trace_cache"] = traffic
    return row


def evaluate_specs(specs: list[dict]) -> list[dict]:
    """Pool entry point: evaluate one trace-sharing batch, in order.

    A failing spec yields an ``{"error": ...}`` row instead of poisoning
    the whole batch.
    """
    rows = []
    for spec in specs:
        try:
            rows.append(evaluate_spec(spec))
        except Exception as exc:  # noqa: BLE001 - row-level fault barrier
            rows.append({ROW_ERROR: f"{type(exc).__name__}: {exc}"})
    return rows


def trace_workload(workload: str, instructions: int,
                   seed: int) -> tuple[dict, str, dict | None]:
    """Pool entry point: one batch's trace stage.

    Computes (or fetches) the batch's shared functional run and returns
    it as a :func:`~repro.cpu.traceio.run_to_payload` artifact plus the
    source it came from (``computed``/``disk``/``memory``) and the
    persistent-cache traffic it caused, so the service's trace-reuse
    counters stay truthful when the per-spec rows all report the
    handed-off run as a ``memory`` hit.
    """
    from repro.cpu.traceio import run_to_payload
    from repro.harness.parallel import worker_cache

    cache = worker_cache(instructions, seed)
    traffic_before = _cache_traffic_snapshot(cache)
    source = cache.trace_source(workload)
    cached = cache.get(workload)
    return (run_to_payload(cached.run), source,
            _cache_traffic_delta(cache, traffic_before))


def evaluate_spec_row(spec: dict, run_payload: dict | None = None) -> dict:
    """Pool entry point: evaluate one spec, adopting a handed-off trace.

    The per-spec counterpart of :func:`evaluate_specs`: exceptions become
    an ``{"error": ...}`` row so one bad spec cannot poison its batch.
    """
    from repro.cpu.traceio import run_from_payload
    from repro.harness.parallel import worker_cache

    try:
        if run_payload is not None:
            cache = worker_cache(spec["instructions"], spec["seed"])
            cache.adopt_run(spec["workload"],
                            run_from_payload(run_payload))
        return evaluate_spec(spec)
    except Exception as exc:  # noqa: BLE001 - row-level fault barrier
        return {ROW_ERROR: f"{type(exc).__name__}: {exc}"}


def prime_workload(workload: str, instructions: int, seed: int) -> str:
    """Pool entry point: warm the trace caches for one workload."""
    from repro.harness.parallel import worker_cache

    cache = worker_cache(instructions, seed)
    cache.get(workload)
    return workload


def _init_worker(trace_dir: str | None, parent: int) -> None:
    """Pool initializer: point workers at the shared persistent cache.

    A forked worker inherits the serve loop's SIGTERM routing (a no-op
    handler plus a wakeup fd shared with the parent's loop), so SIGTERM
    would stop the parent and spare the worker; restore the default.
    A worker also exits once its parent (pid ``parent``) is gone, so a
    SIGKILLed server leaves no orphaned worker behind.
    """
    if trace_dir:
        os.environ["REPRO_TRACE_CACHE"] = trace_dir
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    def _exit_with_parent() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=_exit_with_parent, daemon=True,
                     name="serve-worker-parent-watch").start()


# -- service-side pool handle ----------------------------------------------

class WorkerPool:
    """Bounded process pool executing evaluation batches for the service.

    ``trace_dir`` (or an inherited ``REPRO_TRACE_CACHE``) gives every
    worker the same persistent trace cache, so identical traces are
    computed once across the whole pool — and primed entries survive
    worker crashes and restarts.
    """

    def __init__(self, workers: int = 1,
                 trace_dir: str | os.PathLike | None = None) -> None:
        if workers <= 0:
            workers = os.cpu_count() or 1
        self.workers = workers
        raw = os.environ.get("REPRO_TRACE_CACHE")
        inherited = raw if raw and raw != "0" else None
        self.trace_dir = str(trace_dir) if trace_dir else inherited
        self._executor: ProcessPoolExecutor | None = None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self.trace_dir, os.getpid()),
            )
        return self._executor

    async def run_group(self, specs: list[dict]) -> list[dict]:
        """Evaluate one batch on the pool; raises on worker crashes.

        Multi-spec batches run at stage granularity: one trace task
        computes the batch's shared functional run, then every spec
        evaluates concurrently (across workers) against the handed-off
        trace — so a wide pool is not serialised behind one batch.
        Single-spec batches keep the one-task fast path.
        """
        loop = asyncio.get_running_loop()
        executor = self._ensure()
        if len(specs) <= 1 or self.workers <= 1:
            return await loop.run_in_executor(executor, evaluate_specs,
                                              specs)
        first = specs[0]
        trace_key = (first["workload"], first["instructions"],
                     first["seed"])
        try:
            payload, source, trace_traffic = await loop.run_in_executor(
                executor, trace_workload, *trace_key)
        except RETRYABLE_POOL_ERRORS:
            raise
        except Exception as exc:  # noqa: BLE001 - batch-level fault barrier
            error = f"{type(exc).__name__}: {exc}"
            return [{ROW_ERROR: error} for _ in specs]
        rows = list(await asyncio.gather(*[
            loop.run_in_executor(
                executor, evaluate_spec_row, spec,
                payload if (spec["workload"], spec["instructions"],
                            spec["seed"]) == trace_key else None)
            for spec in specs
        ]))
        # The handoff makes every row see a memory hit; attribute the
        # trace stage's real source (and cache traffic) to the first
        # non-error row.
        for row in rows:
            if ROW_ERROR not in row:
                row["trace_source"] = source
                if trace_traffic:
                    merged = row.get("trace_cache", {})
                    for key, value in trace_traffic.items():
                        merged[key] = merged.get(key, 0) + value
                    row["trace_cache"] = merged
                break
        return rows

    async def prime(self, workloads: list[str], instructions: int,
                    seed: int) -> list[str]:
        """Warm trace caches for ``workloads`` across the pool."""
        loop = asyncio.get_running_loop()
        executor = self._ensure()
        futures = [loop.run_in_executor(executor, prime_workload,
                                        workload, instructions, seed)
                   for workload in workloads]
        return list(await asyncio.gather(*futures))

    #: Per-process grace given to a broken pool's workers before they
    #: are killed outright in :meth:`reset`.
    REAP_TIMEOUT_S = 5.0

    def reset(self) -> None:
        """Replace a broken pool (next batch recreates it).

        The broken pool's worker processes are reaped — bounded join,
        then kill — before the handle is dropped, so a crash-retry loop
        cannot accumulate orphaned workers and their fds.
        """
        if self._executor is None:
            return
        old, self._executor = self._executor, None
        # Snapshot before shutdown(): it drops the executor's _processes
        # reference, and a broken pool's own reaping cannot be trusted.
        procs = list((getattr(old, "_processes", None) or {}).values())
        manager = getattr(old, "_executor_manager_thread", None)
        old.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            proc.join(timeout=self.REAP_TIMEOUT_S)
        for proc in procs:
            if proc.is_alive():
                proc.kill()
                proc.join()
        # The executor's manager thread reaps the same workers; a join
        # that loses that race returns before the exit code is recorded,
        # so wait (bounded) for the manager to finish its reaping too.
        if manager is not None:
            manager.join(timeout=self.REAP_TIMEOUT_S)

    def shutdown(self, wait: bool = True) -> None:
        """Graceful drain: let running batches finish, then stop."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


#: Exception types treated as "worker crashed; retry the batch".
RETRYABLE_POOL_ERRORS = (BrokenExecutor, OSError)
