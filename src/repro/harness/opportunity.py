"""Compute-opportunity-cost model (section VII-F).

The alternative to checking on spare little cores is *running the
workload* on them.  The paper measures (on a real RK3588) that GAP on
1 big + 2 little cores speeds up only 1.52x, and PARSEC on 1 big +
3 little only 1.44x, because parallel graph/pipeline workloads scale
sub-linearly and contend for memory — while the same little cores give
full-coverage checking at ~10 % / 7.6 % overhead.

Our substitute is an analytic strong-scaling model built from the same
trace-driven timing the rest of the evaluation uses:

* per-core throughput comes from replaying the trace on each core class
  (in *main* mode — with real caches, unlike checker mode);
* the combined rate is Amdahl-limited by a serial/synchronisation
  fraction and capped by shared DRAM bandwidth.
"""

from __future__ import annotations

from repro.cpu.config import CoreInstance
from repro.cpu.functional import RunResult
from repro.isa.program import Program
from repro.pipeline.timing import core_timing

#: Serial + synchronisation fraction of parallelised workloads.
SERIAL_FRACTION = 0.06

#: Shared-memory efficiency: each extra core's effective throughput when
#: the workload is memory-intensive (contention on LLC/DRAM).
MEMORY_CONTENTION_FACTOR = 0.8


def core_throughput_gips(program: Program, run: RunResult,
                         instance: CoreInstance) -> float:
    """Instructions/ns this core class achieves on ``run`` (of
    ``program``), warmed like every main-mode timing, own uncore."""
    hierarchy = instance.config.hierarchy
    timing, _ = core_timing(run, instance, (
        hierarchy.l3, hierarchy.dram, hierarchy.uncore_clock_ghz))
    return timing.instructions / timing.time_ns


def parallel_speedup(program: Program, run: RunResult,
                     big: CoreInstance,
                     extra_cores: list[CoreInstance],
                     serial_fraction: float = SERIAL_FRACTION) -> float:
    """Speedup of running the workload on big + extra cores vs. big alone."""
    big_rate = core_throughput_gips(program, run, big)
    extra_rate = 0.0
    for core in extra_cores:
        extra_rate += core_throughput_gips(program, run, core)
    # Memory contention discounts the added cores' contribution.
    ideal = 1.0 + MEMORY_CONTENTION_FACTOR * extra_rate / big_rate
    # Amdahl: the serial fraction runs on the big core only.
    return 1.0 / (serial_fraction + (1.0 - serial_fraction) / ideal)
