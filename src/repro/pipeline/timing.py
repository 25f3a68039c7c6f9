"""Pipeline stage 3: trace-driven core timing.

Times the unchecked baseline (against a fixed instruction grid so one
baseline can be cached and window-aligned across configurations), the
checked main core, and each distinct checker class, over a per-main
partition of the shared uncore.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.simconfig import ParaVerserConfig
from repro.cpu.config import CoreInstance
from repro.cpu.functional import RunResult
from repro.cpu.timing import TimingEvents, TimingModel, TimingResult, replay
from repro.isa.program import Program
from repro.mem.hierarchy import SharedUncore
from repro.noc.traffic import MainTraffic
from repro.obs import StatGroup
from repro.pipeline.context import SimContext

#: Instruction step of the baseline's measurement grid.
BASELINE_GRID = 1000


def grid_time_at(baseline: TimingResult, instruction: int) -> float:
    """Baseline elapsed time at ``instruction``, from its boundary grid."""
    times = baseline.boundary_times_ns()
    if not times:
        return baseline.time_ns * instruction / max(baseline.instructions, 1)
    idx = min(instruction // BASELINE_GRID, len(times) - 1)
    base = times[idx - 1] if idx > 0 else 0.0
    base_instr = idx * BASELINE_GRID
    span_instr = min((idx + 1) * BASELINE_GRID,
                     baseline.instructions) - base_instr
    if span_instr <= 0:
        return times[idx]
    frac = (instruction - base_instr) / span_instr
    return base + max(min(frac, 1.0), 0.0) * (times[idx] - base)


def warm_addresses(program: Program):
    """Addresses to functionally warm before timing a main core.

    Covers the program's resident memory image (pointer-chase rings, seeded
    pages) plus any profile-declared warm ranges (working sets small enough
    to be LLC-resident in steady state).
    """
    yield from program.memory_image.keys()
    for base, length in program.metadata.get("warm_ranges", []):
        yield from range(base, base + length, 64)


def uncore_partition(config: ParaVerserConfig) -> tuple:
    """This main core's partition of the shared LLC + DRAM channel:
    ``(l3, dram, uncore clock)``."""
    hierarchy = config.main.config.hierarchy
    l3 = hierarchy.l3
    dram = hierarchy.dram
    share = config.llc_share
    if share < 1.0:
        # Static uncore partitioning for multi-main clusters: each main
        # gets its slice of LLC capacity and DRAM bandwidth.
        ways = max(1, round(l3.ways * share))
        sets = int(l3.size_bytes * share) // (ways * l3.line_bytes)
        sets = 1 << max(sets.bit_length() - 1, 0)  # power-of-two sets
        l3 = replace(l3, size_bytes=sets * ways * l3.line_bytes, ways=ways)
        dram = replace(
            dram, peak_bandwidth_gbps=dram.peak_bandwidth_gbps * share)
    return l3, dram, hierarchy.uncore_clock_ghz


def core_timing(run: RunResult, instance: CoreInstance, partition: tuple,
                extra_llc_ns: float = 0.0,
                boundaries: list[int] | None = None,
                checkpoint_overhead: bool = False,
                checker_mode: bool = False,
                ) -> tuple[TimingResult, TimingEvents]:
    """Time ``instance`` over ``run``'s trace; the result and its events.

    The first timing of a core class simulates a fresh model warmed with
    :func:`warm_addresses` (main) or its code (checker) and memoises its
    events on ``run``, keyed by all the walk depends on: hierarchy,
    predictor, mode and uncore partition.  Later timings of the class
    replay them at any frequency, boundaries and NoC latency.  Racing
    fills of one key (threaded checker classes) compute equal events.
    """
    core = instance.config
    key = (core.hierarchy, core.predictor_kib, checker_mode, partition)
    events = run.timing_events.get(key)
    if events is not None:
        return replay(events, instance, extra_llc_ns, boundaries,
                      checkpoint_overhead), events
    uncore = SharedUncore(*partition)
    uncore.extra_llc_latency_ns = extra_llc_ns
    model = TimingModel(instance, uncore, checker_mode=checker_mode)
    if checker_mode:
        model.warm_code(run.program)
    else:
        model.warm_data(warm_addresses(run.program))
    result = model.simulate(run.program, run.columns, boundaries,
                            checkpoint_overhead)
    run.timing_events[key] = model.last_events
    return result, model.last_events


def main_timing(config: ParaVerserConfig, run: RunResult,
                boundaries: list[int] | None,
                extra_llc_ns: float,
                checkpoint_overhead: bool | None = None,
                stats: StatGroup | None = None) -> TimingResult:
    """Time the main core over ``run``'s trace.

    With ``stats``, the run's counters and the full cache/DRAM hierarchy
    state are published into that group.
    """
    if checkpoint_overhead is None:
        checkpoint_overhead = boundaries is not None
    result, events = core_timing(run, config.main, uncore_partition(config),
                                 extra_llc_ns, boundaries,
                                 checkpoint_overhead)
    if stats is not None:
        result.export_stats(stats, config.main.config)
        events.export_stats(stats, extra_llc_ns)
    return result


def checker_timing(config: ParaVerserConfig, run: RunResult,
                   boundaries: list[int],
                   instance: CoreInstance) -> TimingResult:
    """Time one checker class replaying the segments of ``run``."""
    return core_timing(run, instance, uncore_partition(config), 0.0,
                       boundaries, checkpoint_overhead=True,
                       checker_mode=True)[0]


def baseline_timing(ctx: SimContext, run: RunResult) -> TimingResult:
    """Unchecked baseline over the fixed instruction grid.

    Demand traffic alone still contends on the mesh, so the baseline's
    own NoC-induced LLC latency is backpropagated before the gridded
    timing pass.
    """
    config = ctx.config
    base_pass = main_timing(config, run, None, 0.0)
    base_traffic = MainTraffic(
        main_id=config.main_id,
        duration_ns=base_pass.time_ns,
        llc_accesses=base_pass.llc_accesses,
        checkers_used=len(config.checkers),
    )
    mesh = ctx.traffic_model.build([base_traffic], include_lsl=False)
    base_extra = ctx.traffic_model.llc_extra_latency_ns(
        mesh, config.main_id)
    grid = list(range(BASELINE_GRID, len(run.columns), BASELINE_GRID))
    grid.append(len(run.columns))
    return main_timing(config, run, grid, base_extra,
                       checkpoint_overhead=False)


def checker_durations(
    ctx: SimContext, run: RunResult, boundaries: list[int],
    mapper=None,
) -> tuple[dict[str, list[float]], int]:
    """Per-segment check durations for each distinct checker class.

    ``mapper`` is an optional order-preserving ``map(fn, items)`` (the
    stage-graph executor's ``map_ordered``) used to time the classes in
    parallel.  Classes are the fan-out axis because each class's
    simulation is self-contained: events from a freshly warmed model and
    uncore (see :func:`core_timing`), then a replay.  Segments within one
    class must NOT be chunked — the timing model carries microarchitectural
    state (branch predictor, ROB, MSHRs, cache contents) across segment
    boundaries, so splitting the trace would change the numbers.  The
    merge is input-order (first-seen class order), so results are
    bit-identical to the serial loop.
    """
    config = ctx.config
    distinct: dict[str, CoreInstance] = {
        inst.label: inst for inst in config.checkers
    }

    def time_class(item: tuple[str, CoreInstance]):
        label, inst = item
        return label, checker_timing(config, run, boundaries, inst)

    timed = (mapper or map)(time_class, list(distinct.items()))
    durations_by_class: dict[str, list[float]] = {}
    checker_llc = 0
    for label, timing in timed:
        times = timing.boundary_times_ns()
        durations = [times[0]] + [
            times[i] - times[i - 1] for i in range(1, len(times))
        ]
        durations_by_class[label] = durations
        checker_llc = max(checker_llc, timing.llc_accesses)
    return durations_by_class, checker_llc
