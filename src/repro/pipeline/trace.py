"""Pipeline stage 1-2: functional execution and segmentation.

Runs the workload on the main core to produce the commit trace, splits
the trace into checkpointed segments (LSL-capacity / timeout / forced
boundaries), captures the RCU's boundary register checkpoints by a
genuine second execution pass, and digests segments in Hash Mode.
The second pass reads every non-repeatable value (random, timer and
system-register reads, store-conditional outcomes) from the run's own
log, as the checker cores do, never from a fresh source.
"""

from __future__ import annotations

from repro.core.checker import LogReplayInterface
from repro.core.counter import Segment, SegmentBuilder
from repro.core.hashmode import digest_segment
from repro.core.lsc import LoadStoreComparator
from repro.cpu.functional import (
    DirectMemoryPort,
    FunctionalCore,
    MainNonRepSource,
    RunResult,
)
from repro.isa.program import Program
from repro.isa.registers import RegisterCheckpoint, RegisterFile
from repro.mem.memory import Memory
from repro.pipeline.context import SimContext


def run_functional(ctx: SimContext, program: Program,
                   max_instructions: int = 100_000) -> RunResult:
    """Run the workload on the main core, producing the commit trace."""
    config = ctx.config
    memory = Memory(program.memory_image)
    core = FunctionalCore(
        program,
        DirectMemoryPort(memory),
        nonrep=MainNonRepSource(seed=config.seed, core_id=config.main_id),
    )
    return core.run(max_instructions)


def segment_trace(
    ctx: SimContext,
    run: RunResult,
    forced_boundaries: set[int] | None = None,
    boundary_checkpoints: dict[int, RegisterCheckpoint] | None = None,
) -> list[Segment]:
    """Split the trace into segments and fill checkpoints (+ digests)."""
    config = ctx.config
    builder = SegmentBuilder(
        lsl_capacity_bytes=config.lsl_capacity(),
        timeout_instructions=config.timeout_instructions,
        hash_mode=config.hash_mode,
    )
    segments = builder.split(run.columns, forced_boundaries)
    fill_checkpoints(run, segments, boundary_checkpoints)
    if config.hash_mode:
        for seg in segments:
            seg.digest = digest_segment(seg.records)
    return segments


def fill_checkpoints(
    run: RunResult,
    segments: list[Segment],
    known: dict[int, RegisterCheckpoint] | None = None,
) -> None:
    """Capture the RCU's boundary register checkpoints.

    For single-threaded runs this is a second execution pass of the
    main core that draws its non-repeatable values from the run's log
    (:class:`LoggedNonRep`), so the checkpoints are the logged run's
    whatever seed produced it.  For multicore traces, quantum-boundary
    checkpoints captured during the original run are used where they
    align (``known``), and the remainder are derived by healthy log
    replay, which is exact by construction.
    """
    known = known or {}
    if not segments:
        return
    rerun_core: FunctionalCore | None = None
    if not known:
        memory = Memory(run.program.memory_image)
        logged = LoggedNonRep(run)
        rerun_core = FunctionalCore(run.program, DirectMemoryPort(memory),
                                    nonrep=logged)
        logged.core = rerun_core
    previous = run.start_checkpoint
    for seg in segments:
        seg.start_checkpoint = previous
        if seg.end in known:
            seg.end_checkpoint = known[seg.end]
        elif rerun_core is not None:
            chunk = rerun_core.run(seg.instructions, record_trace=False)
            if chunk.instructions != seg.instructions:
                raise RuntimeError(
                    "checkpoint pass diverged from the first run: "
                    f"{chunk.instructions} != {seg.instructions}"
                )
            logged.check_drained(seg.end)
            seg.end_checkpoint = chunk.end_checkpoint
        else:
            seg.end_checkpoint = derive_end_checkpoint(run.program, seg)
        previous = seg.end_checkpoint


class LoggedNonRep:
    """The checkpoint pass's non-repeatable source: the run's own log.

    Values come from the ``nonrep`` field of the memory plane in trace
    order.  A draw at a trace index the run did not log a value for,
    or a segment end reached with logged values left undrawn, raises
    with the trace index instead of yielding a wrong checkpoint.
    """

    def __init__(self, run: RunResult) -> None:
        self._log = [(row[0], row[7]) for row in run.columns.mem_rows
                     if row[7] is not None]
        self._next = 0
        #: The re-executing core; its commit count is the trace index.
        self.core: FunctionalCore | None = None

    def _draw(self) -> int:
        at = self.core.committed
        if self._next >= len(self._log) or self._log[self._next][0] != at:
            raise RuntimeError(
                "checkpoint pass drew a non-repeatable value at "
                f"trace[{at}] that the run did not log")
        value = self._log[self._next][1]
        self._next += 1
        return value

    def rdrand(self) -> int:
        return self._draw()

    def rdtime(self, committed: int) -> int:
        del committed
        return self._draw()

    def sysrd(self) -> int:
        return self._draw()

    def sc_success(self) -> int:
        return self._draw()

    def check_drained(self, end: int) -> None:
        """Raise if a value logged before trace index ``end`` is undrawn."""
        if self._next < len(self._log) and self._log[self._next][0] < end:
            raise RuntimeError(
                "checkpoint pass left the non-repeatable value logged at "
                f"trace[{self._log[self._next][0]}] undrawn")


def derive_end_checkpoint(program: Program,
                          seg: Segment) -> RegisterCheckpoint:
    """Healthy log replay of one segment to recover its end state."""
    interface = LogReplayInterface(seg, LoadStoreComparator(),
                                   hash_mode=False)
    regs = RegisterFile()
    assert seg.start_checkpoint is not None
    regs.restore(seg.start_checkpoint)
    core = FunctionalCore(program, interface, registers=regs,
                          nonrep=interface,
                          start_pc=seg.start_checkpoint.pc)
    result = core.run(seg.instructions, record_trace=False)
    return result.end_checkpoint
