"""Pipeline stage 1-2: functional execution and segmentation.

Runs the workload on the main core to produce the commit trace, splits
the trace into checkpointed segments (LSL-capacity / timeout / forced
boundaries), captures the RCU's boundary register checkpoints by a
genuine second execution pass, and digests segments in Hash Mode.
The second pass reads every non-repeatable value (random, timer and
system-register reads, store-conditional outcomes) from the run's own
log, as the checker cores do, never from a fresh source.

All of this derives from the main core's execution alone, so the run's
:attr:`~repro.cpu.functional.RunResult.memo` keeps it for every checker
pool that segments the same trace: per-row LSL entry sizes, checkpoints
by trace index and digests by trace range.  The second pass runs once
per trace for every set of boundaries with one not seen before.
Segments build their log records only when something reads them.
"""

from __future__ import annotations

from repro.core.checker import LogReplayInterface
from repro.core.counter import Segment, SegmentBuilder
from repro.core.hashmode import digest_segment
from repro.core.lsc import LoadStoreComparator
from repro.core.lsl import row_entry_bytes
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
    memo = run.memo
    if memo.row_sizes is None:
        memo.row_sizes = row_entry_bytes(run.columns)
    builder = SegmentBuilder(
        lsl_capacity_bytes=config.lsl_capacity(),
        timeout_instructions=config.timeout_instructions,
        hash_mode=config.hash_mode,
    )
    segments = builder.split(run.columns, forced_boundaries, memo.row_sizes)
    fill_checkpoints(run, segments, boundary_checkpoints)
    if config.hash_mode:
        for seg in segments:
            key = (seg.start, seg.end)
            digest = memo.digests.get(key)
            if digest is None:
                digest = memo.digests[key] = digest_segment(seg.records)
            seg.digest = digest
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
    whatever seed produced it.  The pass runs when some segment end has
    no checkpoint in the run's memo yet, over every end requested, and
    memoises what it captures; one pass per trace then serves every
    configuration that cuts at the same indices.  For multicore traces,
    quantum-boundary checkpoints captured during the original run are
    used where they align (``known``), and the remainder are derived by
    healthy log replay, which is exact by construction.
    """
    if not segments:
        return
    ends = known
    if not known:
        ends = run.memo.checkpoints
        if any(seg.end not in ends for seg in segments):
            _checkpoint_pass(run, segments, ends)
    previous = run.start_checkpoint
    for seg in segments:
        seg.start_checkpoint = previous
        if seg.end in ends:
            seg.end_checkpoint = ends[seg.end]
        else:
            seg.end_checkpoint = derive_end_checkpoint(run.program, seg)
        previous = seg.end_checkpoint


def _checkpoint_pass(run: RunResult, segments: list[Segment],
                     out: dict[int, RegisterCheckpoint]) -> None:
    """Re-execute the trace, storing each segment's end checkpoint."""
    memory = Memory(run.program.memory_image)
    logged = LoggedNonRep(run)
    core = FunctionalCore(run.program, DirectMemoryPort(memory),
                          nonrep=logged)
    logged.core = core
    for seg in segments:
        chunk = core.run(seg.instructions, record_trace=False)
        if chunk.instructions != seg.instructions:
            raise RuntimeError(
                "checkpoint pass diverged from the first run: "
                f"{chunk.instructions} != {seg.instructions}"
            )
        logged.check_drained(seg.end)
        out[seg.end] = chunk.end_checkpoint


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
