"""Instruction counter and segment construction.

Section IV-F: checkpoints end when (i) the target LSL$ fills, (ii) an
interrupt/context switch occurs, or (iii) a 5000-instruction timeout is
reached.  The counter interrupts main and checker cores at identical
committed-instruction counts, which in trace terms means segments are
contiguous index ranges of the commit trace.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.lsl import LSLRecord, records_from_columns
from repro.cpu.columns import TraceColumns
from repro.isa.instructions import CACHE_LINE_BYTES
from repro.isa.registers import RegisterCheckpoint

#: The paper's checkpoint timeout (Table I).
DEFAULT_TIMEOUT_INSTRUCTIONS = 5000


class CutReason(enum.Enum):
    """Why a segment ended."""

    LSL_FULL = "lsl_full"
    TIMEOUT = "timeout"
    INTERRUPT = "interrupt"
    PROGRAM_END = "program_end"


@dataclass
class Segment:
    """One checkpointed interval of main-core execution."""

    index: int
    start: int  # trace index, inclusive
    end: int    # trace index, exclusive
    records: list[LSLRecord]
    lsl_bytes: int   # log bytes incl. line padding (what the LSL$ holds)
    lines: int       # cache lines pushed over the NoC
    reason: CutReason
    start_checkpoint: RegisterCheckpoint | None = None
    end_checkpoint: RegisterCheckpoint | None = None
    digest: bytes | None = None  # Hash Mode digest of verify metadata

    @property
    def instructions(self) -> int:
        return self.end - self.start


class SegmentBuilder:
    """Splits a commit trace into checkpointed segments.

    ``lsl_capacity_bytes`` is the smallest LSL$ among the configured
    checker cores — the main core sizes segments for the checker it will
    hand them to.
    """

    def __init__(
        self,
        lsl_capacity_bytes: int,
        timeout_instructions: int = DEFAULT_TIMEOUT_INSTRUCTIONS,
        line_bytes: int = CACHE_LINE_BYTES,
        hash_mode: bool = False,
    ) -> None:
        if lsl_capacity_bytes < line_bytes:
            raise ValueError("LSL capacity below one cache line")
        if timeout_instructions < 1:
            raise ValueError("timeout must be positive")
        self.capacity = lsl_capacity_bytes
        self.timeout = timeout_instructions
        self.line_bytes = line_bytes
        self.hash_mode = hash_mode

    def split(self, columns: TraceColumns,
              forced_boundaries: set[int] | None = None) -> list[Segment]:
        """Segment a trace; ``forced_boundaries`` are interrupt points.

        Only record-bearing instructions (the mem-row plane) are visited;
        interrupt and timeout cuts between them are computed arithmetically.
        A forced boundary at the trace end is no interrupt: the last
        segment ends with ``PROGRAM_END``.
        """
        n = len(columns)
        forced_sorted = sorted(
            f for f in (forced_boundaries or ()) if 0 < f < n)
        n_forced = len(forced_sorted)
        timeout = self.timeout
        segments: list[Segment] = []
        records: list[LSLRecord] = []
        seg_start = 0
        lines_full = 0
        buffer_bytes = 0
        fp = 0  # next forced boundary to consider

        def cut(end: int, reason: CutReason) -> None:
            nonlocal records, seg_start, lines_full, buffer_bytes
            lines = lines_full + (1 if buffer_bytes else 0)
            segments.append(Segment(
                index=len(segments),
                start=seg_start,
                end=end,
                records=records,
                lsl_bytes=lines * self.line_bytes,
                lines=lines,
                reason=reason,
            ))
            records = []
            seg_start = end
            lines_full = 0
            buffer_bytes = 0

        def pack(lines: int, buf: int, entry: int) -> tuple[int, int]:
            """Line-packing preview mirroring the LSPU: an entry that does
            not fit the current line starts a new one."""
            if buf + entry > self.line_bytes:
                if buf:
                    lines += 1
                lines += entry // self.line_bytes
                buf = entry % self.line_bytes
            else:
                buf += entry
            if buf == self.line_bytes:
                lines += 1
                buf = 0
            return lines, buf

        def advance(limit: int) -> None:
            """Fire the interrupt/timeout cuts at indices <= ``limit``.

            At equal indices a forced (interrupt) cut wins over a timeout
            cut.
            """
            nonlocal fp
            while True:
                cut_forced = forced_sorted[fp] if fp < n_forced else n + 1
                cut_timeout = seg_start + timeout
                if cut_forced <= cut_timeout:
                    if cut_forced > limit:
                        break
                    fp += 1
                    cut(cut_forced, CutReason.INTERRUPT)
                else:
                    if cut_timeout > limit:
                        break
                    cut(cut_timeout, CutReason.TIMEOUT)

        hash_mode = self.hash_mode
        for record in records_from_columns(columns):
            idx = record.trace_index
            advance(idx)
            entry_bytes = record.entry_bytes(hash_mode)
            if entry_bytes:
                new_lines, new_buffer = pack(lines_full, buffer_bytes,
                                             entry_bytes)
                used = new_lines * self.line_bytes + new_buffer
                if used > self.capacity and (records or buffer_bytes):
                    cut(idx, CutReason.LSL_FULL)
                    lines_full, buffer_bytes = pack(0, 0, entry_bytes)
                else:
                    lines_full, buffer_bytes = new_lines, new_buffer
            records.append(record)
        advance(n)
        if seg_start < n:
            cut(n, CutReason.PROGRAM_END)
        return segments
