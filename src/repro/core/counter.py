"""Instruction counter and segment construction.

Section IV-F: checkpoints end when (i) the target LSL$ fills, (ii) an
interrupt/context switch occurs, or (iii) a 5000-instruction timeout is
reached.  The counter interrupts main and checker cores at identical
committed-instruction counts, which in trace terms means segments are
contiguous index ranges of the commit trace.
"""

from __future__ import annotations

import enum

from repro.core.lsl import LSLRecord, records_from_columns, row_entry_bytes
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


class Segment:
    """One checkpointed interval of main-core execution.

    A segment cut by :meth:`SegmentBuilder.split` has ``records=None``
    and its mem-row range ``rows``, and builds its log records the first
    time they are read; one built with a ``records`` list holds it.
    """

    __slots__ = ("index", "start", "end", "lsl_bytes", "lines", "reason",
                 "start_checkpoint", "end_checkpoint", "digest", "_records",
                 "_rows")

    def __init__(self, index: int, start: int, end: int,
                 records: list[LSLRecord] | None, lsl_bytes: int,
                 lines: int, reason: CutReason,
                 rows: tuple[TraceColumns, int, int] | None = None) -> None:
        self.index = index
        self.start = start  # trace index, inclusive
        self.end = end      # trace index, exclusive
        self.lsl_bytes = lsl_bytes  # log bytes incl. line padding
        self.lines = lines  # cache lines pushed over the NoC
        self.reason = reason
        self.start_checkpoint: RegisterCheckpoint | None = None
        self.end_checkpoint: RegisterCheckpoint | None = None
        self.digest: bytes | None = None  # Hash Mode digest of verify metadata
        self._records = records
        self._rows = rows

    @property
    def records(self) -> list[LSLRecord]:
        """The segment's log records.  Racing first reads build equal
        lists; later reads return the stored one."""
        records = self._records
        if records is None:
            records = self._records = records_from_columns(*self._rows)
        return records

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
              forced_boundaries: set[int] | None = None,
              row_sizes: tuple | None = None) -> list[Segment]:
        """Segment a trace; ``forced_boundaries`` are interrupt points.

        Only record-bearing instructions (the mem-row plane) are visited,
        through their entry sizes (``row_sizes``, :func:`row_entry_bytes`
        of ``columns`` when not given); interrupt and timeout cuts between
        them are computed arithmetically.  A forced boundary at the trace
        end is no interrupt: the last segment ends with ``PROGRAM_END``.
        """
        n = len(columns)
        indices, plain, hashed = row_sizes or row_entry_bytes(columns)
        sizes = hashed if self.hash_mode else plain
        forced_sorted = sorted(
            f for f in (forced_boundaries or ()) if 0 < f < n)
        n_forced = len(forced_sorted)
        timeout = self.timeout
        segments: list[Segment] = []
        seg_start = 0
        seg_row = 0  # first mem row of the open segment
        row = 0      # next mem row to visit
        lines_full = 0
        buffer_bytes = 0
        fp = 0  # next forced boundary to consider

        def cut(end: int, reason: CutReason) -> None:
            nonlocal seg_start, seg_row, lines_full, buffer_bytes
            lines = lines_full + (1 if buffer_bytes else 0)
            segments.append(Segment(
                index=len(segments),
                start=seg_start,
                end=end,
                records=None,
                lsl_bytes=lines * self.line_bytes,
                lines=lines,
                reason=reason,
                rows=(columns, seg_row, row),
            ))
            seg_start = end
            seg_row = row
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

        for row, (idx, entry_bytes) in enumerate(zip(indices, sizes)):
            advance(idx)
            if entry_bytes:
                new_lines, new_buffer = pack(lines_full, buffer_bytes,
                                             entry_bytes)
                used = new_lines * self.line_bytes + new_buffer
                if used > self.capacity and (row > seg_row or buffer_bytes):
                    cut(idx, CutReason.LSL_FULL)
                    lines_full, buffer_bytes = pack(0, 0, entry_bytes)
                else:
                    lines_full, buffer_bytes = new_lines, new_buffer
        row = len(indices)
        advance(n)
        if seg_start < n:
            cut(n, CutReason.PROGRAM_END)
        return segments
