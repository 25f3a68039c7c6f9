"""Load-Store Push Unit (LSPU): the line-packing reference.

Main-core side (section IV-C): buffers one cache line's worth of LSL
entries at commit, fusing micro-ops of a macro-op into one ISA-level entry,
and pushes complete lines directly over the NoC to the checker's LSL$ —
scratch traffic, not coherent traffic, so it bypasses the directory/LLC.

An entry larger than the remaining space in the current line spills to the
next line; only an entry larger than a whole line straddles lines.

The simulator sizes segments with ``SegmentBuilder.split``'s ``pack``
rule; the tests hold that rule to this push-by-push model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.lsl import LSLRecord
from repro.isa.instructions import CACHE_LINE_BYTES


@dataclass
class PushedLine:
    """One NoC push: records plus physical line/byte accounting."""

    records: list[LSLRecord]
    bytes_used: int
    lines: int  # physical cache lines covered (>1 for oversized entries)
    flush: bool = False  # end-of-checkpoint flush rather than a full line


@dataclass
class LSPUStats:
    """Traffic accounting for the NoC model."""

    records: int = 0
    lines_pushed: int = 0
    bytes_pushed: int = 0
    flushes: int = 0


class LoadStorePushUnit:
    """Packs LSL records into cache-line-sized NoC pushes."""

    def __init__(self, line_bytes: int = CACHE_LINE_BYTES,
                 hash_mode: bool = False) -> None:
        self.line_bytes = line_bytes
        self.hash_mode = hash_mode
        self._buffer: list[LSLRecord] = []
        self._buffer_bytes = 0
        self.stats = LSPUStats()

    @property
    def buffered_bytes(self) -> int:
        return self._buffer_bytes

    def record(self, record: LSLRecord) -> list[PushedLine]:
        """Add one committed record; return any lines this completes."""
        entry_bytes = record.entry_bytes(self.hash_mode)
        self.stats.records += 1
        pushed: list[PushedLine] = []
        if entry_bytes == 0:
            # Hash Mode store: nothing enters the log, only the digest.
            return pushed
        if self._buffer_bytes + entry_bytes > self.line_bytes:
            if self._buffer:
                pushed.append(self._emit(flush=False))
            if entry_bytes >= self.line_bytes:
                # Oversized entry: occupies multiple whole lines by itself.
                lines = (entry_bytes + self.line_bytes - 1) // self.line_bytes
                pushed.append(self._emit_single(record, entry_bytes, lines))
                return pushed
        self._buffer.append(record)
        self._buffer_bytes += entry_bytes
        if self._buffer_bytes == self.line_bytes:
            pushed.append(self._emit(flush=False))
        return pushed

    def flush(self) -> PushedLine | None:
        """Push the partial line at the end of a checkpoint."""
        if not self._buffer:
            return None
        line = self._emit(flush=True)
        self.stats.flushes += 1
        return line

    def _emit(self, flush: bool) -> PushedLine:
        line = PushedLine(
            records=self._buffer,
            bytes_used=self._buffer_bytes,
            lines=1,
            flush=flush,
        )
        self._buffer = []
        self._buffer_bytes = 0
        self.stats.lines_pushed += 1
        self.stats.bytes_pushed += self.line_bytes
        return line

    def _emit_single(self, record: LSLRecord, entry_bytes: int,
                     lines: int) -> PushedLine:
        self.stats.lines_pushed += lines
        self.stats.bytes_pushed += lines * self.line_bytes
        return PushedLine(records=[record], bytes_used=entry_bytes, lines=lines)
