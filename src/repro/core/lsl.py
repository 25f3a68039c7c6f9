"""Load-Store Log records and the Load-Store Log Cache (LSL$).

Section IV-B of the paper: the checker core's data cache is repurposed as a
linear log.  A typical entry is a 7-byte address, a 1-byte size field and a
payload rounded up to the nearest 8 bytes (loaded data first, then stored
data when both exist, e.g. for a SWP).  Multi-address instructions
(scatter/gather) store each (address, size, data) group in sequence, lowest
address first.  In Hash Mode only replay data (loaded values) occupy the
log; verification metadata is folded into a SHA-256 digest instead.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.isa.instructions import CACHE_LINE_BYTES, LSL_ADDRESS_BYTES, \
    LSL_SIZE_FIELD_BYTES, Opcode

if TYPE_CHECKING:
    from repro.cpu.columns import TraceColumns
    from repro.isa.program import Program


class RecordKind(enum.Enum):
    """What a log record describes, which drives checker-side handling."""

    LOAD = "load"
    STORE = "store"
    SWAP = "swap"            # loaded and stored data in one entry
    GATHER = "gather"        # multiple independent loads
    SCATTER = "scatter"      # multiple independent stores
    BULK = "bulk"            # bulk copy: many words in one macro-op entry
    NONREP = "nonrep"        # non-memory non-repeatable value (RNG, timer...)
    NONREP_STORE = "nonrep_store"  # store-conditional: flag + optional store


@dataclass(frozen=True, slots=True)
class LSLAccess:
    """One (address, size, data) group within a record."""

    addr: int
    size: int
    loaded: int | None = None
    stored: int | None = None

    def payload_bytes(self) -> int:
        """Data bytes, rounded up to 8 (the paper's entry format)."""
        data = 0
        if self.loaded is not None:
            data += self.size
        if self.stored is not None:
            data += self.size
        return (data + 7) & ~7 if data else 8


@dataclass(frozen=True, slots=True)
class LSLRecord:
    """One load-store-log entry, possibly multi-access (scatter/gather)."""

    kind: RecordKind
    accesses: tuple[LSLAccess, ...]
    trace_index: int

    def entry_bytes(self, hash_mode: bool = False) -> int:
        """Log bytes this record occupies.

        In Hash Mode only the replay payload (loaded/non-repeatable data)
        is stored; addresses, sizes and stored data live in the running
        hash (section IV-I), halving load traffic and eliminating store
        traffic.
        """
        if hash_mode:
            replay = 0
            for access in self.accesses:
                if access.loaded is not None:
                    replay += (access.size + 7) & ~7
            return replay
        total = 0
        for access in self.accesses:
            total += LSL_ADDRESS_BYTES + LSL_SIZE_FIELD_BYTES
            total += access.payload_bytes()
        return total


#: Per-pc record-kind codes.  BCOPY is tested before the generic
#: load/store flags, because it sets both.
(_KIND_NONE, _KIND_LOAD, _KIND_STORE, _KIND_SWAP, _KIND_SC, _KIND_LDG,
 _KIND_STS, _KIND_BCOPY, _KIND_NONREP) = range(9)


def _record_kind_table(program: "Program") -> list[int]:
    """Static record kind per pc, cached on the program object."""
    table = getattr(program, "_lsl_kind_table", None)
    if table is None:
        table = []
        for instr in program.instructions:
            op = instr.op
            spec = instr.spec
            if op is Opcode.BCOPY:
                code = _KIND_BCOPY
            elif op is Opcode.SWP:
                code = _KIND_SWAP
            elif op is Opcode.SC:
                code = _KIND_SC
            elif op is Opcode.LDG:
                code = _KIND_LDG
            elif op is Opcode.STS:
                code = _KIND_STS
            elif spec.is_load:
                code = _KIND_LOAD
            elif spec.is_store:
                code = _KIND_STORE
            elif spec.is_nonrepeatable:
                code = _KIND_NONREP
            else:
                code = _KIND_NONE
            table.append(code)
        program._lsl_kind_table = table
    return table


def records_from_columns(columns: "TraceColumns", lo: int = 0,
                         hi: int | None = None) -> list[LSLRecord]:
    """The log records of mem-plane rows ``lo:hi``, in commit order.

    Every instruction that produces a log record also emits a mem-plane
    row (and vice versa), so this walks the sparse row plane only.
    BCOPY is one macro-op with many accesses — the oversized-entry case
    the paper flags for x86 REP MOVS (footnote 14): the loads in source
    address order, then the mirrored stores.
    """
    table = _record_kind_table(columns.program)
    pcs = columns.pcs
    bulks = columns.bulks
    out: list[LSLRecord] = []
    append = out.append
    for idx, addr, addr2, size, loaded, loaded2, stored, nonrep \
            in columns.mem_rows[lo:hi]:
        kind = table[pcs[idx]]
        if kind == _KIND_LOAD:
            append(LSLRecord(RecordKind.LOAD,
                             (LSLAccess(addr, size, loaded, None),), idx))
        elif kind == _KIND_STORE:
            append(LSLRecord(RecordKind.STORE,
                             (LSLAccess(addr, size, None, stored),), idx))
        elif kind == _KIND_SWAP:
            append(LSLRecord(RecordKind.SWAP,
                             (LSLAccess(addr, size, loaded, stored),), idx))
        elif kind == _KIND_SC:
            append(LSLRecord(RecordKind.NONREP_STORE,
                             (LSLAccess(addr, size, nonrep, stored),), idx))
        elif kind == _KIND_LDG:
            first = LSLAccess(addr, size, loaded, None)
            second = LSLAccess(addr2, size, loaded2, None)
            # Lowest address first (microarchitectural invariance, IV-C).
            accesses = (first, second) if addr <= addr2 else (second, first)
            append(LSLRecord(RecordKind.GATHER, accesses, idx))
        elif kind == _KIND_STS:
            first = LSLAccess(addr, size, None, stored)
            second = LSLAccess(addr2, size, None, stored)
            accesses = (first, second) if addr <= addr2 else (second, first)
            append(LSLRecord(RecordKind.SCATTER, accesses, idx))
        elif kind == _KIND_BCOPY:
            bulk = bulks[idx]
            accesses = tuple(
                LSLAccess(addr + 8 * i, 8, loaded=value, stored=None)
                for i, value in enumerate(bulk)
            ) + tuple(
                LSLAccess(addr2 + 8 * i, 8, loaded=None, stored=value)
                for i, value in enumerate(bulk)
            )
            append(LSLRecord(RecordKind.BULK, accesses, idx))
        else:  # _KIND_NONREP
            append(LSLRecord(RecordKind.NONREP,
                             (LSLAccess(0, 8, nonrep, None),), idx))
    return out


def row_entry_bytes(columns: "TraceColumns") -> tuple[array, array, array]:
    """Per mem-plane row: trace index, entry bytes, Hash Mode entry bytes.

    Read off the records, so :meth:`LSLRecord.entry_bytes` stays the one
    size rule; the records themselves are dropped.
    """
    records = records_from_columns(columns)
    return (array("I", [record.trace_index for record in records]),
            array("I", [record.entry_bytes(False) for record in records]),
            array("I", [record.entry_bytes(True) for record in records]))


class LoadStoreLogCache:
    """The checker-side LSL$: a data cache repurposed as a linear log.

    Models Fig. 3: lines are claimed from index 0 upwards, each tagged with
    the extra log bit; the *log end register* tracks the last valid line.
    Entries are accessed by index (for speculative out-of-order checkers,
    section IV-G), not by tag comparison.
    """

    def __init__(self, capacity_bytes: int,
                 line_bytes: int = CACHE_LINE_BYTES) -> None:
        if capacity_bytes < line_bytes:
            raise ValueError("LSL$ must hold at least one cache line")
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.capacity_lines = capacity_bytes // line_bytes
        self._records: list[LSLRecord] = []
        self._line_of_record: list[int] = []
        self.end_register = -1  # last valid log line, like the paper's register
        self.bytes_used = 0
        self.lines_evicted = 0
        self.checkpoint_armed = False  # set when the end checkpoint arrives

    def push_line(self, records: list[LSLRecord], line_count: int = 1) -> None:
        """Receive one pushed cache line (or flush) of records from the NoC."""
        new_end = self.end_register + line_count
        if new_end >= self.capacity_lines:
            raise OverflowError(
                f"LSL$ overflow: line {new_end} >= capacity {self.capacity_lines}"
            )
        for record in records:
            self._records.append(record)
            self._line_of_record.append(new_end)
        self.end_register = new_end
        self.lines_evicted += line_count
        self.bytes_used += line_count * self.line_bytes

    @property
    def valid_records(self) -> int:
        return len(self._records)

    def record_at(self, index: int) -> LSLRecord:
        """Indexed access (the speculative-index scheme reads by offset)."""
        return self._records[index]

    def is_pushed(self, index: int) -> bool:
        """True when entry ``index`` has arrived (eager-wake limiter)."""
        return index < len(self._records)

    def would_fill(self, extra_bytes: int, used_bytes: int) -> bool:
        """Main-core-side check: would appending overflow the target LSL$?"""
        return used_bytes + extra_bytes > self.capacity_bytes

    def reset(self) -> None:
        """Free the log (end of checkpoint: all lines revert to cache use)."""
        self._records.clear()
        self._line_of_record.clear()
        self.end_register = -1
        self.bytes_used = 0
        self.checkpoint_armed = False
