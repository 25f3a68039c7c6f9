"""Tests for LSL records and the Load-Store Log Cache."""

import pytest
from hypothesis import given, strategies as st

from repro.core.lsl import (
    LoadStoreLogCache,
    LSLAccess,
    LSLRecord,
    RecordKind,
    records_from_columns,
)
from repro.cpu.functional import DirectMemoryPort, FunctionalCore
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.mem.memory import Memory


def trace_of(*instructions, ints=None, image=None):
    instrs = list(instructions) + [Instruction(Opcode.HALT)]
    program = Program("t", instrs, memory_image=image or {})
    program.validate()
    core = FunctionalCore(program, DirectMemoryPort(Memory(image or {})))
    for idx, value in (ints or {}).items():
        core.regs.write_int(idx, value)
    return core.run(100).columns


def first_record(columns):
    """The record of the first committed instruction, or None."""
    records = records_from_columns(columns)
    if records and records[0].trace_index == 0:
        return records[0]
    return None


class TestRecordFromTrace:
    def test_plain_load(self):
        trace = trace_of(Instruction(Opcode.LD, rd=3, rs1=1, size=4),
                         ints={1: 0x1000}, image={0x1000: 0xAA})
        record = first_record(trace)
        assert record.kind is RecordKind.LOAD
        access = record.accesses[0]
        assert access.addr == 0x1000 and access.size == 4
        assert access.loaded == 0xAA and access.stored is None

    def test_plain_store(self):
        trace = trace_of(Instruction(Opcode.ST, rs2=2, rs1=1, size=2),
                         ints={1: 0x1000, 2: 0xBEEF})
        record = first_record(trace)
        assert record.kind is RecordKind.STORE
        assert record.accesses[0].stored == 0xBEEF

    def test_swap_records_both_directions(self):
        trace = trace_of(Instruction(Opcode.SWP, rd=3, rs2=2, rs1=1),
                         ints={1: 0x10, 2: 7}, image={0x10: 5})
        record = first_record(trace)
        assert record.kind is RecordKind.SWAP
        access = record.accesses[0]
        assert access.loaded == 5 and access.stored == 7

    def test_gather_sorted_lowest_address_first(self):
        trace = trace_of(Instruction(Opcode.LDG, rd=3, rd2=4, rs1=1, rs2=2),
                         ints={1: 0x2000, 2: 0x1000},
                         image={0x1000: 1, 0x2000: 2})
        record = first_record(trace)
        assert record.kind is RecordKind.GATHER
        assert record.accesses[0].addr == 0x1000
        assert record.accesses[1].addr == 0x2000

    def test_scatter_sorted(self):
        trace = trace_of(Instruction(Opcode.STS, rs3=3, rs1=1, rs2=2),
                         ints={1: 0x3000, 2: 0x1000, 3: 9})
        record = first_record(trace)
        assert record.kind is RecordKind.SCATTER
        assert record.accesses[0].addr == 0x1000

    def test_nonrepeatable_value(self):
        trace = trace_of(Instruction(Opcode.RDRAND, rd=3))
        record = first_record(trace)
        assert record.kind is RecordKind.NONREP
        assert record.accesses[0].loaded == trace.mem_rows[0][7]  # nonrep

    def test_store_conditional(self):
        trace = trace_of(Instruction(Opcode.SC, rd=3, rs2=2, rs1=1),
                         ints={1: 0x10, 2: 4})
        record = first_record(trace)
        assert record.kind is RecordKind.NONREP_STORE
        assert record.accesses[0].loaded == 1  # success flag
        assert record.accesses[0].stored == 4

    def test_arithmetic_produces_no_record(self):
        trace = trace_of(Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2))
        assert first_record(trace) is None

    def test_branch_produces_no_record(self):
        trace = trace_of(Instruction(Opcode.BEQ, rs1=0, rs2=0, target=1))
        assert first_record(trace) is None


class TestEntryBytes:
    def test_load_entry_format(self):
        # 7 B address + 1 B size + 8 B payload (section IV-B).
        record = LSLRecord(RecordKind.LOAD,
                           (LSLAccess(0x100, 8, loaded=1),), 0)
        assert record.entry_bytes() == 16

    def test_payload_rounds_to_eight(self):
        record = LSLRecord(RecordKind.LOAD,
                           (LSLAccess(0x100, 2, loaded=1),), 0)
        assert record.entry_bytes() == 16  # 2 B of data still takes 8

    def test_swap_payload_has_both(self):
        record = LSLRecord(
            RecordKind.SWAP, (LSLAccess(0x100, 8, loaded=1, stored=2),), 0)
        assert record.entry_bytes() == 8 + 16  # header + 2x8 B

    def test_gather_counts_each_access(self):
        record = LSLRecord(RecordKind.GATHER, (
            LSLAccess(0x100, 8, loaded=1),
            LSLAccess(0x200, 8, loaded=2),
        ), 0)
        assert record.entry_bytes() == 2 * 16

    def test_hash_mode_drops_store_payloads(self):
        store = LSLRecord(RecordKind.STORE,
                          (LSLAccess(0x100, 8, stored=1),), 0)
        assert store.entry_bytes(hash_mode=True) == 0

    def test_hash_mode_keeps_load_payload_only(self):
        load = LSLRecord(RecordKind.LOAD,
                         (LSLAccess(0x100, 8, loaded=1),), 0)
        assert load.entry_bytes(hash_mode=True) == 8  # no addr/size header

    def test_hash_mode_halves_load_traffic(self):
        # The paper: hash mode reduces load traffic by 50 %.
        load = LSLRecord(RecordKind.LOAD,
                         (LSLAccess(0x100, 8, loaded=1),), 0)
        assert load.entry_bytes(True) * 2 == load.entry_bytes(False)


class TestLogCache:
    def make(self, capacity=1024):
        return LoadStoreLogCache(capacity)

    def record(self, index=0):
        return LSLRecord(RecordKind.LOAD,
                         (LSLAccess(0x100, 8, loaded=index),), index)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            LoadStoreLogCache(32)

    def test_push_advances_end_register(self):
        log = self.make()
        assert log.end_register == -1
        log.push_line([self.record(0)], line_count=1)
        assert log.end_register == 0
        log.push_line([self.record(1)], line_count=1)
        assert log.end_register == 1

    def test_indexed_access(self):
        log = self.make()
        log.push_line([self.record(0), self.record(1)])
        assert log.record_at(1).trace_index == 1

    def test_is_pushed_limiter(self):
        log = self.make()
        log.push_line([self.record(0)])
        assert log.is_pushed(0)
        assert not log.is_pushed(1)  # eager-wake: sleep until pushed

    def test_overflow_raises(self):
        log = self.make(capacity=128)  # 2 lines
        log.push_line([self.record(0)])
        log.push_line([self.record(1)])
        with pytest.raises(OverflowError):
            log.push_line([self.record(2)])

    def test_reset_frees_everything(self):
        log = self.make()
        log.push_line([self.record(0)])
        log.reset()
        assert log.end_register == -1
        assert log.valid_records == 0
        assert log.bytes_used == 0

    def test_would_fill(self):
        log = self.make(capacity=128)
        assert not log.would_fill(64, 0)
        assert log.would_fill(65, 64)


@given(st.integers(min_value=1, max_value=8),
       st.booleans(), st.booleans())
def test_entry_bytes_invariants(size, has_load, has_store):
    if not has_load and not has_store:
        has_load = True
    record = LSLRecord(RecordKind.SWAP, (LSLAccess(
        0x1000, size,
        loaded=1 if has_load else None,
        stored=2 if has_store else None,
    ),), 0)
    plain = record.entry_bytes(False)
    hashed = record.entry_bytes(True)
    assert plain >= 16            # header + at least one payload unit
    assert plain % 8 == 0
    assert hashed <= plain        # hash mode never grows the log
