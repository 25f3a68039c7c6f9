"""Tests for bulk-copy macro-ops (footnote 14) and sampling mode (fn. 18)."""

import pytest

from repro.core.checker import CheckerCore
from repro.core.lsl import RecordKind, records_from_columns
from tests.lspu_reference import LoadStorePushUnit
from repro.core.system import CheckMode, ParaVerserConfig, ParaVerserSystem
from repro.cpu.config import CoreInstance
from repro.cpu.functional import DirectMemoryPort, FunctionalCore
from repro.cpu.presets import A510, X2
from repro.faults.models import StuckAtFault
from repro.isa.assembler import assemble
from repro.isa.instructions import FUKind, Opcode
from repro.mem.memory import Memory

BULK_PROGRAM = """
    addi x1, x0, 60
    lui x2, 0x1000
    lui x3, 0x8000
    .data 0x1000 111
    .data 0x1008 222
    .data 0x1010 333
loop:
    st x1, 16(x2)
    bcopy x2, x3, 16
    addi x3, x3, 8
    subi x1, x1, 1
    bne x1, x0, loop
    halt
"""


def run_program(text, max_instructions=2000):
    program = assemble(text, name="bulk")
    memory = Memory(program.memory_image)
    core = FunctionalCore(program, DirectMemoryPort(memory))
    return program, memory, core.run(max_instructions)


def first_bcopy_row(result):
    """The memory-plane row of the first committed BCOPY."""
    cols = result.columns
    instrs = result.program.instructions
    return next(row for row in cols.mem_rows
                if instrs[cols.pcs[row[0]]].op is Opcode.BCOPY)


def first_bulk_record(result):
    return next(r for r in records_from_columns(result.columns)
                if r.kind is RecordKind.BULK)


class TestBulkFunctional:
    def test_bcopy_moves_words(self):
        _, memory, _ = run_program("""
            lui x2, 0x1000
            lui x3, 0x2000
            .data 0x1000 5
            .data 0x1008 6
            bcopy x2, x3, 2
            halt
        """)
        assert memory.load(0x2000, 8) == 5
        assert memory.load(0x2008, 8) == 6

    def test_bcopy_trace_entry_records_words(self):
        _, _, result = run_program("""
            lui x2, 0x1000
            lui x3, 0x2000
            .data 0x1000 5
            bcopy x2, x3, 4
            halt
        """)
        row = first_bcopy_row(result)
        assert result.columns.bulks[row[0]] == (5, 0, 0, 0)
        assert row[1] == 0x1000 and row[2] == 0x2000  # addr, addr2

    def test_bcopy_word_count_clamped(self):
        _, _, result = run_program("""
            lui x2, 0x1000
            lui x3, 0x2000
            bcopy x2, x3, 99
            halt
        """)
        row = first_bcopy_row(result)
        assert len(result.columns.bulks[row[0]]) == 32  # hardware limit

    def test_bulk_record_is_oversized(self):
        _, _, result = run_program(BULK_PROGRAM, 200)
        record = first_bulk_record(result)
        assert record.trace_index == first_bcopy_row(result)[0]
        # 16 loads + 16 stores at 16 B each: far beyond one 64 B line.
        assert record.entry_bytes() > 64

    def test_lspu_spreads_bulk_entry_over_lines(self):
        _, _, result = run_program(BULK_PROGRAM, 200)
        record = first_bulk_record(result)
        lspu = LoadStorePushUnit()
        pushed = lspu.record(record)
        assert pushed and pushed[-1].lines > 1


class TestBulkChecking:
    def make_segments(self, text=BULK_PROGRAM, hash_mode=False):
        program = assemble(text, name="bulk")
        config = ParaVerserConfig(
            main=CoreInstance(X2, 3.0),
            checkers=[CoreInstance(A510, 2.0)],
            timeout_instructions=100,
            hash_mode=hash_mode,
        )
        system = ParaVerserSystem(config)
        run = system.execute(program, 1_000)
        return program, system.segment(run)

    def test_healthy_replay_clean(self):
        program, segments = self.make_segments()
        checker = CheckerCore(program)
        for segment in segments:
            result = checker.check_segment(segment)
            assert not result.detected, str(result.first_event)

    def test_healthy_replay_clean_in_hash_mode(self):
        program, segments = self.make_segments(hash_mode=True)
        checker = CheckerCore(program, hash_mode=True)
        for segment in segments:
            assert not checker.check_segment(segment).detected

    def test_address_fault_in_bulk_detected(self):
        program, segments = self.make_segments()
        checker = CheckerCore(program, fault_surface=StuckAtFault(
            FUKind.STORE, 0, bit=5, stuck_at=1, addresses_only=True))
        assert any(checker.check_segment(s).detected for s in segments)

    def test_full_system_run_with_bulk(self):
        program = assemble(BULK_PROGRAM, name="bulk")
        config = ParaVerserConfig(
            main=CoreInstance(X2, 3.0),
            checkers=[CoreInstance(A510, 2.0)] * 2,
            timeout_instructions=100,
        )
        result = ParaVerserSystem(config).run(program, max_instructions=1_000)
        assert result.coverage == 1.0
        assert all(not r.detected for r in result.verify_results)


class TestSamplingMode:
    def run_sampled(self, rate, timeout=500):
        from repro.workloads.generator import build_program
        from repro.workloads.profiles import get_profile

        program = build_program(get_profile("exchange2"), seed=7)
        config = ParaVerserConfig(
            main=CoreInstance(X2, 3.0),
            checkers=[CoreInstance(A510, 2.0)],
            mode=CheckMode.SAMPLING,
            sampling_rate=rate,
            seed=7,
            timeout_instructions=timeout,
        )
        return ParaVerserSystem(config).run(program,
                                            max_instructions=20_000)

    def test_coverage_tracks_sampling_rate(self):
        for rate in (0.25, 0.5):
            result = self.run_sampled(rate)
            assert result.coverage == pytest.approx(rate, abs=0.1)

    def test_sampling_never_stalls(self):
        result = self.run_sampled(0.5)
        assert result.stall_ns == 0.0

    def test_sampling_cheaper_than_full(self):
        from repro.workloads.generator import build_program
        from repro.workloads.profiles import get_profile

        program = build_program(get_profile("bwaves"), seed=7)
        base_config = dict(main=CoreInstance(X2, 3.0),
                           checkers=[CoreInstance(A510, 1.0)],
                           seed=7, timeout_instructions=500)
        full = ParaVerserSystem(ParaVerserConfig(
            mode=CheckMode.FULL, **base_config)).run(
                program, max_instructions=20_000)
        sampled = ParaVerserSystem(ParaVerserConfig(
            mode=CheckMode.SAMPLING, sampling_rate=0.25,
            **base_config)).run(program, max_instructions=20_000)
        assert sampled.checked_time_ns < full.checked_time_ns

    def test_sampled_segments_still_detect_faults(self):
        from repro.faults.campaign import FaultCampaign, covered_segments
        from repro.workloads.generator import build_program
        from repro.workloads.profiles import get_profile

        program = build_program(get_profile("deepsjeng"), seed=7)
        config = ParaVerserConfig(
            main=CoreInstance(X2, 3.0),
            checkers=[CoreInstance(A510, 2.0)],
            mode=CheckMode.SAMPLING, sampling_rate=0.5,
            seed=7, timeout_instructions=500,
        )
        system = ParaVerserSystem(config)
        run = system.execute(program, 10_000)
        result = system.run(program, run_result=run)
        covered = covered_segments(result)
        assert covered  # the sample is non-empty
        segments = system.segment(run)
        campaign = FaultCampaign(program, segments, A510)
        fault = StuckAtFault(FUKind.INT_ALU, 0, bit=0, stuck_at=1)
        outcome = campaign.run_trial(fault, covered=covered)
        assert outcome.detected
