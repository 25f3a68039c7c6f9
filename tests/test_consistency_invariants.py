"""Cross-module consistency invariants (property-based)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counter import SegmentBuilder
from repro.core.lsl import records_from_columns
from tests.lspu_reference import LoadStorePushUnit
from repro.core.system import CheckMode, ParaVerserConfig, ParaVerserSystem
from repro.cpu.config import CoreInstance
from repro.cpu.presets import A510, X2
from repro.workloads.generator import build_program
from repro.workloads.profiles import WorkloadProfile, get_profile
from tests.test_oracles import assert_same_cuts, dense_split


def generated_trace(loads, stores, bulk, seed, instructions=2_500):
    profile = WorkloadProfile(
        name="prop", suite="test", loads=loads, stores=stores,
        branches=0.1, fp=0.05, fdiv=0.01, nonrep=0.005, gather=0.03,
        bulk=bulk, branch_entropy=0.2, working_set_kib=64,
        pointer_chase=0.2, stride=0, icache_blocks=4, block_instrs=32,
    )
    program = build_program(profile, seed=seed)
    config = ParaVerserConfig(
        main=CoreInstance(X2, 3.0), checkers=[CoreInstance(A510, 2.0)],
        seed=seed, timeout_instructions=400,
    )
    system = ParaVerserSystem(config)
    return system, program, system.execute(program, instructions)


@settings(max_examples=10, deadline=None)
@given(
    loads=st.floats(min_value=0.1, max_value=0.35),
    stores=st.floats(min_value=0.05, max_value=0.15),
    bulk=st.floats(min_value=0.0, max_value=0.01),
    seed=st.integers(min_value=0, max_value=30),
)
def test_lspu_packing_matches_segment_builder_preview(loads, stores, bulk,
                                                      seed):
    """The SegmentBuilder's line-count preview must equal what the LSPU
    actually pushes for the same records — the main core sizes segments
    for the checker's LSL$ based on this preview."""
    _, _, run = generated_trace(loads, stores, bulk, seed)
    builder = SegmentBuilder(lsl_capacity_bytes=8192,
                             timeout_instructions=300)
    for segment in builder.split(run.columns):
        lspu = LoadStorePushUnit()
        lines = 0
        for record in segment.records:
            for pushed in lspu.record(record):
                lines += pushed.lines
        flush = lspu.flush()
        if flush is not None:
            lines += flush.lines
        assert lines == segment.lines, (segment.index, lines, segment.lines)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=20))
def test_segment_records_equal_trace_records(seed):
    _, _, run = generated_trace(0.25, 0.1, 0.005, seed)
    builder = SegmentBuilder(lsl_capacity_bytes=32 * 1024,
                             timeout_instructions=500)
    segments = builder.split(run.columns)
    from_trace = records_from_columns(run.columns)
    from_segments = [r for seg in segments for r in seg.records]
    assert len(from_trace) == len(from_segments)
    for a, b in zip(from_trace, from_segments):
        assert a.kind is b.kind and a.trace_index == b.trace_index
    # The dense instruction-by-instruction walk cuts the same segments.
    assert_same_cuts(segments, dense_split(builder, run.columns))


class TestScheduleInvariants:
    def run_system(self, mode, checkers=None, **kw):
        program = build_program(get_profile("exchange2"), seed=9)
        config = ParaVerserConfig(
            main=CoreInstance(X2, 3.0),
            checkers=checkers or [CoreInstance(A510, 1.0)],
            mode=mode, seed=9, timeout_instructions=500, **kw,
        )
        return ParaVerserSystem(config).run(program,
                                            max_instructions=20_000)

    def test_full_mode_schedule_covers_every_segment(self):
        result = self.run_system(CheckMode.FULL)
        assert len(result.schedule) == result.segments
        assert all(s.covered for s in result.schedule)

    def test_slot_instruction_accounting_matches_coverage(self):
        for mode in (CheckMode.FULL, CheckMode.OPPORTUNISTIC,
                     CheckMode.SAMPLING):
            result = self.run_system(mode)
            checked = sum(s.instructions_checked
                          for s in result.checker_slots)
            assert checked == pytest.approx(
                result.coverage * result.instructions, rel=0.02)

    def test_schedule_times_monotonic(self):
        result = self.run_system(CheckMode.FULL)
        previous_end = 0.0
        for entry in result.schedule:
            assert entry.main_start_ns >= previous_end - 1e-6
            assert entry.main_end_ns >= entry.main_start_ns
            previous_end = entry.main_end_ns

    def test_checker_finish_after_segment_start(self):
        result = self.run_system(CheckMode.FULL)
        for entry in result.schedule:
            if entry.covered:
                assert entry.checker_finish_ns >= entry.main_start_ns

    def test_opportunistic_coverage_fraction_bounds(self):
        result = self.run_system(CheckMode.OPPORTUNISTIC)
        for entry in result.schedule:
            assert 0.0 <= entry.coverage_fraction <= 1.0

    def test_stalls_only_in_full_mode(self):
        assert self.run_system(CheckMode.OPPORTUNISTIC).stall_ns == 0.0
        assert self.run_system(CheckMode.SAMPLING).stall_ns == 0.0
