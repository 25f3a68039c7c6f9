"""Tests for segment construction (instruction counter, section IV-F)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counter import CutReason, SegmentBuilder
from repro.cpu.columns import TraceColumns
from repro.cpu.functional import DirectMemoryPort, FunctionalCore
from repro.isa.assembler import assemble
from repro.mem.memory import Memory


def make_trace(loads_per_iter=2, iterations=200):
    body = "\n".join(
        f"ld x{3 + i}, {i * 8}(x2)" for i in range(loads_per_iter)
    )
    program = assemble(
        f"""
        addi x1, x0, {iterations}
        lui x2, 0x1000
        loop:
        {body}
        subi x1, x1, 1
        bne x1, x0, loop
        halt
        """
    )
    core = FunctionalCore(program, DirectMemoryPort(Memory()))
    return core.run(100_000).columns


def test_timeout_cuts():
    trace = make_trace()
    builder = SegmentBuilder(lsl_capacity_bytes=64 * 1024,
                             timeout_instructions=100)
    segments = builder.split(trace)
    assert all(seg.instructions <= 100 for seg in segments)
    assert segments[0].reason is CutReason.TIMEOUT


def test_lsl_full_cuts_with_tiny_capacity():
    trace = make_trace(loads_per_iter=4)
    builder = SegmentBuilder(lsl_capacity_bytes=256,
                             timeout_instructions=100_000)
    segments = builder.split(trace)
    assert segments[0].reason is CutReason.LSL_FULL
    for seg in segments[:-1]:
        assert seg.lsl_bytes <= 256


def test_segments_partition_trace_exactly():
    trace = make_trace()
    builder = SegmentBuilder(lsl_capacity_bytes=4096,
                             timeout_instructions=77)
    segments = builder.split(trace)
    assert segments[0].start == 0
    assert segments[-1].end == len(trace)
    for prev, cur in zip(segments, segments[1:]):
        assert prev.end == cur.start


def test_records_cover_all_memory_instructions():
    trace = make_trace()
    builder = SegmentBuilder(lsl_capacity_bytes=64 * 1024,
                             timeout_instructions=100)
    segments = builder.split(trace)
    total_records = sum(len(seg.records) for seg in segments)
    # Every load of the loop body is a record; nothing else is.
    expected = sum(1 for pc in trace.pcs
                   if trace.program.instructions[pc].spec.is_load)
    assert expected > 0
    assert total_records == expected


def test_records_belong_to_their_segment():
    trace = make_trace()
    segments = SegmentBuilder(64 * 1024, 50).split(trace)
    for seg in segments:
        for record in seg.records:
            assert seg.start <= record.trace_index < seg.end


def test_forced_boundaries_cut_as_interrupts():
    trace = make_trace()
    segments = SegmentBuilder(64 * 1024, 10_000).split(
        trace, forced_boundaries={100, 250})
    assert segments[0].end == 100
    assert segments[0].reason is CutReason.INTERRUPT
    assert segments[1].end == 250


def test_final_segment_reason_program_end():
    trace = make_trace()
    segments = SegmentBuilder(64 * 1024, 10_000).split(trace)
    assert segments[-1].reason is CutReason.PROGRAM_END


def test_default_timeout_is_5000():
    from repro.core.counter import DEFAULT_TIMEOUT_INSTRUCTIONS
    assert DEFAULT_TIMEOUT_INSTRUCTIONS == 5000  # Table I


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        SegmentBuilder(lsl_capacity_bytes=16)
    with pytest.raises(ValueError):
        SegmentBuilder(lsl_capacity_bytes=1024, timeout_instructions=0)


def test_lines_account_for_padding():
    trace = make_trace(loads_per_iter=1, iterations=50)
    segments = SegmentBuilder(64 * 1024, 10_000).split(trace)
    for seg in segments:
        raw = sum(r.entry_bytes() for r in seg.records)
        assert seg.lsl_bytes >= raw          # padding only adds
        assert seg.lsl_bytes == seg.lines * 64


def test_empty_trace_gives_no_segments():
    empty = TraceColumns(assemble("halt"))
    assert SegmentBuilder(1024, 100).split(empty) == []


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=10, max_value=400),
    st.integers(min_value=256, max_value=8192),
)
def test_partition_property(loads, timeout, capacity):
    trace = make_trace(loads_per_iter=loads, iterations=60)
    segments = SegmentBuilder(capacity, timeout).split(trace)
    covered = sum(seg.instructions for seg in segments)
    assert covered == len(trace)
    for seg in segments:
        assert seg.instructions > 0
        assert seg.lsl_bytes <= max(capacity, seg.lines * 64)
