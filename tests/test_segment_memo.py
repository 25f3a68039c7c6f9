"""Segmentation derives from the main core's execution alone, so a run
memoises it for every configuration that reads the same trace.

``RunResult.memo`` keeps per-row LSL entry sizes, register checkpoints
by trace index and Hash Mode digests by trace range; segments build
their log records on first read.  These tests hold every memo hit to a
miss and to a fresh run of the same trace, force the genuine checkpoint
pass through a partly memoised boundary set, and check that the memo
dies with the ``columns`` object it derives from.
"""

import copy
import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.pipeline.trace as trace_stage
from repro.core.counter import CutReason, SegmentBuilder
from repro.core.hashmode import digest_segment
from repro.core.lsl import records_from_columns, row_entry_bytes
from repro.core.system import ParaVerserSystem
from repro.cpu.traceio import run_from_bytes, run_to_bytes
from repro.harness.experiments import FIG6_CONFIGS
from repro.harness.runner import WorkloadCache
from repro.pipeline.context import SimContext
from repro.pipeline.timing import main_timing
from repro.pipeline.trace import segment_trace

INSTRUCTIONS = 20_000
TIMEOUT = 1_000


@pytest.fixture(scope="module")
def trace():
    """A perlbench trace: it logs non-repeatable values for the pass."""
    return WorkloadCache(max_instructions=INSTRUCTIONS, seed=7,
                         trace_cache=None).get("perlbench").run


@pytest.fixture
def passes(monkeypatch):
    """The segment ends of every genuine checkpoint pass, in order."""
    calls = []
    real = trace_stage._checkpoint_pass

    def counted(run, segments, out):
        calls.append([seg.end for seg in segments])
        real(run, segments, out)

    monkeypatch.setattr(trace_stage, "_checkpoint_pass", counted)
    return calls


def _fresh(run):
    """The same trace in a new run, so with an empty memo."""
    return run_from_bytes(run_to_bytes(run))


def _config(hash_mode=False):
    return dataclasses.replace(FIG6_CONFIGS["1xX2@3GHz"](),
                               timeout_instructions=TIMEOUT,
                               hash_mode=hash_mode)


def _view(segments):
    return [(seg.index, seg.start, seg.end, seg.reason, seg.lsl_bytes,
             seg.lines, seg.start_checkpoint, seg.end_checkpoint,
             seg.digest, seg.records) for seg in segments]


def _with_log(run, edit):
    """A copy of ``run`` whose memory plane went through ``edit``."""
    columns = copy.copy(run.columns)
    columns.mem_rows = edit(list(columns.mem_rows))
    edited = copy.copy(run)
    edited.columns = columns
    return edited


def _in_range(records, seg):
    return [r for r in records if seg.start <= r.trace_index < seg.end]


@pytest.mark.parametrize("hash_mode", [False, True])
def test_memo_hit_equals_miss_and_a_fresh_run(trace, passes, hash_mode):
    run = _fresh(trace)
    ctx = SimContext.create(_config(hash_mode))
    miss = _view(segment_trace(ctx, run))
    memo = run.memo
    sizes = memo.row_sizes
    checkpoints = dict(memo.checkpoints)
    digests = dict(memo.digests)
    assert len(passes) == 1
    assert len(checkpoints) == len(miss)
    assert len(digests) == (len(miss) if hash_mode else 0)

    hit = _view(segment_trace(ctx, run))
    assert len(passes) == 1  # every end memoised: no second pass
    assert memo.row_sizes is sizes
    assert memo.checkpoints == checkpoints and memo.digests == digests
    assert hit == miss
    assert _view(segment_trace(ctx, _fresh(run))) == miss
    assert len(passes) == 2
    assert sizes == row_entry_bytes(run.columns)
    if hash_mode:
        assert all(seg[8] == digest_segment(seg[9]) for seg in hit)


def test_an_unseen_boundary_reruns_the_genuine_pass(trace, passes):
    run = _fresh(trace)
    ctx = SimContext.create(_config())
    segment_trace(ctx, run)
    unseen = TIMEOUT // 2
    assert unseen not in run.memo.checkpoints
    forced = segment_trace(ctx, run, {unseen})
    assert len(passes) == 2 and unseen in passes[-1]
    assert passes[-1] == [seg.end for seg in forced]
    assert _view(forced) == _view(segment_trace(ctx, _fresh(run), {unseen}))


def test_a_draw_log_fault_raises_through_a_partly_memoised_pass(trace):
    run = _fresh(trace)
    ctx = SimContext.create(_config())
    segment_trace(ctx, run)
    first = next(row[0] for row in run.columns.mem_rows
                 if row[7] is not None)

    def drop_first(rows):
        return [row[:7] + (None,) if row[0] == first else row
                for row in rows]

    edited = _with_log(run, drop_first)
    # Every end but the forced one is memoised: the pass must still run.
    edited.memo.checkpoints.update(run.memo.checkpoints)
    unseen = TIMEOUT // 2
    assert unseen not in edited.memo.checkpoints
    with pytest.raises(RuntimeError,
                       match=rf"trace\[{first}\] that the run did not log"):
        segment_trace(ctx, edited, {unseen})


@pytest.mark.parametrize("capacity", [256, 4096, 1 << 20])
@pytest.mark.parametrize("hash_mode", [False, True])
def test_lazy_records_equal_the_row_slice(trace, capacity, hash_mode):
    columns = trace.columns
    forced = {777, 3_001, 12_345}
    builder = SegmentBuilder(capacity, TIMEOUT, hash_mode=hash_mode)
    segments = builder.split(columns, forced)
    records = records_from_columns(columns)
    position = 0
    for seg in segments:
        expected = _in_range(records, seg)
        assert seg.records == expected
        assert records[position:position + len(expected)] == expected
        position += len(expected)
    assert position == len(records)
    reasons = {seg.reason for seg in segments}
    assert CutReason.INTERRUPT in reasons
    if capacity == 256:
        assert CutReason.LSL_FULL in reasons


def test_reading_records_twice_returns_the_same_list(trace):
    seg = SegmentBuilder(4096, TIMEOUT).split(trace.columns)[3]
    first = seg.records
    assert first and seg.records is first


def test_segmentation_stays_out_of_the_serialised_run(trace):
    run = _fresh(trace)
    before = run_to_bytes(run)
    segment_trace(SimContext.create(_config(hash_mode=True)), run)
    assert run.memo.row_sizes and run.memo.checkpoints and run.memo.digests
    assert run_to_bytes(run) == before


def _race(fn, workers=4):
    """``fn`` on ``workers`` threads released together, with a short
    switch interval so their first reads interleave."""
    barrier = threading.Barrier(workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(lambda: (barrier.wait(60), fn())[1])
                       for _ in range(workers)]
            return [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)


def test_racing_reads_of_one_lazy_segment_are_equal(trace):
    seg = SegmentBuilder(4096, TIMEOUT).split(trace.columns)[5]
    expected = _in_range(records_from_columns(trace.columns), seg)
    results = _race(lambda: seg.records)
    assert all(records == expected for records in results)
    assert any(records is seg.records for records in results)


def test_racing_fills_of_one_memo_are_equal(trace):
    run = _fresh(trace)
    ctx = SimContext.create(_config(hash_mode=True))
    results = _race(lambda: _view(segment_trace(ctx, run)))
    expected = _view(segment_trace(ctx, _fresh(run)))
    assert all(view == expected for view in results)
    assert _view(segment_trace(ctx, run)) == expected


def test_a_copy_with_edited_columns_recomputes_its_memos(trace, passes):
    run = _fresh(trace)
    config = _config(hash_mode=True)
    ctx = SimContext.create(config)
    segment_trace(ctx, run)
    main_timing(config, run, None, 0.0)
    memo = run.memo
    assert copy.copy(run).memo is memo  # same columns, same trace

    # A plain load now logs a 16-byte access: a bigger entry.
    row = next(i for i, r in enumerate(run.columns.mem_rows)
               if r[2] == -1 and r[4] is not None and r[6] is None
               and r[7] is None and r[3] == 8)

    def widen(rows):
        rows[row] = rows[row][:3] + (16,) + rows[row][4:]
        return rows

    edited = _with_log(run, widen)
    fresh = edited.memo
    assert fresh is not memo
    assert (fresh.timing_events, fresh.checkpoints, fresh.row_sizes,
            fresh.digests) == ({}, {}, None, {})

    segment_trace(ctx, edited)
    main_timing(config, edited, None, 0.0)
    assert len(passes) == 2
    assert fresh.row_sizes == row_entry_bytes(edited.columns)
    assert fresh.row_sizes[1][row] == memo.row_sizes[1][row] + 8
    assert fresh.row_sizes[2][row] == memo.row_sizes[2][row] + 8
    assert fresh.checkpoints == memo.checkpoints
    assert fresh.digests != memo.digests
    (key, events), = fresh.timing_events.items()
    assert events is not memo.timing_events[key]
    assert run.memo is memo  # the original keeps its own


def test_memoised_runs_match_a_fresh_run_through_the_graph(trace):
    """Whole checked runs, with the stage-graph executor the environment
    selects: the verify sample reads lazy records on its threads."""
    config = _config(hash_mode=True)
    run = _fresh(trace)

    def outcome(run_result):
        result = ParaVerserSystem(config).run(run_result.program,
                                              run_result=run_result)
        return (result.checked_time_ns, result.segments, result.lsl_bytes,
                result.cut_reasons,
                [(r.detected, r.records_consumed)
                 for r in result.verify_results])

    cold = outcome(run)
    assert outcome(run) == cold
    assert outcome(_fresh(trace)) == cold
