"""The checkpoint pass replays the run's logged non-repeatable values.

The main core logs every non-repeatable value (random, timer and
system-register reads, store-conditional outcomes) into the LSL.  The
checkpoint pass re-executes the main core to capture boundary register
checkpoints, so it must draw those values from the log: a fresh source
seeded from the configuration diverges from the trace whenever the
configuration's seed is not the one the trace was generated under, and
a segment ending shortly after an ``rdrand`` then carries a wrong end
checkpoint that a healthy checker flags.

The oracle healthy-checks *every* segment (a run samples only a few)
under every configuration constructor the figures and the detection
registry use, on traces generated at two seeds, and a campaign
substrate built at a non-default seed.
"""

import copy
import dataclasses

import pytest

from repro.core.checker import CheckerCore
from repro.core.counter import SegmentBuilder
from repro.detect import backend_names, get_backend
from repro.faults.engine import CampaignSpec, _substrate
from repro.harness.experiments import FIG6_CONFIGS
from repro.harness.runner import WorkloadCache
from repro.pipeline.context import SimContext
from repro.pipeline.trace import fill_checkpoints, segment_trace

INSTRUCTIONS = 20_000
TIMEOUT = 1_000


@pytest.fixture(scope="module")
def perlbench_traces():
    """perlbench traces at the two seeds the oracle runs."""
    return {seed: WorkloadCache(max_instructions=INSTRUCTIONS, seed=seed,
                                trace_cache=None).get("perlbench")
            for seed in (7, 3)}


def _constructors() -> dict:
    """FIG6_CONFIGS plus every registry backend that simulates a config
    (lockstep and software baselines have none)."""
    makers = dict(FIG6_CONFIGS)
    for name in backend_names():
        make = getattr(get_backend(name), "make_config", None)
        if make is not None:
            makers[f"backend:{name}"] = make
    return makers


def _first_divergence(cached, config):
    """The first healthy-checker detection over every segment, or None."""
    segments = segment_trace(SimContext.create(config), cached.run)
    checker = CheckerCore(cached.program, hash_mode=config.hash_mode)
    for seg in segments:
        result = checker.check_segment(seg)
        if result.detected:
            return str(result.first_event)
    return None


def test_dsn18_perlbench_checks_clean(perlbench_traces):
    """DSN18's config keeps the default seed 0 while the trace is
    generated at seed 7; at the timeout-1000 cuts, segment 9 of the
    perlbench trace used to end after an ``rdrand`` whose checkpoint
    value came from the wrong stream (``store_data @trace[4925]``)."""
    cache = WorkloadCache(max_instructions=INSTRUCTIONS, seed=7,
                          trace_cache=None)
    config = get_backend("dsn18").make_config(timeout_instructions=TIMEOUT)
    assert config.seed != 7
    result = cache.run_config("perlbench", config)
    assert result.instructions == INSTRUCTIONS
    assert _first_divergence(perlbench_traces[7], config) is None


@pytest.mark.parametrize("seed", [7, 3])
def test_every_config_constructor_checks_every_segment_clean(
        perlbench_traces, seed):
    cached = perlbench_traces[seed]
    failures = {}
    for label, make in _constructors().items():
        config = dataclasses.replace(make(), timeout_instructions=TIMEOUT)
        event = _first_divergence(cached, config)
        if event is not None:
            failures[label] = event
    assert failures == {}


def test_campaign_substrate_at_a_non_default_seed_checks_clean():
    """A campaign builds its config with the pinned default seed 7 but
    its trace at the spec's seed; at seed 5, perlbench segment 3 used
    to end on a wrong checkpoint, so every fault-free replay of it
    looked like a detection."""
    spec = CampaignSpec(workload="perlbench", instructions=INSTRUCTIONS,
                        seed=5, trials=1)
    substrate = _substrate(spec)
    checker = CheckerCore(substrate.program)
    detected = [seg.index for seg in substrate.segments
                if checker.check_segment(seg).detected]
    assert detected == []


def _with_log(run, edit):
    """A copy of ``run`` whose memory plane went through ``edit``."""
    columns = copy.copy(run.columns)
    columns.mem_rows = edit(list(columns.mem_rows))
    edited = copy.copy(run)
    edited.columns = columns
    return edited


def _segments(cached):
    config = FIG6_CONFIGS["1xX2@3GHz"]()
    builder = SegmentBuilder(lsl_capacity_bytes=config.lsl_capacity(),
                             timeout_instructions=TIMEOUT, hash_mode=False)
    return builder.split(cached.run.columns)


def test_draw_the_run_did_not_log_raises_with_trace_index(
        perlbench_traces):
    cached = perlbench_traces[7]
    first = next(row[0] for row in cached.run.columns.mem_rows
                 if row[7] is not None)

    def drop_first(rows):
        return [row[:7] + (None,) if row[0] == first else row
                for row in rows]

    with pytest.raises(RuntimeError, match=rf"drew .* at trace\[{first}\]"):
        fill_checkpoints(_with_log(cached.run, drop_first),
                         _segments(cached))


def test_undrawn_logged_value_raises_with_trace_index(perlbench_traces):
    cached = perlbench_traces[7]
    segments = _segments(cached)
    # A value logged on a plain load after the segment's last draw is
    # still pending when the pass reaches the segment end.
    end = segments[0].end
    target = max(row[0] for row in cached.run.columns.mem_rows
                 if row[0] < end)
    assert all(row[7] is None for row in cached.run.columns.mem_rows
               if row[0] == target)

    def add_value(rows):
        return [row[:7] + (0,) if row[0] == target else row
                for row in rows]

    with pytest.raises(RuntimeError, match=rf"trace\[{target}\] undrawn"):
        fill_checkpoints(_with_log(cached.run, add_value), segments)
