"""Oracles that catch a wrong but stable campaign aggregate.

Golden files pin what the code computes today; these properties pin
what it must compute.  Every campaign aggregate is a
:class:`~repro.faults.engine.CampaignTally`, so the tally of a whole
campaign must equal the sum of the tallies of any split of its trials
into windows, and the router's merge of the windows' rows must equal
the whole campaign's row exactly.

The module also holds the slow, obvious references that fast paths are
compared against: unpruned campaign replay, the generic handler table,
and a dense instruction-by-instruction segmentation walk.
"""

import functools
import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checker import CheckerCore
from repro.core.counter import CutReason, Segment, SegmentBuilder
from repro.core.lsl import records_from_columns
from repro.core.rcu import RegisterCheckpointUnit
from repro.core.system import CheckMode, ParaVerserConfig, ParaVerserSystem
from repro.cpu.config import CoreInstance
from repro.cpu.functional import DirectMemoryPort, FunctionalCore
from repro.cpu.presets import A510, X2
from repro.faults.campaign import (
    GoldenStream,
    checker_fu_counts,
    replay_pass,
    same_fu_value,
)
from repro.faults.engine import (
    CampaignOutcome,
    CampaignSpec,
    CampaignTally,
    TrialRecord,
)
from repro.faults.models import (
    ALL_FAULT_KINDS,
    DefectFault,
    StuckAtFault,
    TransientFault,
    fault_for_trial,
)
from repro.faults.scenarios import (
    CAMPAIGN_SCHEMES,
    SCHEME_DME,
    SCHEME_MEEK,
    make_campaign,
)
from repro.isa.instructions import FUKind
from repro.mem.memory import Memory
from repro.router.service import RUNTIME_ROW_KEYS, merge_campaign_rows
from repro.workloads.generator import build_program
from repro.workloads.profiles import ALL_PROFILES, get_profile

KINDS = ("stuck_at", "transient_reg", "transient_lsq", "defect")

_outcomes = st.tuples(
    st.sampled_from(KINDS),
    st.sampled_from(("detected", "masked", "missed")),
    st.integers(min_value=0, max_value=10**9),
)


def _records(outcomes) -> list[TrialRecord]:
    return [TrialRecord(trial=trial, kind=kind, fault="f",
                        detected=status == "detected",
                        masked=status == "masked",
                        detection_instruction=(latency
                                               if status == "detected"
                                               else -1))
            for trial, (kind, status, latency) in enumerate(outcomes)]


def _windows(records, cuts):
    bounds = [0] + sorted(cut % (len(records) + 1) for cut in cuts) \
        + [len(records)]
    return [(lo, records[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _row(records, offset=0) -> dict:
    spec = CampaignSpec(workload="w", trials=len(records),
                        trial_offset=offset)
    return CampaignOutcome(spec=spec, records=records).to_row()


def _simulated(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in RUNTIME_ROW_KEYS}


@settings(max_examples=200, deadline=None)
@given(st.lists(_outcomes, max_size=40),
       st.lists(st.integers(min_value=0), max_size=5))
def test_window_tallies_sum_to_the_whole(outcomes, cuts):
    records = _records(outcomes)
    windows = _windows(records, cuts)
    whole = CampaignTally.of(records)
    assert sum((CampaignTally.of(w) for _, w in windows),
               CampaignTally()) == whole
    # ... and the whole tally matches a direct count of the records.
    latencies = [r.detection_instruction for r in records if r.detected]
    assert (whole.injected, whole.detected, whole.masked) == (
        len(records), len(latencies), sum(r.masked for r in records))
    assert whole.latency_sum == sum(latencies)
    assert whole.latency_max == max(latencies, default=0)
    assert whole.missed == sum(not r.detected and not r.masked
                               for r in records)
    assert sorted(whole.by_kind) == sorted(
        (kind, sum(r.kind == kind for r in records),
         sum(r.kind == kind and r.detected for r in records),
         sum(r.kind == kind and r.masked for r in records))
        for kind in {r.kind for r in records})


@settings(max_examples=200, deadline=None)
@given(st.lists(_outcomes, max_size=40),
       st.lists(st.integers(min_value=0), max_size=5))
def test_merged_window_rows_equal_the_whole_row(outcomes, cuts):
    records = _records(outcomes)
    rows = [_row(window, offset)
            for offset, window in _windows(records, cuts)]
    whole = _row(records)
    merged = merge_campaign_rows(rows)
    assert _simulated(merged) == _simulated(whole)
    # Exact means exact, down to the float bits.
    for key in ("detection_rate_all", "detection_rate_effective",
                "sdc_escape_rate", "mean_detection_latency"):
        assert repr(merged[key]) == repr(whole[key])


def test_zero_trial_tally_rates_are_zero():
    tally = CampaignTally()
    assert tally.detection_rate_all == 0.0
    assert tally.detection_rate_effective == 0.0
    assert tally.sdc_escape_rate == 0.0
    assert tally.mean_latency is None
    assert sum([], CampaignTally()) == tally


def test_all_masked_tally_rates_are_zero():
    tally = CampaignTally.of(_records([("stuck_at", "masked", 0)] * 3))
    assert tally.detection_rate_effective == 0.0
    assert tally.detection_rate_all == 0.0
    assert tally.sdc_escape_rate == 0.0
    assert tally.by_kind == (("stuck_at", 3, 0, 3),)


def test_row_round_trips_through_the_tally():
    records = _records([("stuck_at", "detected", 120),
                        ("defect", "missed", 0),
                        ("stuck_at", "masked", 0),
                        ("defect", "detected", 40)])
    tally = CampaignTally.of(records)
    assert CampaignTally.from_row(tally.to_row()) == tally
    assert tally.latency_max == 120
    assert tally.mean_latency == 80.0


# -- pruned campaign replay vs brute force -----------------------------------
#
# Campaign replay skips the segments a fault provably cannot touch.  The
# reference below is the unpruned semantics: a fresh CheckerCore replays
# every covered segment, then every uncovered one, under each scheme's
# rules.  Pruning must not move a single TrialRecord field.  mcf has no
# FP work; lbm is a third FP, so FP-unit faults see float events there.

SEED = 11
PROFILES = ("mcf", "lbm")


@functools.lru_cache(maxsize=None)
def _substrate(profile="mcf"):
    """A small checked run: ~14 segments of ``profile`` on an A510."""
    program = build_program(get_profile(profile), seed=SEED)
    config = ParaVerserConfig(main=CoreInstance(X2, 3.0),
                              checkers=[CoreInstance(A510, 2.0)],
                              mode=CheckMode.OPPORTUNISTIC, seed=SEED,
                              timeout_instructions=500)
    system = ParaVerserSystem(config)
    segments = system.segment(system.execute(program, 7_000))
    golden = GoldenStream(program, segments, checker_fu_counts(A510))
    return program, segments, golden


@functools.lru_cache(maxsize=None)
def _campaign(scheme, profile="mcf"):
    program, segments, golden = _substrate(profile)
    return make_campaign(scheme, program, segments, A510, seed=SEED,
                         golden=golden)


def _checker(campaign, surface, hash_mode=None):
    return CheckerCore(campaign.program, fault_surface=surface,
                       fu_counts=campaign.fu_counts,
                       hash_mode=(campaign.hash_mode if hash_mode is None
                                  else hash_mode))


def _first_hit(campaign, surface, segments, hash_mode=None):
    checker = _checker(campaign, surface, hash_mode)
    for seg in segments:
        if checker.check_segment(seg).detected:
            return seg
    return None


def _split(campaign, covered):
    if covered is None:
        return campaign.segments, []
    return ([s for s in campaign.segments if s.index in covered],
            [s for s in campaign.segments if s.index not in covered])


def _brute_paraverser(campaign, fault, covered):
    checked, unchecked = _split(campaign, covered)
    hit = _first_hit(campaign, fault.fresh(), checked)
    if hit is not None:
        return True, False, hit.end, hit.index
    missed = unchecked and _first_hit(campaign, fault.fresh(), unchecked)
    return False, not missed, -1, -1


def _brute_dme(campaign, fault, covered):
    checked, unchecked = _split(campaign, covered)
    hits = []
    for version, mask in enumerate(campaign.masks):
        hit = _first_hit(campaign, campaign._surface(fault, mask), checked)
        if hit is not None:
            hits.append((hit.end, version, hit.index))
    if hits:
        end, _, index = min(hits)
        return True, False, end, index
    missed = unchecked and any(
        _first_hit(campaign, campaign._surface(fault, mask), unchecked)
        for mask in campaign.masks)
    return False, not missed, -1, -1


def _brute_meek(campaign, fault, covered):
    surface = fault.fresh()
    for window in campaign._windows():
        if covered is not None and any(s.index not in covered
                                       for s in window):
            continue
        state, flagged = window[0].start_checkpoint, False
        for seg in window:
            flagged, state = campaign._replay_segment(seg, surface, state)
            if flagged:
                break
            corrupt = getattr(surface, "corrupt_checkpoint", None)
            if corrupt is not None:
                state = corrupt(state, seg.index)
        if not flagged:
            rcu = RegisterCheckpointUnit()
            rcu.arm(window[-1].end_checkpoint, window[-1].digest)
            flagged = rcu.compare(state, window[-1].index) is not None
        if flagged:
            return True, False, window[-1].end, window[-1].index
    missed = _first_hit(campaign, fault.fresh(), campaign.segments,
                        hash_mode=False)
    return False, missed is None, -1, -1


_BRUTE = {SCHEME_DME: _brute_dme, SCHEME_MEEK: _brute_meek}


def _pruned_record(campaign, trial, kind, fault, covered):
    result = campaign.run_trial(
        fault, None if covered is None else sorted(covered),
        trial=trial, kind=kind)
    return TrialRecord(trial, kind, fault.describe(), result.detected,
                       result.masked, result.detection_instruction,
                       result.detecting_segment)


def _brute_record(scheme, campaign, trial, kind, fault, covered):
    brute = _BRUTE.get(scheme, _brute_paraverser)
    detected, masked, instruction, segment = brute(campaign, fault, covered)
    return TrialRecord(trial, kind, fault.describe(), detected, masked,
                       instruction, segment)


_COVERAGE = st.one_of(
    st.just("full"), st.just("empty"), st.just("none"),
    st.lists(st.integers(min_value=0, max_value=40), max_size=12))


def _covered(campaign, coverage):
    indices = [seg.index for seg in campaign.segments]
    if isinstance(coverage, str):
        return {"full": set(indices), "empty": set(),
                "none": None}[coverage]
    return {indices[i % len(indices)] for i in coverage}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PROFILES),
       st.sampled_from(CAMPAIGN_SCHEMES),
       st.integers(min_value=0, max_value=10**6),
       st.sampled_from(ALL_FAULT_KINDS),
       _COVERAGE)
def test_pruned_replay_equals_brute_force(profile, scheme, trial, kind,
                                          coverage):
    campaign = _campaign(scheme, profile)
    covered = _covered(campaign, coverage)
    _, fault = fault_for_trial(SEED, trial, campaign.fu_counts,
                               kinds=(kind,),
                               segments=len(campaign.segments))
    assert _pruned_record(campaign, trial, kind, fault, covered) == \
        _brute_record(scheme, campaign, trial, kind, fault, covered)


#: FP-unit faults on every FP site of an A510 (two FP units, one
#: FP_DIV): stuck-ats on the sign bit (0.0 <-> -0.0), an exponent bit
#: (infinities and NaNs) and a low mantissa bit, data-path transients
#: early and late in the stream, and FP-class defects.
_FP_FAULTS = (
    [StuckAtFault(fu, unit, bit=bit, stuck_at=level)
     for fu, unit in ((FUKind.FP, 0), (FUKind.FP, 1), (FUKind.FP_DIV, 0))
     for bit in (63, 62, 3) for level in (0, 1)]
    + [TransientFault(fu, unit, bit=bit, strike_at_use=use)
       for fu, unit in ((FUKind.FP, 1), (FUKind.FP_DIV, 0))
       for bit, use in ((63, 1), (52, 40), (0, 600))]
    + [DefectFault(fus=(FUKind.FP, FUKind.FP_DIV), trigger_mask=mask,
                   trigger_value=value, corruption=corruption,
                   latch_after=latch)
       for mask, value, corruption, latch in ((0x1, 0x1, 1 << 63, 1),
                                              (0x6, 0x2, 1 << 40, 3),
                                              (0x0, 0x0, 1 << 62, 2))]
)


def test_fp_golden_stream_has_fp_events():
    """The FP oracle below is not vacuous: lbm's stream holds float
    events on every FP site those faults target."""
    _, _, golden = _substrate("lbm")
    for key in ((FUKind.FP, 0), (FUKind.FP, 1), (FUKind.FP_DIV, 0)):
        site = golden._site_ids[key]
        assert len(golden._positions[site]) > 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CAMPAIGN_SCHEMES),
       st.integers(min_value=0, max_value=len(_FP_FAULTS) - 1),
       _COVERAGE)
def test_pruned_replay_equals_brute_force_on_fp_faults(scheme, which,
                                                       coverage):
    campaign = _campaign(scheme, "lbm")
    covered = _covered(campaign, coverage)
    fault = _FP_FAULTS[which]
    kind = type(fault).__name__
    assert _pruned_record(campaign, which, kind, fault, covered) == \
        _brute_record(scheme, campaign, which, kind, fault, covered)


def test_pruned_replay_skips_segments():
    """The pruning is live: a fault whose site never fires replays none."""
    _, segments, golden = _substrate()
    # The round robin never selects a fourth INT_ALU on an A510.
    fault = StuckAtFault(FUKind.INT_ALU, 3, bit=3, stuck_at=1)
    replayed = []
    seg, _ = replay_pass(golden, fault, segments,
                         lambda s, live: replayed.append(s) or False)
    assert seg is None and replayed == []


def test_same_fu_value_is_bit_exact():
    assert same_fu_value(1.5, 1.5)
    assert not same_fu_value(-0.0, 0.0)
    assert not same_fu_value(0.0, -0.0)
    assert same_fu_value(-0.0, -0.0)
    nan = float("nan")
    assert not same_fu_value(nan, nan)
    assert not same_fu_value(1.0, nan)
    assert not same_fu_value(math.inf, -math.inf)
    # Integer results are masked to 64 bits, as the checker's ALU does.
    assert same_fu_value(7 + (1 << 64), 7)
    assert same_fu_value((1 << 64) - 1 + (5 << 64), (1 << 64) - 1)
    assert not same_fu_value(6, 7)


# -- fast handler table vs generic table -------------------------------------

class _Observer:
    """Identity surface recording the replayed end snapshot.  It declares
    no activation sites, so replay takes the generic table."""

    end = None

    def apply(self, fu, unit, value, is_address=False):
        return value

    def corrupt_checkpoint(self, checkpoint, segment_index):
        self.end = checkpoint
        return checkpoint


class _InertObserver(_Observer):
    """The same surface, declared FU-inert: replay takes the fast table."""

    def activation_sites(self, fu_counts):
        return frozenset()


def _bits(checkpoint):
    fps = checkpoint.fps
    return (checkpoint.pc, checkpoint.ints,
            struct.pack(f"<{len(fps)}d", *fps))


def _replay(program, seg, surface, fu_counts):
    result = CheckerCore(program, fault_surface=surface,
                         fu_counts=fu_counts).check_segment(seg)
    return (result.detected, [str(e) for e in result.events],
            result.records_consumed, result.instructions_replayed,
            _bits(surface.end) if surface.end is not None else None)


def test_fast_table_equals_generic_table_on_every_profile():
    counts = checker_fu_counts(A510)
    assert max(counts.values()) > 1  # the generic path round-robins
    config = ParaVerserConfig(main=CoreInstance(X2, 3.0),
                              checkers=[CoreInstance(A510, 2.0)],
                              mode=CheckMode.OPPORTUNISTIC, seed=3,
                              timeout_instructions=500)
    system = ParaVerserSystem(config)
    for name in ALL_PROFILES:
        program = build_program(get_profile(name), seed=3)
        segments = system.segment(system.execute(program, 2_000))
        for surface, fast in ((_Observer(), False),
                              (_InertObserver(), True)):
            assert FunctionalCore(program, _NullPort(),
                                  fault_surface=surface,
                                  fu_counts=counts)._fast is fast
        for seg in segments:
            generic = _replay(program, seg, _Observer(), counts)
            quick = _replay(program, seg, _InertObserver(), counts)
            assert generic == quick, (name, seg.index)
            assert not generic[0], (name, seg.index)


class _NullPort:
    def load(self, addr, size):
        return 0

    store = swap = bulk_copy = load


# -- segmentation: sparse cuts vs a dense walk --------------------------------
#
# ``SegmentBuilder.split`` visits only record-bearing instructions and
# computes the interrupt and timeout cuts between them arithmetically.
# The reference below walks every committed instruction and applies the
# counter's rules (Sec. IV-F) one instruction at a time.


def dense_split(builder, columns, forced_boundaries=None):
    """Segment ``columns`` instruction by instruction (the reference)."""
    records_at = {r.trace_index: r for r in records_from_columns(columns)}
    forced = forced_boundaries or set()
    line = builder.line_bytes
    n = len(columns)
    segments = []
    state = {"records": [], "start": 0, "lines": 0, "buf": 0}

    def cut(end, reason):
        lines = state["lines"] + (1 if state["buf"] else 0)
        segments.append(Segment(
            index=len(segments), start=state["start"], end=end,
            records=state["records"], lsl_bytes=lines * line, lines=lines,
            reason=reason))
        state.update(records=[], start=end, lines=0, buf=0)

    def pack(lines, buf, entry):
        # An entry that does not fit the current line starts a new one.
        if buf + entry > line:
            if buf:
                lines += 1
            lines += entry // line
            buf = entry % line
        else:
            buf += entry
        if buf == line:
            lines += 1
            buf = 0
        return lines, buf

    for i in range(n):
        record = records_at.get(i)
        entry = record.entry_bytes(builder.hash_mode) if record else 0
        if entry:
            lines, buf = pack(state["lines"], state["buf"], entry)
            if (lines * line + buf > builder.capacity
                    and (state["records"] or state["buf"])):
                cut(i, CutReason.LSL_FULL)
                lines, buf = pack(0, 0, entry)
            state["lines"], state["buf"] = lines, buf
        if record is not None:
            state["records"].append(record)
        if i + 1 in forced and i + 1 < n:
            cut(i + 1, CutReason.INTERRUPT)
        elif i + 1 - state["start"] >= builder.timeout:
            cut(i + 1, CutReason.TIMEOUT)
    if state["start"] < n:
        cut(n, CutReason.PROGRAM_END)
    return segments


def assert_same_cuts(sparse, dense):
    assert len(sparse) == len(dense)
    for a, b in zip(sparse, dense):
        assert (a.index, a.start, a.end, a.reason, a.lsl_bytes, a.lines) \
            == (b.index, b.start, b.end, b.reason, b.lsl_bytes, b.lines)
        assert a.records == b.records


@functools.lru_cache(maxsize=None)
def _main_columns(profile):
    program = build_program(get_profile(profile), seed=SEED)
    return FunctionalCore(program, DirectMemoryPort(
        Memory(program.memory_image))).run(3_000).columns


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("x264", "mcf", "lbm")),
       st.integers(min_value=128, max_value=65_536),
       st.integers(min_value=1, max_value=1200),
       st.sets(st.integers(min_value=0, max_value=3_100), max_size=12),
       st.sets(st.integers(min_value=1, max_value=8), max_size=4),
       st.booleans())
def test_sparse_split_equals_dense_walk(profile, capacity, timeout, forced,
                                       multiples, hash_mode):
    columns = _main_columns(profile)
    # Interrupts on timeout multiples land where a timeout cut is due
    # (while no LSL-full cut has shifted the segments): the interrupt
    # must win the tie.
    forced |= {m * timeout for m in multiples}
    builder = SegmentBuilder(capacity, timeout, hash_mode=hash_mode)
    assert_same_cuts(builder.split(columns, forced),
                     dense_split(builder, columns, forced))
