"""Fault-injection campaigns (Fig. 8 and the section VII-B numbers).

Errors are injected on the *checker* core (detection is symmetric, and
this keeps the main core's execution pristine, exactly as the paper
does).  A trial:

1. builds a fault and a faulty :class:`~repro.core.checker.CheckerCore`;
2. replays, in order, the segments the opportunistic schedule actually
   covered with the configured checker pool;
3. records the first detection and its latency in main-core instructions;
4. if no covered segment detects, replays *all* segments to classify the
   fault as masked (it never changed execution — the paper's "correctly
   masked" 24 %) or as missed-by-coverage.

Replay is pruned, and the pruning is exact.  Every segment replays from
the main core's golden start checkpoint (the induction argument of
section III-B), so a segment in which the fault changes no FU value
replays bit-identically to the healthy run and detects nothing.  The
:class:`GoldenStream` records the healthy replay's FU values once, and
:func:`replay_pass` — the one segment loop of every scheme — runs the
live fault's own ``apply`` over a segment's events at the fault's
activation sites: if every output is bit-identical, the segment is
skipped and the fault's state advances as the replay would have
advanced it; otherwise the segment replays for real.
"""

from __future__ import annotations

import copy
import math
import struct
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Union

from repro.core.checker import CheckerCore, CheckResult
from repro.core.counter import Segment
from repro.core.errors import DetectionEvent
from repro.core.system import SystemResult
from repro.cpu.config import CoreConfig
from repro.faults.engine import CampaignTally
from repro.faults.models import (
    FAULT_STUCK_AT,
    DefectFault,
    RegisterFault,
    StuckAtFault,
    TransientFault,
    fault_for_trial,
)
from repro.isa.instructions import FUKind
from repro.isa.program import Program
from repro.isa.registers import RegisterCheckpoint

Fault = Union[StuckAtFault, TransientFault, RegisterFault, DefectFault]


@dataclass
class InjectionResult:
    """Outcome of one injected fault."""

    fault: Fault
    detected: bool
    masked: bool
    detection_instruction: int = -1  # main-core trace index at detection
    detecting_segment: int = -1
    event: DetectionEvent | None = None
    trial: int = -1  # campaign trial index (-1 for ad-hoc injections)
    kind: str = FAULT_STUCK_AT


@dataclass
class CampaignResult:
    """Aggregate of one campaign."""

    workload: str
    trials: list[InjectionResult] = field(default_factory=list)

    @property
    def tally(self) -> CampaignTally:
        return CampaignTally.of(self.trials)


def checker_fu_counts(config: CoreConfig) -> dict[FUKind, int]:
    """Functional-unit instance counts for round-robin fault exposure."""
    return {kind: fu.units for kind, fu in config.fus.items()}


_MASK64 = (1 << 64) - 1
_DOUBLE = struct.Struct("<d")
_WORD = struct.Struct("<Q")
#: Event flags in :class:`GoldenStream`.
_FLOAT = 1
_ADDRESS = 2


def same_fu_value(out, value) -> bool:
    """Whether a checker would see FU output ``out`` as ``value`` itself.

    Mirrors :class:`~repro.cpu.functional.FunctionalCore`'s FU plumbing:
    integer results are masked to 64 bits and float results pass through
    ``float()``.  Floats compare by IEEE bits, so -0.0 differs from 0.0,
    and any NaN counts as a change.
    """
    if isinstance(value, float):
        out = float(out)
        return out == value and (
            out != 0.0 or math.copysign(1.0, out) == math.copysign(1.0,
                                                                   value))
    return int(out) & _MASK64 == value


def same_checkpoint(a: RegisterCheckpoint, b: RegisterCheckpoint) -> bool:
    """Bit-exact checkpoint equality (the RCU's compare is value-level)."""
    n = len(a.fps)
    return (a.pc == b.pc and a.ints == b.ints and n == len(b.fps)
            and struct.pack(f"<{n}d", *a.fps)
            == struct.pack(f"<{n}d", *b.fps))


class _Recorder:
    """Identity fault surface that records every FU value it sees.

    It declares no activation sites, so replay takes the generic handler
    table and assigns round-robin units exactly as a faulty replay does.
    ``corrupt_checkpoint`` only observes the replayed end snapshot.
    """

    def __init__(self) -> None:
        self.events: list = []
        self.end: RegisterCheckpoint | None = None

    def apply(self, fu, unit, value, is_address=False):
        self.events.append((fu, unit, value, is_address))
        return value

    def corrupt_checkpoint(self, checkpoint, segment_index):
        del segment_index
        self.end = checkpoint
        return checkpoint


class GoldenStream:
    """The healthy checker replay's FU events, segment by segment.

    One healthy replay of every segment through
    :class:`~repro.core.checker.CheckerCore`, with a recording surface
    and the campaign's ``fu_counts``, yields the ordered
    ``(fu, unit, value, is_address)`` calls a faulty replay's surface
    would see as long as it changes nothing.  They are stored compactly
    (64-bit words, floats as IEEE bits) and indexed by ``(fu, unit)``
    site.  A segment whose healthy replay detects something, or ends
    off the golden end checkpoint bit for bit, is never skipped.  The
    recording replay runs full LSL compares, which check every access
    the Hash Mode digest covers, so a clean segment is clean in either
    mode.
    """

    def __init__(self, program: Program, segments: list[Segment],
                 fu_counts: dict[FUKind, int]) -> None:
        self.fu_counts = fu_counts
        self._position = {seg.index: pos for pos, seg in enumerate(segments)}
        #: Site id per ``(fu, unit)`` key, and the key per site id.
        self._site_ids: dict[tuple, int] = {}
        self._sites: list[tuple] = []
        #: Per event, in replay order: value word, flags, site id.
        self._words = array("Q")
        self._flags = bytearray()
        self._site_of = array("H")
        #: Per site: its event positions, and where each segment's start
        #: in them (one more entry than there are segments).
        self._positions: list[array] = []
        self._bounds: list[array] = []
        #: 1 where the segment's healthy replay is clean and bit-exact.
        self._golden = bytearray()
        for pos, seg in enumerate(segments):
            recorder = _Recorder()
            checker = CheckerCore(program, fault_surface=recorder,
                                  fu_counts=fu_counts)
            detected = checker.check_segment(seg).detected
            self._golden.append(
                not detected and recorder.end is not None
                and same_checkpoint(recorder.end, seg.end_checkpoint))
            for fu, unit, value, is_address in recorder.events:
                self._append(pos, fu, unit, value, is_address)
            for site, bounds in enumerate(self._bounds):
                bounds.append(len(self._positions[site]))

    def _append(self, pos: int, fu, unit: int, value, is_address) -> None:
        site = self._site_ids.get((fu, unit))
        if site is None:
            site = self._site_ids[(fu, unit)] = len(self._sites)
            self._sites.append((fu, unit))
            self._positions.append(array("L"))
            # No event of this site in segments 0..pos so far.
            self._bounds.append(array("L", [0] * (pos + 1)))
        if isinstance(value, float):
            word, flags = _WORD.unpack(_DOUBLE.pack(value))[0], _FLOAT
        else:
            word, flags = value, 0
        self._positions[site].append(len(self._words))
        self._words.append(word)
        self._flags.append(flags | (_ADDRESS if is_address else 0))
        self._site_of.append(site)

    def _events(self, pos: int, sites) -> list:
        """Positions of segment ``pos``'s events at ``sites``, in order."""
        runs = []
        for key in sites:
            site = self._site_ids.get(key)
            if site is not None:
                bounds = self._bounds[site]
                lo, hi = bounds[pos], bounds[pos + 1]
                if lo < hi:
                    runs.append(self._positions[site][lo:hi])
        if len(runs) == 1:
            return runs[0]
        return sorted(chain.from_iterable(runs))

    def advance(self, surface, segment: Segment):
        """``surface`` after a healthy replay of ``segment``, or None.

        None means the fault can change the segment (or its end
        snapshot), so it must replay for real from ``surface``'s current
        state.  Otherwise the result — ``surface`` itself if no event hit
        its sites, else a copy that has seen them — carries exactly the
        state a real replay would have left, and ``surface`` is untouched.
        """
        pos = self._position.get(segment.index)
        if pos is None or not self._golden[pos]:
            return None
        strikes = getattr(surface, "strikes", None)
        if strikes is not None:
            if strikes(segment.index):
                return None
        elif getattr(surface, "corrupt_checkpoint", None) is not None:
            return None
        sites = getattr(surface, "activation_sites", None)
        if sites is None:
            return None
        events = self._events(pos, sites(self.fu_counts))
        if not events:
            return surface
        probe = copy.deepcopy(surface)
        apply = probe.apply
        words, flags, site_of, keys = (self._words, self._flags,
                                       self._site_of, self._sites)
        for event in events:
            fu, unit = keys[site_of[event]]
            flag = flags[event]
            value = words[event]
            if flag & _FLOAT:
                value = _DOUBLE.unpack(_WORD.pack(value))[0]
            if not same_fu_value(apply(fu, unit, value,
                                       bool(flag & _ADDRESS)), value):
                return None
        return probe


def replay_pass(golden: GoldenStream, surface, segments: list[Segment],
                replay: Callable[[Segment, object], bool],
                carries_golden: Callable[[], bool] = lambda: True):
    """Replay ``segments`` in order under ``surface``, skipping inert ones.

    The one segment loop of every campaign scheme.  A segment
    :meth:`GoldenStream.advance` proves the fault cannot touch is
    skipped; any other runs ``replay(segment, surface)`` from the fault's
    state at the segment's start, which returns True to end the pass.
    A pass whose segments start from carried state rather than golden
    checkpoints passes ``carries_golden``: while it returns False, every
    segment replays for real.  Returns ``(segment that ended the pass or
    None, surface as left)``.
    """
    for seg in segments:
        advanced = (golden.advance(surface, seg) if carries_golden()
                    else None)
        if advanced is not None:
            surface = advanced
        elif replay(seg, surface):
            return seg, surface
    return None, surface


class ReplayCampaign:
    """What every scheme's trial runner shares: the program, its
    segments, the checker's FU counts and the golden FU stream.

    Without a ``golden`` stream (the campaign engine shares one across
    schemes) the campaign records its own on first use.
    """

    def __init__(self, program: Program, segments: list[Segment],
                 checker_config: CoreConfig, hash_mode: bool = False,
                 golden: GoldenStream | None = None) -> None:
        self.program = program
        self.segments = segments
        self.fu_counts = checker_fu_counts(checker_config)
        self.hash_mode = hash_mode
        self._golden = golden

    @property
    def golden(self) -> GoldenStream:
        if self._golden is None:
            self._golden = GoldenStream(self.program, self.segments,
                                        self.fu_counts)
        return self._golden

    def first_detection(self, surface, segments: list[Segment],
                        ) -> tuple[Segment, CheckResult] | None:
        """The first segment a full-observability replay pass detects."""
        found: list[CheckResult] = []

        def replay(seg: Segment, live) -> bool:
            result = CheckerCore(self.program, fault_surface=live,
                                 fu_counts=self.fu_counts,
                                 hash_mode=self.hash_mode).check_segment(seg)
            if result.detected:
                found.append(result)
            return result.detected

        seg, _ = replay_pass(self.golden, surface, segments, replay)
        return None if seg is None else (seg, found[0])

    def split(self, covered: list[int] | None,
              ) -> tuple[list[Segment], list[Segment]]:
        """The covered segments and the uncovered ones, in order."""
        if covered is None:
            return list(self.segments), []
        covered_set = set(covered)
        return ([seg for seg in self.segments if seg.index in covered_set],
                [seg for seg in self.segments
                 if seg.index not in covered_set])


class FaultCampaign(ReplayCampaign):
    """Runs stuck-at injection trials against checked segments."""

    def run_trial(self, fault: Fault,
                  covered: list[int] | None = None,
                  trial: int = -1,
                  kind: str = FAULT_STUCK_AT) -> InjectionResult:
        """Inject ``fault`` on the checker; replay covered segments."""
        checked, unchecked = self.split(covered)
        # Stateful faults (transients) carry use counters; start each
        # replay pass from a pristine copy so a trial's outcome never
        # depends on what ran on the fault object before it.
        hit = self.first_detection(fault.fresh(), checked)
        if hit is not None:
            seg, result = hit
            return InjectionResult(
                fault=fault, detected=True, masked=False,
                detection_instruction=seg.end,
                detecting_segment=seg.index,
                event=result.first_event,
                trial=trial, kind=kind,
            )
        # Nothing detected among covered segments: was it masked entirely?
        if unchecked and self.first_detection(fault.fresh(),
                                              unchecked) is not None:
            # Effective fault that coverage missed.
            return InjectionResult(fault=fault, detected=False,
                                   masked=False, trial=trial, kind=kind)
        return InjectionResult(fault=fault, detected=False, masked=True,
                               trial=trial, kind=kind)

    def run(self, trials: int, seed: int = 0,
            covered: list[int] | None = None,
            kinds: tuple[str, ...] = (FAULT_STUCK_AT,),
            first_trial: int = 0) -> CampaignResult:
        """Run ``trials`` random fault injections.

        Each trial's fault is drawn from its own derived seed
        (:func:`~repro.faults.models.derive_trial_seed`), so any subset
        or reordering of trials — including fan-out over worker
        processes — reproduces exactly the serial campaign.
        """
        result = CampaignResult(workload=self.program.name)
        for trial in range(first_trial, first_trial + trials):
            kind, fault = fault_for_trial(
                seed, trial, self.fu_counts, kinds=kinds,
                segments=len(self.segments))
            result.trials.append(
                self.run_trial(fault, covered, trial=trial, kind=kind))
        return result


def covered_segments(system_result: SystemResult) -> list[int]:
    """Segment indices the (opportunistic) schedule actually checked."""
    return [s.segment for s in system_result.schedule if s.covered]
