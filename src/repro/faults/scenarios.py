"""Detection scenarios from related work (DME, ITHICA, MEEK).

The campaign engine runs one *scheme* per spec.  A scheme decides how a
trial's fault is exposed to replay and what "detected" means:

* ``paraverser`` — the paper's checker replay
  (:class:`~repro.faults.campaign.FaultCampaign`): full per-access
  LSL/LSC compare plus an end-of-segment register compare.
* ``dme`` — divergent multi-version replay (arXiv:2605.12576).  The
  trace is replayed under ``versions`` deterministic address-space
  decorrelation transforms (a sha256-keyed XOR remap per version,
  version 0 being the canonical identity).  A fault whose effect is
  architecturally masked in the canonical address space cannot mask
  identically in a decorrelated one — data-dependent faults (stuck-ats,
  defect signatures) diverge in at least one version, and detection is
  trace/LSL mismatch in *any* replica.  Pure XOR transients commute
  with the remap, so they behave exactly as in the canonical version —
  decorrelation buys coverage only against correlated faults, which is
  the point of the scheme.
* ``ithica-sdc`` — the SDC screen (arXiv:2605.15638): the standard
  checker replay driven by persistent per-FU-class
  :class:`~repro.faults.models.DefectFault` signatures instead of
  uniform flips; the campaign's ``sdc_escape_rate`` measures the silent
  corruptions that slip through.
* ``meek-ro`` — a reduced-observability checker (arXiv:2504.01347):
  only *retired architectural state* is checked, and only at coarsened
  checkpoint intervals (every ``checkpoint_interval`` segments).  No
  per-access LSL compare runs, so checker compare bandwidth shrinks —
  the trade is coarser detection latency (always reported at the window
  end) and escapes for corruptions invisible in the window-final
  register file.

Every scheme's trial runner is a pure function of ``(spec, trial)``:
faults come from :func:`~repro.faults.models.derive_trial_seed` streams
and the decorrelation masks are sha256-derived from the campaign seed,
so any worker count or trial order is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.checker import LogReplayInterface, ReplayDetection
from repro.core.counter import Segment
from repro.core.lsc import LoadStoreComparator
from repro.core.rcu import RegisterCheckpointUnit
from repro.cpu.config import CoreConfig
from repro.cpu.functional import ControlFlowEscape, FunctionalCore
from repro.faults.campaign import (
    FaultCampaign,
    GoldenStream,
    InjectionResult,
    ReplayCampaign,
    replay_pass,
    same_checkpoint,
)
from repro.faults.models import (
    FAULT_DEFECT,
    FAULT_KINDS,
    FAULT_STUCK_AT,
    derive_trial_seed,
)
from repro.isa.instructions import FUKind
from repro.isa.program import Program
from repro.isa.registers import RegisterFile

SCHEME_PARAVERSER = "paraverser"
SCHEME_DME = "dme"
SCHEME_ITHICA = "ithica-sdc"
SCHEME_MEEK = "meek-ro"

#: Every campaign scheme the engine can run, in presentation order.
CAMPAIGN_SCHEMES = (SCHEME_PARAVERSER, SCHEME_DME, SCHEME_ITHICA,
                    SCHEME_MEEK)

#: Decorrelated replicas per DME trial (version 0 is the canonical one).
DME_VERSIONS = 2

#: Segments per MEEK architectural checkpoint window.
MEEK_CHECKPOINT_INTERVAL = 4

#: Address bits a decorrelation mask may permute — matches the
#: injectable LSQ address width in :mod:`repro.faults.models`.
_ADDRESS_MASK_BITS = 40
_MASK64 = (1 << 64) - 1


def decorrelation_mask(seed: int, version: int) -> int:
    """The sha256-keyed address remap for one DME version.

    Version 0 is the identity (the canonical replica), so a DME trial's
    detections are always a superset of the plain checker's for the
    same fault and coverage.
    """
    if version == 0:
        return 0
    raw = derive_trial_seed(seed, version, site="dme-mask")
    mask = raw & ((1 << _ADDRESS_MASK_BITS) - 1)
    # A zero mask would silently alias the canonical version; pin one
    # bit so every non-zero version is genuinely decorrelated.
    return mask or 1


@dataclass
class DecorrelatedSurface:
    """Wraps a fault surface in an address-space decorrelation remap.

    Address values are XOR-remapped before the fault sees them and
    un-remapped after, so the *same physical fault* acts on a different
    address-bit pattern in every version: a stuck-at that happens to
    agree with the canonical address stream (masked) disagrees with a
    remapped one.  Non-address values pass through untouched, and with
    no fault installed the remap composes to the identity — healthy
    decorrelated replay is bit-identical to canonical replay.
    """

    fault: object
    mask: int

    def apply(self, fu: FUKind, unit: int, value: int | float,
              is_address: bool = False) -> int | float:
        if not is_address:
            return self.fault.apply(fu, unit, value, is_address)
        remapped = (int(value) ^ self.mask) & _MASK64
        out = self.fault.apply(fu, unit, remapped, is_address=True)
        return (int(out) ^ self.mask) & _MASK64

    def describe(self) -> str:
        return (f"{self.fault.describe()} under decorrelation mask "
                f"0x{self.mask:x}")

    def fresh(self) -> "DecorrelatedSurface":
        inner = getattr(self.fault, "fresh", None)
        return DecorrelatedSurface(
            inner() if inner is not None else self.fault, self.mask)

    def __getattr__(self, name: str):
        # Register-file faults expose corrupt_checkpoint; delegate any
        # protocol extensions to the wrapped fault (register state is
        # not address space, the remap does not apply).  That includes
        # activation_sites: the remap changes values, not units, and off
        # its sites the inner fault returns its input, so the remap
        # composes to the identity there.  ``fault`` itself and dunders
        # are never delegated: copy and pickle probe them on an instance
        # whose fields are not set yet.
        if name == "fault" or name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.fault, name)


class DivergentCampaign(ReplayCampaign):
    """DME-style trials: replay every version, detect on any divergence.

    Detection latency is the earliest detecting segment across versions
    (ties break toward the lower version id), so the reported latency is
    never worse than the canonical checker's.
    """

    def __init__(self, program: Program, segments: list[Segment],
                 checker_config: CoreConfig, hash_mode: bool = False,
                 seed: int = 0, versions: int = DME_VERSIONS,
                 golden: GoldenStream | None = None) -> None:
        super().__init__(program, segments, checker_config,
                         hash_mode=hash_mode, golden=golden)
        self.masks = tuple(decorrelation_mask(seed, v)
                           for v in range(versions))

    def _surface(self, fault, mask: int):
        base = fault.fresh()
        return base if mask == 0 else DecorrelatedSurface(base, mask)

    def run_trial(self, fault, covered: list[int] | None = None,
                  trial: int = -1,
                  kind: str = FAULT_STUCK_AT) -> InjectionResult:
        checked, unchecked = self.split(covered)
        best: tuple[int, int, int] | None = None  # (end, version, segment)
        for version, mask in enumerate(self.masks):
            hit = self.first_detection(self._surface(fault, mask), checked)
            if hit is not None:
                seg = hit[0]
                candidate = (seg.end, version, seg.index)
                if best is None or candidate < best:
                    best = candidate
        if best is not None:
            return InjectionResult(
                fault=fault, detected=True, masked=False,
                detection_instruction=best[0], detecting_segment=best[2],
                trial=trial, kind=kind)
        # No version diverged on covered segments.  A fault is masked
        # only if *every* version stays clean over the full trace; if
        # any uncovered segment diverges in any version, coverage (not
        # the scheme) missed an effective fault.
        if unchecked and any(
                self.first_detection(self._surface(fault, mask),
                                     unchecked) is not None
                for mask in self.masks):
            return InjectionResult(fault=fault, detected=False,
                                   masked=False, trial=trial, kind=kind)
        return InjectionResult(fault=fault, detected=False, masked=True,
                               trial=trial, kind=kind)


class ReducedObservabilityCampaign(ReplayCampaign):
    """MEEK-style trials: retired-state checks at coarse checkpoints.

    Per-access LSL compares are disabled (the checker still *consumes*
    the log to replay, so structural divergence — wrong record kind,
    log under/overflow, control-flow escape, instruction-count drift —
    is still visible), and the register-file compare runs only on the
    final segment of each ``checkpoint_interval``-segment window.
    Every detection is reported at the window end: latency is coarsened
    by construction.
    """

    def __init__(self, program: Program, segments: list[Segment],
                 checker_config: CoreConfig, hash_mode: bool = False,
                 interval: int = MEEK_CHECKPOINT_INTERVAL,
                 golden: GoldenStream | None = None) -> None:
        # Observability is fixed by the scheme itself: the classify pass
        # always runs full compares, whatever ``hash_mode`` says.
        super().__init__(program, segments, checker_config,
                         hash_mode=False, golden=golden)
        del hash_mode
        self.interval = max(1, interval)

    def _windows(self) -> list[list[Segment]]:
        return [self.segments[i:i + self.interval]
                for i in range(0, len(self.segments), self.interval)]

    def _replay_segment(self, seg: Segment, surface,
                        start) -> tuple[bool, object]:
        """Replay one segment with LSL compares off, from ``start``.

        ``start`` is the architectural state carried from the previous
        segment of the window (the golden start checkpoint only for the
        window's first segment), so corruption propagates to the
        window-end compare instead of being wiped at every segment
        boundary.  Returns ``(structurally_diverged, end_checkpoint)``.
        """
        interface = LogReplayInterface(seg, LoadStoreComparator(),
                                       hash_mode=True)
        interface.hash_stream = None  # no digest either: retired state only
        regs = RegisterFile()
        regs.restore(start)
        core = FunctionalCore(
            self.program, interface, registers=regs, nonrep=interface,
            fault_surface=surface, fu_counts=self.fu_counts,
            start_pc=start.pc)
        try:
            run = core.run(seg.instructions, record_trace=False)
        except (ReplayDetection, ControlFlowEscape):
            return True, None
        if run.instructions != seg.instructions or interface.surplus_records:
            return True, None
        return False, run.end_checkpoint

    def _check_window(self, window: list[Segment], surface):
        """Whether the coarse checker flags this window, and the surface.

        While the carried state is golden — bit-identical to the main
        core's checkpoint — segments the fault cannot touch are skipped,
        and a live one replays from its own golden start (the previous
        segment's end, by construction of the segments).  Once a replay
        ends off golden, every later segment of the window replays.
        """
        carried = None  # None: golden

        def replay(seg: Segment, live) -> bool:
            nonlocal carried
            start = seg.start_checkpoint if carried is None else carried
            diverged, state = self._replay_segment(seg, live, start)
            if diverged:
                return True
            corrupt = getattr(live, "corrupt_checkpoint", None)
            if corrupt is not None:
                state = corrupt(state, seg.index)
            carried = (None if same_checkpoint(state, seg.end_checkpoint)
                       else state)
            return False

        hit, surface = replay_pass(self.golden, surface, window, replay,
                                   lambda: carried is None)
        if hit is not None:
            return True, surface
        if carried is None:
            return False, surface
        rcu = RegisterCheckpointUnit()
        rcu.arm(window[-1].end_checkpoint, window[-1].digest)
        return rcu.compare(carried, window[-1].index) is not None, surface

    def run_trial(self, fault, covered: list[int] | None = None,
                  trial: int = -1,
                  kind: str = FAULT_STUCK_AT) -> InjectionResult:
        covered_set = set(covered) if covered is not None else None
        surface = fault.fresh()
        for window in self._windows():
            if covered_set is not None and any(
                    seg.index not in covered_set for seg in window):
                # A window can only close if every segment's log was
                # shipped; partially-covered windows go unchecked.
                continue
            flagged, surface = self._check_window(window, surface)
            if flagged:
                return InjectionResult(
                    fault=fault, detected=True, masked=False,
                    detection_instruction=window[-1].end,
                    detecting_segment=window[-1].index,
                    trial=trial, kind=kind)
        # Classify with a full-observability replay over *all* segments:
        # reduced observability can itself let an effective fault
        # escape, and those must count as missed, not masked.
        if self.first_detection(fault.fresh(), self.segments) is not None:
            return InjectionResult(fault=fault, detected=False,
                                   masked=False, trial=trial, kind=kind)
        return InjectionResult(fault=fault, detected=False, masked=True,
                               trial=trial, kind=kind)


def default_fault_kinds(scheme: str) -> tuple[str, ...]:
    """The fault-site mix a scheme's campaign defaults to."""
    if scheme == SCHEME_ITHICA:
        # The SDC screen measures defect-induced silent corruption.
        return (FAULT_DEFECT,)
    return FAULT_KINDS


def make_campaign(scheme: str, program: Program, segments: list[Segment],
                  checker_config: CoreConfig, hash_mode: bool = False,
                  seed: int = 0, golden: GoldenStream | None = None):
    """Build the trial runner for one campaign scheme.

    ``golden`` is the substrate's shared golden FU stream; without one
    the campaign records its own.
    """
    if scheme in (SCHEME_PARAVERSER, SCHEME_ITHICA):
        return FaultCampaign(program, segments, checker_config,
                             hash_mode=hash_mode, golden=golden)
    if scheme == SCHEME_DME:
        return DivergentCampaign(program, segments, checker_config,
                                 hash_mode=hash_mode, seed=seed,
                                 golden=golden)
    if scheme == SCHEME_MEEK:
        return ReducedObservabilityCampaign(program, segments,
                                            checker_config,
                                            hash_mode=hash_mode,
                                            golden=golden)
    raise ValueError(f"unknown campaign scheme {scheme!r}; "
                     f"known: {', '.join(CAMPAIGN_SCHEMES)}")
