"""Hardware fault models (section VII-B).

The paper injects hard errors per the standard model of Li et al. [53]:
a single bit stuck at 0 or 1 on the *output of one functional unit*
(integer ALU or FPU), or on a load/store address in the LSQ.  Because
instructions round-robin over multiple unit instances, a fault in one
unit only corrupts the subset of operations that unit executes — the
model preserves that.

Transient (soft) faults flip one bit on one specific dynamic use, then
disappear — the full-coverage mode must catch these too.

Floating-point values are corrupted in their IEEE-754 bit pattern, which
naturally reproduces the Meta anecdote of an FPU returning wrong values
only for particular inputs.

Every model declares its *activation sites*:
``activation_sites(fu_counts)`` is the set of ``(fu, unit)`` keys,
among those the checker's round robin over ``fu_counts`` produces, that
its ``apply`` reacts to (it returns every other value untouched,
without changing state).  A register fault has no FU sites;
``strikes(index)`` names the one segment whose end snapshot it
corrupts.  Campaign replay (:mod:`repro.faults.campaign`) uses the
sites to skip segments the fault cannot change; a surface without
``activation_sites`` replays every segment.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass, replace

from repro.isa.instructions import FUKind
from repro.isa.registers import RegisterCheckpoint

_MASK64 = (1 << 64) - 1


def float_to_bits(value: float) -> int:
    if value != value:  # NaN: canonicalise so corruption is deterministic
        return 0x7FF8000000000000
    if value == math.inf:
        return 0x7FF0000000000000
    if value == -math.inf:
        return 0xFFF0000000000000
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & _MASK64))[0]


def _apply_stuck(bits: int, bit: int, stuck_at: int) -> int:
    if stuck_at:
        return bits | (1 << bit)
    return bits & ~(1 << bit)


@dataclass(frozen=True)
class StuckAtFault:
    """A permanent single-bit stuck-at fault in one functional unit.

    Implements the :class:`~repro.cpu.functional.FaultSurface` protocol.
    """

    fu: FUKind
    unit: int
    bit: int
    stuck_at: int  # 0 or 1
    addresses_only: bool = False  # LSQ address-path fault

    def apply(self, fu: FUKind, unit: int, value: int | float,
              is_address: bool = False) -> int | float:
        if fu is not self.fu or unit != self.unit:
            return value
        if self.addresses_only and not is_address:
            return value
        if isinstance(value, float):
            return bits_to_float(
                _apply_stuck(float_to_bits(value), self.bit, self.stuck_at))
        return _apply_stuck(value, self.bit, self.stuck_at) & _MASK64

    def describe(self) -> str:
        where = f"{self.fu.value}[{self.unit}]"
        if self.addresses_only:
            where += " (LSQ address path)"
        return f"stuck-at-{self.stuck_at} bit {self.bit} on {where}"

    def activation_sites(self, fu_counts) -> frozenset:
        del fu_counts
        return frozenset({(self.fu, self.unit)})

    def fresh(self) -> "StuckAtFault":
        """A stuck-at fault is stateless; reuse the same instance."""
        return self


@dataclass
class TransientFault:
    """A single-event upset: flips one bit on the Nth use of a unit.

    With ``addresses_only`` set (a LOAD/STORE unit), the use counter
    only advances on LSQ address computations, modelling a particle
    strike on the address path rather than on result data.
    """

    fu: FUKind
    unit: int
    bit: int
    strike_at_use: int
    addresses_only: bool = False
    _uses: int = 0
    fired: bool = False

    def apply(self, fu: FUKind, unit: int, value: int | float,
              is_address: bool = False) -> int | float:
        if fu is not self.fu or unit != self.unit or self.fired:
            return value
        if self.addresses_only and not is_address:
            return value
        self._uses += 1
        if self._uses < self.strike_at_use:
            return value
        self.fired = True
        if isinstance(value, float):
            return bits_to_float(float_to_bits(value) ^ (1 << self.bit))
        return (int(value) ^ (1 << self.bit)) & _MASK64

    def describe(self) -> str:
        where = f"{self.fu.value}[{self.unit}]"
        if self.addresses_only:
            where += " (LSQ address path)"
        return (f"transient bit-{self.bit} flip on {where} "
                f"at use {self.strike_at_use}")

    def activation_sites(self, fu_counts) -> frozenset:
        del fu_counts
        if self.fired:
            return frozenset()
        return frozenset({(self.fu, self.unit)})

    def fresh(self) -> "TransientFault":
        """A copy with the use counter and fired flag reset."""
        return replace(self, _uses=0, fired=False)


@dataclass
class RegisterFault:
    """A transient flip in the checker's end-of-segment register file.

    Strikes the architectural register state exactly once, on one
    segment's end snapshot — the point the RCU compares against the main
    core's checkpoint (section IV-D).  It implements the
    :class:`~repro.cpu.functional.FaultSurface` protocol as a no-op on
    FU outputs and additionally exposes :meth:`corrupt_checkpoint`,
    which :class:`~repro.core.checker.CheckerCore` applies to the
    replayed end checkpoint before the RCU comparison.
    """

    is_fp: bool
    reg: int
    bit: int
    strike_segment: int
    fired: bool = False

    def apply(self, fu: FUKind, unit: int, value: int | float,
              is_address: bool = False) -> int | float:
        del fu, unit, is_address
        return value

    def activation_sites(self, fu_counts) -> frozenset:
        del fu_counts
        return frozenset()

    def strikes(self, segment_index: int) -> bool:
        """Whether :meth:`corrupt_checkpoint` changes this segment's end."""
        return not self.fired and segment_index == self.strike_segment

    def corrupt_checkpoint(
            self, checkpoint: RegisterCheckpoint,
            segment_index: int) -> RegisterCheckpoint:
        """Flip the targeted bit if this is the strike segment."""
        if self.fired or segment_index != self.strike_segment:
            return checkpoint
        self.fired = True
        if self.is_fp:
            fps = list(checkpoint.fps)
            fps[self.reg] = bits_to_float(
                float_to_bits(fps[self.reg]) ^ (1 << self.bit))
            return replace(checkpoint, fps=tuple(fps))
        ints = list(checkpoint.ints)
        ints[self.reg] = (ints[self.reg] ^ (1 << self.bit)) & _MASK64
        return replace(checkpoint, ints=tuple(ints))

    def describe(self) -> str:
        bank = "f" if self.is_fp else "x"
        return (f"transient bit-{self.bit} flip in {bank}{self.reg} at "
                f"end of segment {self.strike_segment}")

    def fresh(self) -> "RegisterFault":
        """A copy with the fired flag reset."""
        return replace(self, fired=False)


@dataclass
class DefectFault:
    """A persistent per-FU-class defect signature (ITHICA-style SDC).

    Manufacturing defects do not behave like uniformly random bit flips:
    a marginal circuit corrupts only the results whose operand/result
    bit patterns exercise the weak path, and it does so *persistently*
    (arXiv:2605.15638).  This model corrupts every value produced by a
    functional-unit *class* (all round-robin instances — the defect is
    in the shared cell library, not one unit) whose bit pattern matches
    ``value & trigger_mask == trigger_value``, by XORing ``corruption``
    into it.

    ``latch_after`` models wear-in: the weak path must be exercised that
    many times before the defect starts corrupting.  The match counter is
    *persistent state* and must never leak between replay passes —
    :meth:`fresh` returns a pristine copy (``tests/test_faults_scenarios``
    covers the protocol).
    """

    fus: tuple[FUKind, ...]
    trigger_mask: int
    trigger_value: int  # pre-masked: trigger_value & trigger_mask
    corruption: int     # XOR pattern applied once latched
    latch_after: int = 1
    addresses_only: bool = False
    matches: int = 0    # persistent activation state

    def apply(self, fu: FUKind, unit: int, value: int | float,
              is_address: bool = False) -> int | float:
        del unit  # the defect is in the FU class, every instance has it
        if fu not in self.fus:
            return value
        if self.addresses_only and not is_address:
            return value
        is_float = isinstance(value, float)
        bits = float_to_bits(value) if is_float else int(value) & _MASK64
        if (bits & self.trigger_mask) != self.trigger_value:
            return value
        self.matches += 1
        if self.matches < self.latch_after:
            return value
        corrupted = (bits ^ self.corruption) & _MASK64
        return bits_to_float(corrupted) if is_float else corrupted

    def describe(self) -> str:
        where = "/".join(fu.value for fu in self.fus)
        if self.addresses_only:
            where += " (LSQ address path)"
        return (f"defect on {where}: pattern &0x{self.trigger_mask:x}=="
                f"0x{self.trigger_value:x} xor 0x{self.corruption:x} "
                f"after {self.latch_after} matches")

    def activation_sites(self, fu_counts) -> frozenset:
        return frozenset((fu, unit) for fu in self.fus
                         for unit in range(max(1, fu_counts.get(fu, 1))))

    def fresh(self) -> "DefectFault":
        """A copy with the persistent match counter reset."""
        return replace(self, matches=0)


#: Units the paper injects into: ALU/FPU outputs and LSQ addresses.
INJECTABLE_UNITS = (
    FUKind.INT_ALU, FUKind.INT_MUL, FUKind.INT_DIV,
    FUKind.FP, FUKind.FP_DIV,
    FUKind.LOAD, FUKind.STORE,
)


def random_stuck_at(rng: random.Random,
                    fu_counts: dict[FUKind, int]) -> StuckAtFault:
    """Draw a random stuck-at fault per the paper's injection model."""
    fu = rng.choice(INJECTABLE_UNITS)
    units = fu_counts.get(fu, 1)
    addresses_only = fu in (FUKind.LOAD, FUKind.STORE)
    # Address bit flips above bit ~40 would always escape the program's
    # address space; real LSQs are also narrower than 64 bits.
    max_bit = 39 if addresses_only else 63
    return StuckAtFault(
        fu=fu,
        unit=rng.randrange(units),
        bit=rng.randrange(max_bit + 1),
        stuck_at=rng.randrange(2),
        addresses_only=addresses_only,
    )


#: Maximum dynamic use index a transient LSQ strike is drawn from; far
#: enough into a segment to exercise warm state, small enough that most
#: strikes land inside typical REPRO_TIMEOUT-sized segments.
TRANSIENT_MAX_STRIKE_USE = 512


def random_transient_lsq(rng: random.Random,
                         fu_counts: dict[FUKind, int]) -> TransientFault:
    """Draw a transient single-bit flip on an LSQ address computation."""
    fu = rng.choice((FUKind.LOAD, FUKind.STORE))
    units = fu_counts.get(fu, 1)
    return TransientFault(
        fu=fu,
        unit=rng.randrange(units),
        bit=rng.randrange(40),  # same address-width bound as stuck-at
        strike_at_use=rng.randrange(1, TRANSIENT_MAX_STRIKE_USE + 1),
        addresses_only=True,
    )


def random_register_fault(rng: random.Random,
                          segments: int) -> RegisterFault:
    """Draw a transient flip in one end-of-segment register snapshot."""
    is_fp = rng.randrange(2) == 1
    # x0 is hard-wired to zero on the real datapath, so integer strikes
    # target x1..x31; the FP bank has no zero register.
    reg = rng.randrange(32) if is_fp else rng.randrange(1, 32)
    return RegisterFault(
        is_fp=is_fp,
        reg=reg,
        bit=rng.randrange(64),
        strike_segment=rng.randrange(max(segments, 1)),
    )


#: Functional-unit classes a defect signature can live in; LSQ-class
#: defects corrupt address computations only (like LSQ stuck-ats).
DEFECT_FU_CLASSES = (
    (FUKind.INT_ALU, FUKind.INT_MUL, FUKind.INT_DIV),
    (FUKind.FP, FUKind.FP_DIV),
    (FUKind.LOAD, FUKind.STORE),
)


def random_defect_fault(rng: random.Random,
                        fu_counts: dict[FUKind, int]) -> DefectFault:
    """Draw a random persistent defect signature (ITHICA SDC model)."""
    del fu_counts  # defects hit every instance of the class
    fus = DEFECT_FU_CLASSES[rng.randrange(len(DEFECT_FU_CLASSES))]
    addresses_only = FUKind.LOAD in fus
    # Trigger on 1-3 low bits so real workload values exercise the weak
    # path; wider masks would make most defects architecturally masked.
    pattern_bits = 12 if addresses_only else 16
    width = rng.randrange(1, 4)
    mask_bits = rng.sample(range(pattern_bits), width)
    trigger_mask = 0
    for bit in mask_bits:
        trigger_mask |= 1 << bit
    trigger_value = rng.getrandbits(64) & trigger_mask
    max_bit = 39 if addresses_only else 63
    return DefectFault(
        fus=fus,
        trigger_mask=trigger_mask,
        trigger_value=trigger_value,
        corruption=1 << rng.randrange(max_bit + 1),
        latch_after=rng.randrange(1, 4),
        addresses_only=addresses_only,
    )


#: Fault-site kinds the campaign engine can mix per trial.
FAULT_STUCK_AT = "stuck_at"
FAULT_TRANSIENT_LSQ = "transient_lsq"
FAULT_TRANSIENT_REG = "transient_reg"
FAULT_DEFECT = "defect"
FAULT_KINDS = (FAULT_STUCK_AT, FAULT_TRANSIENT_LSQ, FAULT_TRANSIENT_REG)
#: Every kind the engine understands; ``FAULT_KINDS`` stays the default
#: campaign mix (defects opt in via ``--fault-kinds`` or the ithica-sdc
#: scenario) so existing campaign baselines are untouched.
ALL_FAULT_KINDS = FAULT_KINDS + (FAULT_DEFECT,)


def derive_trial_seed(seed: int, trial: int, site: str = "fault") -> int:
    """A stable 64-bit RNG seed for one campaign trial.

    Derived by hashing ``(seed, trial, site)`` so every trial owns an
    independent stream: results do not depend on trial execution order,
    worker count, or which process draws the fault — unlike a shared
    sequential ``random.Random`` stream.  ``sha256`` keeps the mapping
    identical across processes and Python versions (no ``PYTHONHASHSEED``
    sensitivity).
    """
    blob = f"{seed}:{trial}:{site}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def fault_for_trial(seed: int, trial: int, fu_counts: dict[FUKind, int],
                    kinds: tuple[str, ...] = (FAULT_STUCK_AT,),
                    segments: int = 1):
    """Deterministically draw trial ``trial``'s fault.

    Returns ``(kind, fault)``.  The fault-site kind and every site
    parameter come from a per-trial derived RNG, so the draw is a pure
    function of ``(seed, trial, kinds, fu_counts, segments)``.
    """
    for kind in kinds:
        if kind not in ALL_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; known: {ALL_FAULT_KINDS}")
    rng = random.Random(derive_trial_seed(seed, trial))
    kind = kinds[rng.randrange(len(kinds))]
    if kind == FAULT_TRANSIENT_LSQ:
        return kind, random_transient_lsq(rng, fu_counts)
    if kind == FAULT_TRANSIENT_REG:
        return kind, random_register_fault(rng, segments)
    if kind == FAULT_DEFECT:
        return kind, random_defect_fault(rng, fu_counts)
    return kind, random_stuck_at(rng, fu_counts)
