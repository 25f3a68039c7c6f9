"""Tests for the hardware fault models."""

import math
import random

from hypothesis import given, strategies as st

import pytest

from repro.faults.models import (
    FAULT_KINDS,
    FAULT_STUCK_AT,
    FAULT_TRANSIENT_LSQ,
    FAULT_TRANSIENT_REG,
    INJECTABLE_UNITS,
    TRANSIENT_MAX_STRIKE_USE,
    RegisterFault,
    StuckAtFault,
    TransientFault,
    bits_to_float,
    derive_trial_seed,
    fault_for_trial,
    float_to_bits,
    random_register_fault,
    random_stuck_at,
    random_transient_lsq,
)
from repro.isa.instructions import FUKind
from repro.isa.registers import RegisterCheckpoint


class TestFloatBits:
    def test_roundtrip(self):
        for value in (0.0, 1.0, -2.5, 1e300, 5e-324):
            assert bits_to_float(float_to_bits(value)) == value

    def test_infinities(self):
        assert bits_to_float(float_to_bits(math.inf)) == math.inf
        assert bits_to_float(float_to_bits(-math.inf)) == -math.inf

    def test_nan_canonicalised(self):
        assert float_to_bits(math.nan) == 0x7FF8000000000000

    @given(st.floats(allow_nan=False))
    def test_roundtrip_property(self, value):
        assert bits_to_float(float_to_bits(value)) == value


class TestStuckAt:
    def test_sticks_bit_to_one(self):
        fault = StuckAtFault(FUKind.INT_ALU, 0, bit=3, stuck_at=1)
        assert fault.apply(FUKind.INT_ALU, 0, 0) == 8
        assert fault.apply(FUKind.INT_ALU, 0, 8) == 8

    def test_sticks_bit_to_zero(self):
        fault = StuckAtFault(FUKind.INT_ALU, 0, bit=3, stuck_at=0)
        assert fault.apply(FUKind.INT_ALU, 0, 0xF) == 0x7
        assert fault.apply(FUKind.INT_ALU, 0, 0x7) == 0x7

    def test_only_hits_matching_unit(self):
        fault = StuckAtFault(FUKind.INT_ALU, unit=1, bit=0, stuck_at=1)
        assert fault.apply(FUKind.INT_ALU, 0, 0) == 0  # other instance
        assert fault.apply(FUKind.INT_ALU, 1, 0) == 1

    def test_only_hits_matching_kind(self):
        fault = StuckAtFault(FUKind.FP, 0, bit=0, stuck_at=1)
        assert fault.apply(FUKind.INT_ALU, 0, 0) == 0

    def test_float_corruption_is_bitwise(self):
        # Sticking the MSB of the mantissa changes the value subtly — the
        # Meta FPU anecdote in miniature.
        fault = StuckAtFault(FUKind.FP, 0, bit=51, stuck_at=1)
        corrupted = fault.apply(FUKind.FP, 0, 1.0)
        assert corrupted != 1.0
        assert corrupted == 1.5

    def test_addresses_only_spares_data(self):
        fault = StuckAtFault(FUKind.LOAD, 0, bit=2, stuck_at=1,
                             addresses_only=True)
        assert fault.apply(FUKind.LOAD, 0, 0, is_address=False) == 0
        assert fault.apply(FUKind.LOAD, 0, 0, is_address=True) == 4

    def test_describe_mentions_location(self):
        fault = StuckAtFault(FUKind.FP_DIV, 1, bit=7, stuck_at=0)
        text = fault.describe()
        assert "fp_div[1]" in text and "bit 7" in text

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=1))
    def test_idempotent_property(self, value, bit, stuck):
        fault = StuckAtFault(FUKind.INT_ALU, 0, bit=bit, stuck_at=stuck)
        once = fault.apply(FUKind.INT_ALU, 0, value)
        twice = fault.apply(FUKind.INT_ALU, 0, once)
        assert once == twice
        assert (once >> bit) & 1 == stuck


class TestTransient:
    def test_fires_exactly_once(self):
        fault = TransientFault(FUKind.INT_ALU, 0, bit=0, strike_at_use=3)
        values = [fault.apply(FUKind.INT_ALU, 0, 0) for _ in range(6)]
        assert values == [0, 0, 1, 0, 0, 0]
        assert fault.fired

    def test_other_units_do_not_advance_the_counter(self):
        fault = TransientFault(FUKind.INT_ALU, 0, bit=0, strike_at_use=2)
        fault.apply(FUKind.FP, 0, 0)
        fault.apply(FUKind.INT_ALU, 1, 0)
        assert fault.apply(FUKind.INT_ALU, 0, 0) == 0  # first real use
        assert fault.apply(FUKind.INT_ALU, 0, 0) == 1  # strikes

    def test_flips_float_bit(self):
        fault = TransientFault(FUKind.FP, 0, bit=51, strike_at_use=1)
        assert fault.apply(FUKind.FP, 0, 1.0) == 1.5

    def test_describe(self):
        fault = TransientFault(FUKind.FP, 0, bit=5, strike_at_use=9)
        assert "use 9" in fault.describe()


def _checkpoint() -> RegisterCheckpoint:
    return RegisterCheckpoint(
        ints=tuple(range(32)),
        fps=tuple(float(i) for i in range(32)),
        pc=0x40,
    )


class TestRegisterFault:
    def test_flips_int_register_on_strike_segment(self):
        fault = RegisterFault(is_fp=False, reg=5, bit=3, strike_segment=2)
        checkpoint = _checkpoint()
        assert fault.corrupt_checkpoint(checkpoint, 1) is checkpoint
        struck = fault.corrupt_checkpoint(checkpoint, 2)
        assert struck.ints[5] == 5 ^ 8
        assert struck.ints[:5] == checkpoint.ints[:5]
        assert struck.fps == checkpoint.fps
        assert struck.pc == checkpoint.pc

    def test_flips_fp_register_bitwise(self):
        fault = RegisterFault(is_fp=True, reg=1, bit=51, strike_segment=0)
        struck = fault.corrupt_checkpoint(_checkpoint(), 0)
        assert struck.fps[1] == 1.5  # mantissa MSB of 1.0
        assert struck.ints == _checkpoint().ints

    def test_strikes_exactly_once(self):
        fault = RegisterFault(is_fp=False, reg=1, bit=0, strike_segment=0)
        checkpoint = _checkpoint()
        first = fault.corrupt_checkpoint(checkpoint, 0)
        assert first != checkpoint and fault.fired
        assert fault.corrupt_checkpoint(checkpoint, 0) is checkpoint

    def test_fresh_resets_fired(self):
        fault = RegisterFault(is_fp=False, reg=1, bit=0, strike_segment=0,
                              fired=True)
        assert fault.corrupt_checkpoint(_checkpoint(), 0) is not None
        renewed = fault.fresh()
        assert not renewed.fired
        assert renewed.corrupt_checkpoint(_checkpoint(), 0) != _checkpoint()

    def test_fu_surface_is_a_no_op(self):
        fault = RegisterFault(is_fp=False, reg=1, bit=0, strike_segment=0)
        assert fault.apply(FUKind.INT_ALU, 0, 42) == 42

    def test_describe_names_bank_and_segment(self):
        assert "x7" in RegisterFault(False, 7, 1, 4).describe()
        text = RegisterFault(True, 3, 1, 4).describe()
        assert "f3" in text and "segment 4" in text


class TestRandomDraws:
    def test_transient_lsq_bounds(self):
        rng = random.Random(3)
        for _ in range(200):
            fault = random_transient_lsq(rng, {FUKind.LOAD: 2})
            assert fault.fu in (FUKind.LOAD, FUKind.STORE)
            assert fault.addresses_only
            assert fault.bit < 40
            assert 1 <= fault.strike_at_use <= TRANSIENT_MAX_STRIKE_USE

    def test_register_fault_bounds(self):
        rng = random.Random(4)
        for _ in range(200):
            fault = random_register_fault(rng, segments=5)
            if fault.is_fp:
                assert 0 <= fault.reg < 32
            else:
                assert 1 <= fault.reg < 32  # x0 is hard-wired
            assert 0 <= fault.bit < 64
            assert 0 <= fault.strike_segment < 5

    def test_register_fault_tolerates_zero_segments(self):
        rng = random.Random(5)
        assert random_register_fault(rng, segments=0).strike_segment == 0


class TestTrialSeeding:
    def test_seed_is_stable_across_calls(self):
        assert derive_trial_seed(7, 3) == derive_trial_seed(7, 3)

    def test_seed_varies_with_every_input(self):
        base = derive_trial_seed(7, 3)
        assert derive_trial_seed(8, 3) != base
        assert derive_trial_seed(7, 4) != base
        assert derive_trial_seed(7, 3, site="other") != base

    @given(st.integers(min_value=0, max_value=1 << 32),
           st.integers(min_value=0, max_value=100_000))
    def test_seed_fits_64_bits(self, seed, trial):
        assert 0 <= derive_trial_seed(seed, trial) < 1 << 64

    def test_fault_for_trial_is_pure(self):
        counts = {kind: 2 for kind in INJECTABLE_UNITS}
        a = fault_for_trial(7, 5, counts, kinds=FAULT_KINDS, segments=4)
        b = fault_for_trial(7, 5, counts, kinds=FAULT_KINDS, segments=4)
        assert a == b

    def test_fault_for_trial_matches_kind(self):
        counts = {kind: 1 for kind in INJECTABLE_UNITS}
        seen = set()
        for trial in range(30):
            kind, fault = fault_for_trial(
                7, trial, counts, kinds=FAULT_KINDS, segments=4)
            seen.add(kind)
            expected = {
                FAULT_STUCK_AT: StuckAtFault,
                FAULT_TRANSIENT_LSQ: TransientFault,
                FAULT_TRANSIENT_REG: RegisterFault,
            }[kind]
            assert isinstance(fault, expected)
        assert seen == set(FAULT_KINDS)

    def test_fault_for_trial_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            fault_for_trial(7, 0, {}, kinds=("cosmic_ray",))


class TestRandomStuckAt:
    def test_respects_unit_counts(self):
        rng = random.Random(0)
        counts = {kind: 2 for kind in INJECTABLE_UNITS}
        for _ in range(100):
            fault = random_stuck_at(rng, counts)
            assert fault.fu in INJECTABLE_UNITS
            assert 0 <= fault.unit < 2
            assert fault.stuck_at in (0, 1)

    def test_address_faults_use_low_bits(self):
        rng = random.Random(1)
        for _ in range(200):
            fault = random_stuck_at(rng, {})
            if fault.addresses_only:
                assert fault.bit <= 39
            else:
                assert fault.bit <= 63

    def test_lsq_faults_marked_addresses_only(self):
        rng = random.Random(2)
        seen = set()
        for _ in range(300):
            fault = random_stuck_at(rng, {})
            seen.add((fault.fu, fault.addresses_only))
        assert (FUKind.LOAD, True) in seen
        assert (FUKind.STORE, True) in seen
        assert (FUKind.INT_ALU, False) in seen


class TestActivationSites:
    COUNTS = {FUKind.INT_ALU: 3, FUKind.INT_MUL: 1, FUKind.LOAD: 2}

    def test_stuck_at_has_its_one_site(self):
        fault = StuckAtFault(FUKind.LOAD, 1, bit=4, stuck_at=1,
                             addresses_only=True)
        assert fault.activation_sites(self.COUNTS) == {(FUKind.LOAD, 1)}

    def test_transient_site_goes_away_once_fired(self):
        fault = TransientFault(FUKind.INT_ALU, 2, bit=0, strike_at_use=2)
        assert fault.activation_sites(self.COUNTS) == {(FUKind.INT_ALU, 2)}
        fault.apply(FUKind.INT_ALU, 2, 8)
        assert fault.activation_sites(self.COUNTS)
        assert fault.apply(FUKind.INT_ALU, 2, 8) == 9
        assert fault.activation_sites(self.COUNTS) == frozenset()

    def test_register_fault_strikes_one_segment_once(self):
        fault = RegisterFault(is_fp=False, reg=3, bit=1, strike_segment=4)
        assert fault.activation_sites(self.COUNTS) == frozenset()
        assert fault.strikes(4) and not fault.strikes(3)
        cp = RegisterCheckpoint(tuple(range(32)), (0.0,) * 32, 0)
        fault.corrupt_checkpoint(cp, 4)
        assert not fault.strikes(4)

    def test_defect_covers_every_unit_of_its_classes(self):
        from repro.faults.models import DefectFault

        fault = DefectFault(fus=(FUKind.INT_ALU, FUKind.INT_MUL,
                                 FUKind.INT_DIV),
                            trigger_mask=1, trigger_value=1, corruption=2)
        assert fault.activation_sites(self.COUNTS) == {
            (FUKind.INT_ALU, 0), (FUKind.INT_ALU, 1), (FUKind.INT_ALU, 2),
            (FUKind.INT_MUL, 0), (FUKind.INT_DIV, 0)}

    def test_apply_ignores_everything_off_its_sites(self):
        from repro.faults.models import DefectFault

        faults = [StuckAtFault(FUKind.INT_ALU, 1, bit=0, stuck_at=1),
                  TransientFault(FUKind.LOAD, 0, bit=0, strike_at_use=1,
                                 addresses_only=True),
                  DefectFault(fus=(FUKind.FP,), trigger_mask=0,
                              trigger_value=0, corruption=1)]
        for fault in faults:
            sites = fault.activation_sites(self.COUNTS)
            for fu in FUKind:
                # Every unit the round robin can select.
                for unit in range(max(1, self.COUNTS.get(fu, 1))):
                    if (fu, unit) in sites:
                        continue
                    before = repr(fault)
                    assert fault.apply(fu, unit, 6) == 6
                    assert fault.apply(fu, unit, 6, is_address=True) == 6
                    assert repr(fault) == before
