"""Tests for workload profiles and the synthetic program generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.functional import DirectMemoryPort, FunctionalCore
from repro.mem.memory import Memory
from repro.workloads.generator import (
    CHASE_BASE,
    build_parallel_programs,
    build_program,
    build_thread_program,
)
from repro.workloads.profiles import (
    ALL_PROFILES,
    GAP,
    PARSEC,
    SPEC2017,
    SPEC_MIXES,
    get_profile,
)

#: The 20 SPECspeed benchmarks the paper names.
PAPER_SPEC_NAMES = {
    "bwaves", "cactuBSSN", "lbm", "wrf", "cam4", "pop2", "imagick", "nab",
    "fotonik3d", "roms", "perlbench", "gcc", "mcf", "omnetpp", "xalancbmk",
    "x264", "deepsjeng", "leela", "exchange2", "xz",
}


class TestProfiles:
    def test_all_twenty_spec_benchmarks_present(self):
        assert set(SPEC2017) == PAPER_SPEC_NAMES

    def test_gap_has_six_kernels(self):
        assert set(GAP) == {"bfs", "sssp", "pr", "cc", "bc", "tc"}

    def test_parsec_profiles_are_two_threaded(self):
        assert len(PARSEC) >= 8
        for profile in PARSEC.values():
            assert profile.threads == 2

    def test_instruction_mixes_sum_below_one(self):
        for profile in ALL_PROFILES.values():
            total = (profile.loads + profile.stores + profile.branches
                     + profile.fp + profile.fdiv + profile.mul
                     + profile.nonrep)
            assert total < 1.0, profile.name

    def test_bwaves_has_the_highest_fdiv_density(self):
        assert SPEC2017["bwaves"].fdiv == max(
            p.fdiv for p in SPEC2017.values())

    def test_gcc_has_the_biggest_icache_footprint(self):
        assert SPEC2017["gcc"].icache_blocks == max(
            p.icache_blocks for p in SPEC2017.values())

    def test_mcf_is_pointer_chasing(self):
        assert SPEC2017["mcf"].pointer_chase >= 0.5

    def test_gap_memory_bound_profiles(self):
        for profile in GAP.values():
            assert profile.pointer_chase >= 0.5
            assert profile.working_set_kib >= 64 * 1024

    def test_mixes_reference_real_benchmarks(self):
        assert len(SPEC_MIXES) == 5
        for names in SPEC_MIXES.values():
            assert len(names) == 4
            for name in names:
                assert name in SPEC2017

    def test_get_profile_unknown_name(self):
        with pytest.raises(KeyError):
            get_profile("doom")


class TestGenerator:
    def test_generated_programs_validate(self):
        for name in ("bwaves", "mcf", "gcc", "exchange2"):
            program = build_program(get_profile(name), seed=1)
            program.validate()  # no exception

    def test_deterministic_per_seed(self):
        a = build_program(get_profile("xz"), seed=5)
        b = build_program(get_profile("xz"), seed=5)
        assert len(a.instructions) == len(b.instructions)
        assert a.memory_image == b.memory_image

    def test_different_seeds_differ(self):
        a = build_program(get_profile("mcf"), seed=5)
        b = build_program(get_profile("mcf"), seed=6)
        assert a.memory_image != b.memory_image  # shuffled chase rings

    def test_icache_blocks_control_static_size(self):
        small = build_program(get_profile("mcf"), seed=1)
        big = build_program(get_profile("gcc"), seed=1)
        assert len(big.instructions) > 5 * len(small.instructions)

    def test_realised_mix_tracks_targets(self):
        profile = get_profile("bwaves")
        program = build_program(profile, seed=2)
        memory = Memory(program.memory_image)
        run = FunctionalCore(program, DirectMemoryPort(memory)).run(30_000)
        total = run.instructions
        loads = run.class_counts.get("load", 0) / total
        fdiv = run.class_counts.get("fp_div", 0) / total
        branches = run.class_counts.get("branch", 0) / total
        assert loads == pytest.approx(profile.loads, abs=0.06)
        assert fdiv == pytest.approx(profile.fdiv, abs=0.04)
        assert branches == pytest.approx(profile.branches, abs=0.05)

    def test_chase_ring_is_a_closed_cycle(self):
        profile = get_profile("mcf")
        program = build_program(profile, seed=3)
        ring = {addr: value for addr, value in program.memory_image.items()
                if addr >= CHASE_BASE}
        start = next(iter(ring))
        seen = set()
        node = start
        while node not in seen:
            seen.add(node)
            node = ring[node]
        assert len(seen) == len(ring)  # a single full cycle

    def test_programs_run_without_escaping(self):
        for name in ("mcf", "canneal", "pr"):
            program = build_program(get_profile(name), seed=4)
            memory = Memory(program.memory_image)
            run = FunctionalCore(program, DirectMemoryPort(memory)).run(5_000)
            assert run.instructions == 5_000  # still looping, no halt/escape

    def test_warm_ranges_only_for_llc_resident_sets(self):
        small = build_program(get_profile("exchange2"), seed=1)
        huge = build_program(get_profile("mcf"), seed=1)
        assert small.metadata["warm_ranges"]
        assert huge.metadata["warm_ranges"] == []

    def test_parallel_programs_one_per_thread(self):
        profile = get_profile("canneal")
        programs = build_parallel_programs(profile, seed=1)
        assert len(programs) == profile.threads
        assert programs[0].name != programs[1].name

    def test_threads_use_disjoint_private_working_sets(self):
        profile = get_profile("canneal")
        t0 = build_thread_program(profile, seed=1, tid=0)
        t1 = build_thread_program(profile, seed=1, tid=1)
        # Private chase rings live in per-thread regions.
        t0_chase = {a for a in t0.memory_image if a >= CHASE_BASE}
        t1_chase = {a for a in t1.memory_image if a >= CHASE_BASE}
        assert t0_chase.isdisjoint(t1_chase)

    def test_thread_programs_touch_shared_region(self):
        from repro.workloads.generator import SHARED_BASE
        profile = get_profile("canneal")
        program = build_thread_program(profile, seed=1, tid=0)
        memory = Memory(program.memory_image)
        run = FunctionalCore(program, DirectMemoryPort(memory)).run(20_000)
        shared_accesses = [
            row for row in run.columns.mem_rows
            if row[1] >= SHARED_BASE and row[1] < SHARED_BASE + 0x10000
        ]
        assert shared_accesses

    def test_nonrep_instructions_emitted_when_profiled(self):
        profile = get_profile("canneal")  # nonrep > 0
        program = build_thread_program(profile, seed=1, tid=0)
        memory = Memory(program.memory_image)
        run = FunctionalCore(program, DirectMemoryPort(memory)).run(20_000)
        nonrep = [pc for pc in run.columns.pcs
                  if program.instructions[pc].spec.is_nonrepeatable]
        assert nonrep


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(ALL_PROFILES)), st.integers(0, 50))
def test_every_profile_generates_runnable_code(name, seed):
    program = build_program(get_profile(name), seed=seed)
    program.validate()
    memory = Memory(program.memory_image)
    run = FunctionalCore(program, DirectMemoryPort(memory)).run(2_000)
    assert run.instructions == 2_000
