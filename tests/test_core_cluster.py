"""Tests for the multi-main-core cluster simulation (Figs. 9-10)."""

import pytest

from repro.core.cluster import ClusterSystem
from repro.cpu.config import CoreInstance
from repro.cpu.presets import A510, X2
from repro.pipeline.timing import uncore_partition
from repro.workloads.generator import build_parallel_programs, build_program
from repro.workloads.profiles import get_profile


def x2():
    return CoreInstance(X2, 3.0)


def a510s(n, freq=2.0):
    return [CoreInstance(A510, freq)] * n


def _pin(results):
    return [(r.workload, r.checked_time_ns, r.baseline_time_ns, r.coverage)
            for r in results]


class TestMultiprocess:
    @pytest.fixture(scope="class")
    def result(self):
        programs = [build_program(get_profile(n), seed=3)
                    for n in ("exchange2", "xz")]
        cluster = ClusterSystem(
            mains=[x2()] * 2,
            checkers_per_main=[a510s(2), a510s(2)],
            seed=3,
        )
        return cluster.run_multiprocess(programs, max_instructions=10_000)

    def test_one_result_per_main(self, result):
        assert len(result.per_main) == 2
        names = {r.workload for r in result.per_main}
        assert names == {"exchange2", "xz"}

    def test_total_slowdown_positive(self, result):
        assert result.slowdown >= 1.0

    def test_no_lsl_variant_not_slower(self, result):
        # Removing LSL NoC traffic can only help.
        assert result.slowdown_no_lsl <= result.slowdown + 1e-9

    def test_full_coverage_everywhere(self, result):
        assert result.coverage == pytest.approx(1.0)

    def test_pinned_per_main_results(self, result):
        """Exact per-main outcomes, captured before the cluster moved
        onto the stage graph: (workload, checked ns, baseline ns,
        coverage), with and without LSL traffic on the mesh."""
        assert _pin(result.per_main) == [
            ("exchange2", 2680.250677944801, 2673.2450677367087, 1.0),
            ("xz", 2722.8747977738617, 2665.113738756971, 1.0)]
        assert _pin(result.per_main_no_lsl) == [
            ("exchange2", 2680.148474605669, 2673.2450677367087, 1.0),
            ("xz", 2721.5892509921246, 2665.113738756971, 1.0)]

    def test_program_count_must_match_mains(self):
        cluster = ClusterSystem(mains=[x2()], checkers_per_main=[a510s(1)])
        with pytest.raises(ValueError):
            cluster.run_multiprocess([])


class TestParallel:
    @pytest.fixture(scope="class")
    def result(self):
        profile = get_profile("canneal")
        programs = build_parallel_programs(profile, seed=4)
        cluster = ClusterSystem(
            mains=[x2()] * 2,
            checkers_per_main=[a510s(3), a510s(3)],
            seed=4,
        )
        return cluster.run_parallel(programs,
                                    max_instructions_per_thread=8_000,
                                    quantum=1000)

    def test_threads_verified_clean(self, result):
        # Racy shared-memory execution must still replay cleanly.
        for thread in result.per_main:
            assert thread.verify_results
            assert all(not r.detected for r in thread.verify_results)

    def test_interrupt_checkpoints_present(self, result):
        total_interrupts = sum(
            r.cut_reasons.get("interrupt", 0) for r in result.per_main)
        assert total_interrupts > 0

    def test_parallel_slowdown_reasonable(self, result):
        assert 1.0 <= result.parallel_slowdown < 2.0

    def test_pinned_per_thread_results(self, result):
        assert _pin(result.per_main) == [
            ("canneal.t0", 6000.0, 6000.0, 1.0),
            ("canneal.t1", 6358.053274898847, 6200.0, 1.0)]
        assert _pin(result.per_main_no_lsl) == [
            ("canneal.t0", 6000.0, 6000.0, 1.0),
            ("canneal.t1", 6356.202223248408, 6200.0, 1.0)]

    def test_no_lsl_pass_skips_verification(self, result):
        assert all(r.verify_results == [] for r in result.per_main_no_lsl)


class TestConstruction:
    def test_mismatched_pools_rejected(self):
        with pytest.raises(ValueError):
            ClusterSystem(mains=[x2()], checkers_per_main=[])

    def test_more_than_four_mains_rejected(self):
        with pytest.raises(ValueError):
            ClusterSystem(mains=[x2()] * 5,
                          checkers_per_main=[a510s(1)] * 5)

    def test_llc_statically_partitioned(self):
        cluster = ClusterSystem(
            mains=[x2()] * 4,
            checkers_per_main=[a510s(1)] * 4,
        )
        for system in cluster.systems:
            assert system.config.llc_share == pytest.approx(0.25)
        l3, _, _ = uncore_partition(cluster.systems[0].config)
        assert l3.size_bytes == 2 * 1024 * 1024
