"""Tests for the cache hierarchy and shared uncore."""

from repro.cpu.presets import big_hierarchy, little_hierarchy
from repro.mem.hierarchy import MemoryHierarchy, SharedUncore


def make_hierarchy():
    config = big_hierarchy()
    return MemoryHierarchy(config)


def test_cold_access_goes_to_dram():
    hier = make_hierarchy()
    _, level = hier.data_access_fast(0x10000, core_freq_ghz=3.0)
    assert level == "dram"


def test_warm_access_hits_l1():
    hier = make_hierarchy()
    hier.data_access_fast(0x10000, 3.0)
    _, level = hier.data_access_fast(0x10000, 3.0)
    assert level == "l1"


def test_latency_strictly_increases_down_the_hierarchy():
    hier = make_hierarchy()
    dram, _ = hier.data_access_fast(0x10000, 3.0)
    l1, _ = hier.data_access_fast(0x10000, 3.0)
    hier.l1d.flush()
    l2, _ = hier.data_access_fast(0x10000, 3.0)
    hier.l1d.flush()
    hier.l2.flush()
    l3, _ = hier.data_access_fast(0x10000, 3.0)
    assert l1 < l2 < l3 < dram


def test_l1_hit_latency_scales_with_core_frequency():
    hier_fast = make_hierarchy()
    hier_slow = make_hierarchy()
    hier_fast.data_access_fast(0x100, 3.0)
    hier_slow.data_access_fast(0x100, 1.5)
    fast, _ = hier_fast.data_access_fast(0x100, 3.0)
    slow, _ = hier_slow.data_access_fast(0x100, 1.5)
    assert slow == 2 * fast


def test_fetch_path_uses_icache():
    hier = make_hierarchy()
    hier.fetch_access_fast(0x5000, 3.0)
    assert hier.l1i.accesses == 1
    assert hier.l1d.accesses == 0


def test_shared_uncore_between_cores():
    uncore = SharedUncore(big_hierarchy().l3, big_hierarchy().dram)
    a = MemoryHierarchy(big_hierarchy(), uncore)
    b = MemoryHierarchy(little_hierarchy(), uncore)
    a.data_access_fast(0x7000, 3.0)  # brings the line into the shared L3
    _, level = b.data_access_fast(0x7000, 2.0)
    assert level == "l3"  # core B's private caches miss; L3 hits


def test_extra_llc_latency_applies():
    hier = make_hierarchy()
    hier.data_access_fast(0x100, 3.0)
    hier.l1d.flush()
    hier.l2.flush()
    base, _ = hier.data_access_fast(0x100, 3.0)
    hier.l1d.flush()
    hier.l2.flush()
    hier.uncore.extra_llc_latency_ns = 5.0
    loaded, _ = hier.data_access_fast(0x100, 3.0)
    assert loaded - base == 5.0


def test_level_counts_accumulate():
    hier = make_hierarchy()
    hier.data_access_fast(0x100, 3.0)
    hier.data_access_fast(0x100, 3.0)
    assert hier.level_counts["dram"] == 1
    assert hier.level_counts["l1"] == 1


def test_reset_stats_clears_counts_not_contents():
    hier = make_hierarchy()
    hier.data_access_fast(0x100, 3.0)
    hier.reset_stats()
    assert hier.level_counts["dram"] == 0
    assert hier.data_access_fast(0x100, 3.0)[1] == "l1"


def test_uncore_reset_stats():
    hier = make_hierarchy()
    hier.data_access_fast(0x100, 3.0)
    hier.uncore.reset_stats()
    assert hier.uncore.llc_accesses == 0
    assert hier.uncore.dram.accesses == 0


def test_uncore_counts_llc_and_dram_accesses():
    hier = make_hierarchy()
    hier.data_access_fast(0x100, 3.0)     # miss all the way
    hier.l1d.flush()
    hier.l2.flush()
    hier.data_access_fast(0x100, 3.0)     # L3 hit
    assert hier.uncore.llc_accesses == 2
    assert hier.uncore.dram.accesses == 1
