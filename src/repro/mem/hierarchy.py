"""Per-core cache hierarchy with a shared uncore (LLC + DRAM).

Latency bookkeeping is in nanoseconds so that cores in different clock
domains (DVFS, section VII-A) can share the uncore: L1/L2 latencies are
expressed in core cycles and converted by the owning core's frequency,
while the L3 runs in the 2 GHz uncore domain and DRAM in absolute time.

The uncore exposes ``extra_llc_latency_ns``: the paper backpropagates the
average added latency from LSL NoC traffic into the LLC access latency
(section VI), and :mod:`repro.noc` sets this knob the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import DramConfig, DramModel


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache geometry for one core plus the shared uncore."""

    l1i: CacheConfig
    l1d: CacheConfig
    l2: CacheConfig
    l3: CacheConfig
    dram: DramConfig = field(default_factory=DramConfig)
    uncore_clock_ghz: float = 2.0


class SharedUncore:
    """The L3 slice set and memory channel shared by all cores."""

    def __init__(self, l3_config: CacheConfig, dram_config: DramConfig,
                 clock_ghz: float = 2.0) -> None:
        self.l3 = Cache(l3_config)
        self.dram = DramModel(dram_config)
        self.clock_ghz = clock_ghz
        self._l3_hit_cycles = l3_config.hit_latency
        #: Added by the NoC model to every LLC access (paper section VI).
        self.extra_llc_latency_ns = 0.0
        self.llc_accesses = 0

    def l3_hit_latency_ns(self) -> float:
        return self.l3.config.hit_latency / self.clock_ghz

    def reset_stats(self) -> None:
        self.l3.reset_stats()
        self.llc_accesses = 0
        self.dram.reset_stats()

    def access_fast(self, addr: int) -> tuple[float, str]:
        """Access the LLC, falling through to DRAM on a miss:
        ``(latency_ns, level)``."""
        self.llc_accesses += 1
        latency = self._l3_hit_cycles / self.clock_ghz \
            + self.extra_llc_latency_ns
        if self.l3.access(addr):
            return latency, "l3"
        self.dram.record_access(addr)
        latency += self.dram.latency_ns()
        return latency, "dram"

    def export_stats(self, group) -> None:
        """Publish LLC and DRAM counters into an obs StatGroup."""
        group.count("llc_accesses", self.llc_accesses,
                    "requests reaching the shared LLC")
        group.scalar("extra_llc_latency_ns", self.extra_llc_latency_ns,
                     "NoC queueing backpropagated into LLC latency")
        self.l3.export_stats(group.group("l3"))
        self.dram.export_stats(group.group("dram"))


class MemoryHierarchy:
    """One core's private L1I/L1D/L2 in front of a shared uncore."""

    def __init__(self, config: HierarchyConfig,
                 uncore: SharedUncore | None = None) -> None:
        self.config = config
        self.l1i = Cache(config.l1i)
        self.l1d = Cache(config.l1d)
        self.l2 = Cache(config.l2)
        self._l1i_hit_cycles = config.l1i.hit_latency
        self._l1d_hit_cycles = config.l1d.hit_latency
        self._l2_hit_cycles = config.l2.hit_latency
        self.uncore = uncore or SharedUncore(
            config.l3, config.dram, config.uncore_clock_ghz
        )
        self.level_counts = {"l1": 0, "l2": 0, "l3": 0, "dram": 0}

    def data_access_fast(self, addr: int,
                         core_freq_ghz: float) -> tuple[float, str]:
        """A load or store (write-allocate): ``(latency_ns, level)``.

        :func:`repro.cpu.timing.replay` recomputes these latencies per
        level with the same float expressions; keep the two in step."""
        counts = self.level_counts
        latency = self._l1d_hit_cycles / core_freq_ghz
        if self.l1d.access(addr):
            counts["l1"] += 1
            return latency, "l1"
        latency += self._l2_hit_cycles / core_freq_ghz
        if self.l2.access(addr):
            counts["l2"] += 1
            return latency, "l2"
        uncore_latency, level = self.uncore.access_fast(addr)
        counts[level] += 1
        return latency + uncore_latency, level

    def fetch_access_fast(self, addr: int,
                          core_freq_ghz: float) -> tuple[float, str]:
        """An instruction fetch (see ``data_access_fast``)."""
        counts = self.level_counts
        latency = self._l1i_hit_cycles / core_freq_ghz
        if self.l1i.access(addr):
            counts["l1"] += 1
            return latency, "l1"
        latency += self._l2_hit_cycles / core_freq_ghz
        if self.l2.access(addr):
            counts["l2"] += 1
            return latency, "l2"
        uncore_latency, level = self.uncore.access_fast(addr)
        counts[level] += 1
        return latency + uncore_latency, level

    def reset_stats(self) -> None:
        for cache in (self.l1i, self.l1d, self.l2):
            cache.reset_stats()
        self.level_counts = {k: 0 for k in self.level_counts}

    def export_stats(self, group) -> None:
        """Publish per-level cache counters into an obs StatGroup."""
        for name, cache in (("l1i", self.l1i), ("l1d", self.l1d),
                            ("l2", self.l2)):
            cache.export_stats(group.group(name))
        hits = group.group("data_hits_by_level")
        for level, count in self.level_counts.items():
            hits.count(level, count)
