"""Table I — core and memory experimental setup.

Not a results table: this bench asserts the presets match the paper's
configuration and prints them, and times how fast the timing models run
(the "simulator performance" number a user of the library cares about).
"""

from repro.cpu.config import CoreInstance
from repro.cpu.presets import A35, A510, X2
from repro.cpu.timing import TimingModel


def test_bench_table1_presets(benchmark):
    """Assert and print the Table I configuration."""

    def build():
        rows = []
        for config in (X2, A510, A35):
            hier = config.hierarchy
            rows.append(
                f"{config.name:5s} {config.kind.value:8s} {config.width}-wide "
                f"ROB/window={config.rob_size:4d} "
                f"L1I={hier.l1i.size_bytes // 1024}K "
                f"L1D={hier.l1d.size_bytes // 1024}K "
                f"L2={hier.l2.size_bytes // 1024}K "
                f"pred={config.predictor_kib}KiB "
                f"fmax={config.max_freq_ghz}GHz"
            )
        rows.append(
            f"L3={X2.hierarchy.l3.size_bytes // (1024 * 1024)}MiB/"
            f"{X2.hierarchy.l3.ways}way/{X2.hierarchy.l3.hit_latency}cyc "
            f"DRAM={X2.hierarchy.dram.peak_bandwidth_gbps}GB/s"
        )
        return rows

    rows = benchmark(build)
    print("\nTable I — experimental setup")
    for row in rows:
        print("  " + row)
    assert X2.width == 5 and X2.rob_size == 288
    assert A510.width == 3 and A510.max_freq_ghz == 2.0


def test_bench_timing_model_throughput(benchmark, cache):
    """Simulator speed: instructions per second of the timing model."""
    cached = cache.get("exchange2")
    instance = CoreInstance(X2, 3.0)

    def simulate():
        model = TimingModel(instance)
        return model.simulate(cached.program, cached.run.columns)

    result = benchmark(simulate)
    assert result.instructions == cached.run.instructions
