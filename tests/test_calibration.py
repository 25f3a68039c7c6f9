"""Calibration regression guard.

The reproduction's figures depend on the *relative* performance
characteristics of the synthetic workloads staying put: bwaves must stay
fdiv-bound, mcf memory-latency-bound, exchange2 cache-resident, the
checker/main ratios must stay in the regimes that produce the paper's
crossovers.  These tests pin those bands so a profile or timing-model
tweak that silently breaks a figure fails here first, with a message
naming the benchmark.
"""

import pytest

from repro.core.system import ParaVerserConfig, ParaVerserSystem
from repro.cpu.config import CoreInstance
from repro.cpu.presets import A510, X2
from repro.pipeline.timing import checker_timing, main_timing
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile

INSTRUCTIONS = 12_000

#: Plausible X2 IPC bands per benchmark (wide on purpose: these guard
#: regimes, not exact values).
IPC_BANDS = {
    # fp / streaming
    "bwaves": (0.7, 2.2),
    "lbm": (1.0, 2.8),
    "fotonik3d": (1.2, 3.2),
    "imagick": (2.0, 4.2),
    # icache / branch heavy int
    "gcc": (0.15, 1.2),
    "perlbench": (0.4, 2.0),
    "deepsjeng": (0.7, 2.5),
    # memory bound
    "mcf": (0.05, 0.6),
    "omnetpp": (0.1, 0.9),
    # cache resident int
    "exchange2": (1.0, 3.0),
    "leela": (0.8, 2.6),
    # GAP
    "bfs": (0.05, 0.6),
    "pr": (0.1, 0.8),
}

_cache: dict[str, tuple] = {}


def measured(name: str):
    if name not in _cache:
        program = build_program(get_profile(name), seed=7)
        config = ParaVerserConfig(
            main=CoreInstance(X2, 3.0),
            checkers=[CoreInstance(A510, 2.0)],
            seed=7,
        )
        system = ParaVerserSystem(config)
        run = system.execute(program, INSTRUCTIONS)
        main = main_timing(config, run, None, 0.0)
        # No boundaries: one whole-trace checker replay.
        checker_t = checker_timing(config, run, [], CoreInstance(A510, 2.0))
        _cache[name] = (main, checker_t)
    return _cache[name]


@pytest.mark.parametrize("name", sorted(IPC_BANDS))
def test_main_core_ipc_band(name):
    main, _ = measured(name)
    low, high = IPC_BANDS[name]
    assert low <= main.ipc <= high, \
        f"{name}: X2 IPC {main.ipc:.2f} outside calibrated band {IPC_BANDS[name]}"


def ratio(name: str) -> float:
    main, checker = measured(name)
    return checker.time_ns / main.time_ns


def test_bwaves_needs_more_than_four_a510s():
    # The Fig. 6 worst case: one A510 at 2 GHz must be > 4x slower than
    # the main core, so even four stall it.
    assert ratio("bwaves") > 4.0


def test_imagick_is_the_second_hard_case():
    assert ratio("imagick") > 3.0


def test_memory_bound_codes_check_for_free():
    # Fig. 9's premise: LSL$-fed checkers fly past memory-bound mains.
    for name in ("mcf", "bfs", "pr"):
        assert ratio(name) < 1.0, (name, ratio(name))


def test_cache_resident_int_fits_two_checkers():
    assert ratio("exchange2") < 2.0


def test_checker_ratio_ordering_matches_paper_story():
    # fdiv-heavy > compute-dense > branchy-int > memory-bound.
    assert ratio("bwaves") > ratio("exchange2") > ratio("mcf")


def test_mcf_memory_latency_bound():
    main, _ = measured("mcf")
    # Most cycles come from data misses: DRAM accesses are plentiful.
    assert main.dram_accesses > INSTRUCTIONS * 0.01


def test_gcc_touches_the_icache_hierarchy():
    program = build_program(get_profile("gcc"), seed=7)
    assert program.static_code_bytes > 64 * 1024  # exceeds the X2 L1I
