"""Timing as an event pass plus a replay, and the per-run event memo.

:meth:`TimingModel.simulate` walks the trace once through the caches,
prefetcher and predictor (:meth:`TimingModel.events`) and then replays
the pipeline recurrence over those events (:func:`replay`).  The
differential matrix pins it, field for field, to the single-pass loop it
replaced (:func:`tests.timing_reference.reference_simulate`).  The memo
tests pin what :func:`repro.pipeline.timing.core_timing` shares between
timings of one run and what it keeps apart.
"""

import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.simconfig import ParaVerserConfig
from repro.cpu.branch import BranchPredictor
from repro.cpu.config import CoreInstance
from repro.cpu.functional import DirectMemoryPort, FunctionalCore
from repro.cpu.presets import A35, A510, X2
from repro.cpu.timing import TimingEvents, TimingModel, replay
from repro.cpu.traceio import run_to_bytes
from repro.harness.opportunity import core_throughput_gips, parallel_speedup
from repro.harness.runner import WorkloadCache
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.mem.cache import Cache
from repro.mem.hierarchy import MemoryHierarchy, SharedUncore
from repro.mem.memory import Memory
from repro.obs import StatGroup
from repro.pipeline.timing import (
    checker_durations,
    checker_timing,
    core_timing,
    main_timing,
    uncore_partition,
    warm_addresses,
)
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile
from tests.timing_reference import reference_simulate


def _mixed_program() -> Program:
    """A loop touching every memory and control shape the timing sees:
    LD/ST, two-address LDG/STS, BCOPY, JALR alternating between two
    targets, a data-dependent branch, RDRAND/RDTIME/SYSRD and SWP/SC."""
    I, O = Instruction, Opcode
    instrs = [
        I(O.NOP),
        I(O.NOP),                         # (the JMP at 16 stays in its line)
        I(O.LUI, rd=1, imm=400),          # 2: trip count
        I(O.LUI, rd=3, imm=0x10000),      # 3: streaming base
        I(O.LUI, rd=4, imm=0x400000),     # 4: far gather base
        I(O.LUI, rd=5, imm=0x80000),      # 5: copy destination
        I(O.LUI, rd=22, imm=0x9000),      # 6: lock word
        I(O.LUI, rd=20, imm=1),           # 7
        I(O.LUI, rd=12, imm=15),          # 8: JALR target A
        I(O.LUI, rd=13, imm=17),          # 9: JALR target B
        I(O.LD, rd=6, rs1=3),             # 10: loop
        I(O.LDG, rd=7, rd2=8, rs1=3, rs2=4),
        I(O.STS, rs3=6, rs1=3, rs2=4),
        I(O.ST, rs2=6, rs1=3, imm=8),
        I(O.JALR, rd=11, rs1=12),         # 14
        I(O.RDRAND, rd=15),               # 15: target A
        I(O.JMP, target=18),
        I(O.RDTIME, rd=15),               # 17: target B
        I(O.SYSRD, rd=16),                # 18
        I(O.SWP, rd=17, rs2=20, rs1=22),
        I(O.SC, rd=18, rs2=20, rs1=22),
        I(O.BCOPY, rs1=3, rs2=5, imm=12),
        I(O.MOV, rd=14, rs1=12),          # 22: swap the JALR targets
        I(O.MOV, rd=12, rs1=13),
        I(O.MOV, rd=13, rs1=14),
        I(O.ADDI, rd=3, rs1=3, imm=64),
        I(O.ADDI, rd=4, rs1=4, imm=4096),
        I(O.ADDI, rd=5, rs1=5, imm=128),
        I(O.MUL, rd=9, rs1=6, rs2=15),
        I(O.ANDI, rd=9, rs1=15, imm=1),
        I(O.BEQ, rs1=9, rs2=0, target=32),
        I(O.ADDI, rd=10, rs1=10, imm=1),
        I(O.ADDI, rd=1, rs1=1, imm=-1),   # 32
        I(O.BNE, rs1=1, rs2=0, target=10),
        I(O.HALT),
    ]
    image = {0x10000 + 8 * i: i for i in range(64)}
    program = Program("mixed", instrs, memory_image=image)
    program.validate()
    return program


def _execute(program: Program, instructions: int):
    core = FunctionalCore(program,
                          DirectMemoryPort(Memory(program.memory_image)))
    return core.run(instructions)


@pytest.fixture(scope="module")
def traces():
    """``name -> (program, columns)``: the mixed loop plus generated
    workloads with bulk copies (x264), DRAM-floor streaming (lbm) and
    SWP/SC synchronisation (canneal)."""
    out = {}
    program = _mixed_program()
    out["mixed"] = (program, _execute(program, 12_000).columns)
    for name in ("x264", "lbm", "canneal"):
        program = build_program(get_profile(name), seed=3)
        out[name] = (program, _execute(program, 8_000).columns)
    return out


def _model(instance, checker, extra_llc):
    hierarchy = instance.config.hierarchy
    uncore = SharedUncore(hierarchy.l3, hierarchy.dram,
                          hierarchy.uncore_clock_ghz)
    uncore.extra_llc_latency_ns = extra_llc
    return TimingModel(instance, uncore, checker_mode=checker)


def _warm(model, program):
    if model.checker_mode:
        model.warm_code(program)
    else:
        model.warm_data(warm_addresses(program))


def _state(model):
    """Everything a timing run leaves behind on its model."""
    stats = StatGroup()
    model.hierarchy.export_stats(stats.group("caches"))
    model.hierarchy.uncore.export_stats(stats.group("uncore"))
    predictor = model.predictor
    return (stats.to_dict(), model.prefetches_issued,
            predictor.predictions, predictor.mispredictions,
            predictor._history)


def _boundaries(n, kind):
    if kind == "none":
        return None, False
    cuts = list(range(997, n, 997)) + [n]
    return cuts, kind == "checkpointed"


CORES = [pytest.param(X2, (3.0, 1.8), id="X2"),
         pytest.param(A510, (2.0, 1.0), id="A510"),
         pytest.param(A35, (1.4, 0.6), id="A35")]


#: (frequency index, NoC extra LLC ns, boundaries): every value of each
#: axis, mixed so no two cases share more than one.
CASES = [(0, 0.0, "none"), (1, 7.25, "plain"), (0, 7.25, "checkpointed"),
         (1, 0.0, "checkpointed")]


@pytest.mark.parametrize("name", ["mixed", "x264", "lbm", "canneal"])
@pytest.mark.parametrize("core,freqs", CORES)
@pytest.mark.parametrize("checker", [False, True], ids=["main", "checker"])
def test_simulate_matches_reference(traces, name, core, freqs, checker):
    program, columns = traces[name]
    for freq_idx, extra_llc, kind in CASES:
        boundaries, ckpt = _boundaries(len(columns), kind)
        instance = CoreInstance(core, freqs[freq_idx])
        want_model = _model(instance, checker, extra_llc)
        got_model = _model(instance, checker, extra_llc)
        _warm(want_model, program)
        _warm(got_model, program)
        want = reference_simulate(want_model, program, columns,
                                  boundaries, ckpt)
        got = got_model.simulate(program, columns, boundaries, ckpt)
        where = f"{name} {instance.label} {kind} +{extra_llc}"
        assert dataclasses.asdict(got) == dataclasses.asdict(want), where
        assert _state(got_model) == _state(want_model), where


def test_repeated_simulate_carries_state_like_reference(traces):
    """A second ``simulate`` on one model starts from the state the
    first left: warm caches, trained predictor and prefetcher."""
    program, columns = traces["mixed"]
    instance = CoreInstance(X2, 3.0)
    want_model = _model(instance, False, 0.0)
    got_model = _model(instance, False, 0.0)
    for _ in range(2):
        want = reference_simulate(want_model, program, columns)
        got = got_model.simulate(program, columns)
        assert got == want
    assert _state(got_model) == _state(want_model)


def test_matrix_exercises_every_event_kind(traces):
    """The differential matrix is only as strong as the events it sees."""
    program, columns = traces["mixed"]
    model = _model(CoreInstance(X2, 3.0), False, 0.0)
    _warm(model, program)
    events = model.events(program, columns)
    codes = set(events.codes)
    assert events.bcopies and events.mispredicts and events.icache_misses
    assert any(code & 3 for code in codes)             # fetch misses
    assert any((code >> 2) & 3 for code in codes)      # missed loads
    assert any(code & 0x70 for code in codes)          # second addresses
    floor = _model(CoreInstance(X2, 3.0), False, 0.0)
    lbm_program, lbm_columns = traces["lbm"]
    assert floor.simulate(lbm_program, lbm_columns).floor_scale > 1.0


# -- the memo ---------------------------------------------------------------

@pytest.fixture
def run():
    """A fresh functional run (an empty memo) for every test."""
    return _execute(_mixed_program(), 6_000)


def _config(*checkers, **kw):
    return ParaVerserConfig(main=CoreInstance(X2, 3.0),
                            checkers=list(checkers) or
                            [CoreInstance(A510, 2.0)], **kw)


def _fields(events: TimingEvents) -> dict:
    out = {f.name: getattr(events, f.name)
           for f in dataclasses.fields(events)}
    out["hierarchy_stats"] = out["hierarchy_stats"].to_dict()
    return out


def test_memo_hit_matches_miss(run):
    config = _config()
    boundaries = list(range(500, len(run.columns), 500))
    miss = main_timing(config, run, boundaries, 3.5)
    assert len(run.timing_events) == 1
    hit = main_timing(config, run, boundaries, 3.5)
    assert hit == miss
    # And both equal a standalone model built the way main_timing did.
    model = TimingModel(config.main, SharedUncore(*uncore_partition(config)))
    model.hierarchy.uncore.extra_llc_latency_ns = 3.5
    model.warm_data(warm_addresses(run.program))
    assert model.simulate(run.program, run.columns, boundaries, True) == miss


def test_frequency_shares_an_entry_but_not_a_time(run):
    boundaries = list(range(500, len(run.columns), 500))
    config = _config()
    slow = checker_timing(config, run, boundaries, CoreInstance(A510, 1.0))
    fast = checker_timing(config, run, boundaries, CoreInstance(A510, 2.0))
    assert len(run.timing_events) == 1
    assert slow.time_ns != fast.time_ns


def test_partitioned_uncore_gets_its_own_entry(run):
    main_timing(_config(), run, None, 0.0)
    main_timing(_config(llc_share=0.25), run, None, 0.0)
    assert len(run.timing_events) == 2
    partitions = {key[-1] for key in run.timing_events}
    assert len(partitions) == 2


def test_entry_holds_no_cache_or_predictor(run):
    config = _config()
    main_timing(config, run, None, 0.0)
    checker_timing(config, run, [len(run.columns)], CoreInstance(A510, 2.0))
    forbidden = (Cache, MemoryHierarchy, SharedUncore, BranchPredictor,
                 TimingModel)
    seen = set()

    def walk(obj):
        if id(obj) in seen or obj is run.program:
            return
        seen.add(id(obj))
        assert not isinstance(obj, forbidden), type(obj).__name__
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name))
        elif isinstance(obj, dict):
            for key, value in obj.items():
                walk(key)
                walk(value)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for item in obj:
                walk(item)
        elif isinstance(obj, StatGroup):
            for _, node in obj.items():
                walk(node)

    walk(run.timing_events)
    assert len(run.timing_events) == 2


def test_memo_stays_out_of_the_serialised_run(run):
    before = run_to_bytes(run)
    main_timing(_config(), run, None, 0.0)
    assert run.timing_events
    assert run_to_bytes(run) == before


def test_racing_fills_are_identical(run):
    """Threads filling one key may all walk the trace; the walks agree,
    so whichever lands in the memo is the same events."""
    config = _config()
    partition = uncore_partition(config)
    barrier = threading.Barrier(4)
    results = []

    def fill():
        barrier.wait(timeout=60)
        results.append(core_timing(run, CoreInstance(A510, 2.0), partition,
                                   checker_mode=True)[1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4 and len(run.timing_events) == 1
    stored = next(iter(run.timing_events.values()))
    assert all(_fields(events) == _fields(stored) for events in results)


def test_threaded_checker_durations_match_serial():
    """The stage graph times checker classes on executor threads, each
    filling its own memo entry concurrently."""
    from repro.pipeline.context import SimContext

    checkers = [CoreInstance(A510, 2.0), CoreInstance(A510, 1.0),
                CoreInstance(X2, 3.0), CoreInstance(A35, 1.4)]
    config = _config(*checkers)
    ctx = SimContext.create(config)
    serial_run = _execute(_mixed_program(), 6_000)
    threaded_run = _execute(_mixed_program(), 6_000)
    boundaries = list(range(400, len(serial_run.columns), 400))
    serial = checker_durations(ctx, serial_run, boundaries)
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = checker_durations(
            ctx, threaded_run, boundaries,
            mapper=lambda fn, items: list(pool.map(fn, items)))
    assert threaded == serial
    assert len(threaded_run.timing_events) == 3  # A510, X2, A35 classes


# -- compute-opportunity timing ---------------------------------------------

@pytest.fixture(scope="module")
def sec7f_runs():
    cache = WorkloadCache(max_instructions=6_000, trace_cache=None)
    return {name: cache.get(name) for name in ("bfs", "pr", "cc")}


def test_opportunity_warm_rule_unchanged_for_sec7f(sec7f_runs):
    """``core_throughput_gips`` warms with ``warm_addresses`` like every
    main-mode timing; for the section VII-F workloads that is exactly
    the memory image it warmed with before."""
    for name, cached in sec7f_runs.items():
        program = cached.program
        assert program.metadata.get("warm_ranges", []) == [], name
        for instance in (CoreInstance(X2, 3.0), CoreInstance(A510, 2.0)):
            model = TimingModel(instance)
            model.warm_data(program.memory_image.keys())
            timing = model.simulate(program, cached.run.columns)
            want = timing.instructions / timing.time_ns
            assert core_throughput_gips(program, cached.run,
                                        instance) == want, name


def test_parallel_speedup_reuses_one_stream_per_class(sec7f_runs):
    cached = sec7f_runs["pr"]
    cached.run.timing_events.clear()
    parallel_speedup(cached.program, cached.run, CoreInstance(X2, 3.0),
                     [CoreInstance(A510, 2.0)] * 4)
    parallel_speedup(cached.program, cached.run, CoreInstance(X2, 3.0),
                     [CoreInstance(X2, 3.0)])
    assert len(cached.run.timing_events) == 2


def test_replay_reads_no_model_state(run):
    """The same events replayed at two frequencies and back give the
    first answer again: replay mutates nothing it is handed."""
    config = _config()
    _, events = core_timing(run, config.main, uncore_partition(config))
    first = replay(events, CoreInstance(X2, 3.0), 1.5, [1000], True)
    replay(events, CoreInstance(X2, 1.8), 0.0)
    assert replay(events, CoreInstance(X2, 3.0), 1.5, [1000], True) == first
