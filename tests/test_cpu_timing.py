"""Tests for the trace-driven timing model."""

import pytest

from repro.cpu.config import CoreInstance
from repro.cpu.functional import DirectMemoryPort, FunctionalCore
from repro.cpu.presets import A35, A510, X2
from repro.cpu.timing import TimingModel
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.mem.memory import Memory


def run_trace(instructions, max_instructions=20_000, image=None, ints=None):
    program = Program("t", list(instructions), memory_image=image or {})
    program.validate()
    core = FunctionalCore(program, DirectMemoryPort(Memory(image or {})))
    for idx, value in (ints or {}).items():
        core.regs.write_int(idx, value)
    result = core.run(max_instructions)
    return program, result


def loop_body(*body):
    """Wrap instructions into a counted loop for steady-state measurement."""
    instrs = [Instruction(Opcode.LUI, rd=1, imm=100_000)]
    instrs.extend(body)
    instrs.append(Instruction(Opcode.ADDI, rd=1, rs1=1, imm=-1))
    instrs.append(Instruction(Opcode.BNE, rs1=1, rs2=0, target=1))
    instrs.append(Instruction(Opcode.HALT))
    return instrs


def simulate(program, trace, instance=None, warm=False, **kw):
    model = TimingModel(instance or CoreInstance(X2, 3.0), **kw)
    if warm:
        model.warm_code(program)
    return model.simulate(program, trace)


def test_independent_adds_bound_by_alu_count():
    body = [Instruction(Opcode.ADD, rd=6 + (i % 8), rs1=20, rs2=21)
            for i in range(16)]
    program, result = run_trace(loop_body(*body), 10_000)
    timing = simulate(program, result.columns)
    # X2 has 4 INT_ALU units; adds dominate the loop.
    assert 2.5 < timing.ipc <= 5.0


def test_dependency_chain_bound_by_latency():
    # A chain of dependent adds can commit at most one per cycle.
    body = [Instruction(Opcode.ADD, rd=6, rs1=6, rs2=21) for _ in range(16)]
    program, result = run_trace(loop_body(*body), 10_000)
    timing = simulate(program, result.columns)
    assert timing.ipc <= 1.25


def test_fdiv_throughput_bound():
    # FP divides are unpipelined: X2 has 2 units at interval 11.
    body = [Instruction(Opcode.FDIV, rd=i % 4, rs1=4, rs2=5)
            for i in range(8)]
    program, result = run_trace(loop_body(*body), 10_000)
    timing = simulate(program, result.columns)
    interval = X2.fus[Instruction(Opcode.FDIV).spec.fu].interval
    units = X2.fus[Instruction(Opcode.FDIV).spec.fu].units
    # Steady state: 8 divides per iteration at interval/units cycles each.
    cycles_per_iter = timing.cycles / (len(result.columns) / 11)
    assert cycles_per_iter >= 8 * interval / units * 0.8


def test_a510_fdiv_much_slower_than_x2():
    body = [Instruction(Opcode.FDIV, rd=i % 4, rs1=4, rs2=5)
            for i in range(8)]
    program, result = run_trace(loop_body(*body), 10_000)
    x2_time = simulate(program, result.columns,
                       CoreInstance(X2, 3.0)).time_ns
    a510_time = simulate(program, result.columns,
                         CoreInstance(A510, 2.0)).time_ns
    # 1 unpipelined divider at interval 20 vs 2 at interval 11, plus clock.
    assert a510_time > 3 * x2_time


def test_frequency_scales_time_not_cycles():
    body = [Instruction(Opcode.ADD, rd=6, rs1=6, rs2=21)]
    program, result = run_trace(loop_body(*body), 5_000)
    fast = simulate(program, result.columns, CoreInstance(X2, 3.0),
                    warm=True, checker_mode=True)
    slow = simulate(program, result.columns, CoreInstance(X2, 1.5),
                    warm=True, checker_mode=True)
    assert slow.cycles == pytest.approx(fast.cycles, rel=0.01)
    assert slow.time_ns == pytest.approx(2 * fast.time_ns, rel=0.01)


def test_checker_mode_ignores_data_cache():
    # Loads over a huge random footprint: the main core misses, the
    # checker (LSL$-fed) does not.
    body = [
        Instruction(Opcode.MUL, rd=6, rs1=2, rs2=21),
        Instruction(Opcode.ADDI, rd=2, rs1=6, imm=13),
        Instruction(Opcode.SRLI, rd=7, rs1=2, imm=8),
        Instruction(Opcode.ANDI, rd=7, rs1=7, imm=0xFFFFF8),
        Instruction(Opcode.LD, rd=8, rs1=7),
        Instruction(Opcode.ADD, rd=9, rs1=9, rs2=8),
    ]
    program, result = run_trace(loop_body(*body), 20_000,
                                ints={2: 12345, 21: 6364136223846793005})
    main = simulate(program, result.columns, CoreInstance(X2, 3.0))
    checker = simulate(program, result.columns, CoreInstance(X2, 3.0),
                       warm=True, checker_mode=True)
    assert main.dram_accesses > 100
    assert checker.dram_accesses == 0
    assert checker.time_ns < main.time_ns


def test_mispredict_penalty_slows_random_branches():
    # Branch on the low bit of an LCG: unpredictable.
    body_random = [
        Instruction(Opcode.MUL, rd=6, rs1=2, rs2=21),
        Instruction(Opcode.ADDI, rd=2, rs1=6, imm=13),
        Instruction(Opcode.SRLI, rd=7, rs1=2, imm=17),
        Instruction(Opcode.ANDI, rd=7, rs1=7, imm=1),
        Instruction(Opcode.BNE, rs1=7, rs2=0, target=0),  # fixed below
        Instruction(Opcode.XORI, rd=8, rs1=8, imm=1),
    ]
    instrs = loop_body(*body_random)
    instrs[5].target = 7  # skip the xori
    program, result = run_trace(instrs, 20_000,
                                ints={2: 99, 21: 6364136223846793005})
    random_t = simulate(program, result.columns)

    body_biased = list(body_random)
    body_biased[3] = Instruction(Opcode.ANDI, rd=7, rs1=7, imm=0)  # never taken
    instrs = loop_body(*body_biased)
    instrs[5].target = 7
    program2, result2 = run_trace(instrs, 20_000,
                                  ints={2: 99, 21: 6364136223846793005})
    biased_t = simulate(program2, result2.columns)
    assert random_t.mispredicts > 10 * max(biased_t.mispredicts, 1)
    assert random_t.cycles > biased_t.cycles


def test_boundary_cycles_monotonic_and_complete():
    body = [Instruction(Opcode.ADD, rd=6, rs1=6, rs2=21)]
    program, result = run_trace(loop_body(*body), 9_000)
    boundaries = [3000, 6000, len(result.columns)]
    model = TimingModel(CoreInstance(X2, 3.0))
    timing = model.simulate(program, result.columns, boundaries)
    assert len(timing.boundary_cycles) == 3
    assert timing.boundary_cycles[0] < timing.boundary_cycles[1]
    assert timing.boundary_cycles[-1] == pytest.approx(timing.cycles)


def test_checkpoint_overhead_adds_cycles():
    body = [Instruction(Opcode.ADD, rd=6, rs1=6, rs2=21)]
    program, result = run_trace(loop_body(*body), 9_000)
    boundaries = list(range(1000, len(result.columns), 1000))
    base = TimingModel(CoreInstance(X2, 3.0)).simulate(
        program, result.columns, boundaries, checkpoint_overhead=False)
    with_ckpt = TimingModel(CoreInstance(X2, 3.0)).simulate(
        program, result.columns, boundaries, checkpoint_overhead=True)
    assert with_ckpt.cycles > base.cycles


def test_in_order_core_slower_on_dependent_loads():
    image = {0x1000 + i * 8: 0x1000 + ((i + 1) % 64) * 8 for i in range(64)}
    body = [Instruction(Opcode.LD, rd=5, rs1=5)]  # pointer chase
    instrs = loop_body(*body)
    program, result = run_trace(instrs, 10_000, image=image,
                                ints={5: 0x1000})
    ooo = simulate(program, result.columns, CoreInstance(X2, 2.0),
                   checker_mode=True)
    inorder = simulate(program, result.columns, CoreInstance(A510, 2.0),
                       checker_mode=True)
    scalar = simulate(program, result.columns, CoreInstance(A35, 2.0),
                      checker_mode=True)
    assert ooo.cycles <= inorder.cycles <= scalar.cycles * 1.5


def test_scalar_core_ipc_at_most_one():
    body = [Instruction(Opcode.ADD, rd=6 + (i % 8), rs1=20, rs2=21)
            for i in range(8)]
    program, result = run_trace(loop_body(*body), 10_000)
    timing = simulate(program, result.columns, CoreInstance(A35, 2.0),
                      checker_mode=True)
    assert timing.ipc <= 1.0


def test_dram_bandwidth_floor_binds_streaming():
    # Stream every access to a new line with prefetching: latency hidden,
    # but the channel can only move 19.2 GB/s.
    body = [
        Instruction(Opcode.LD, rd=8, rs1=7),
        Instruction(Opcode.ADDI, rd=7, rs1=7, imm=64),
    ] * 4
    program, result = run_trace(loop_body(*body), 40_000,
                                ints={7: 0x100000})
    timing = simulate(program, result.columns)
    lines = timing.dram_accesses
    floor_ns = lines * 64 / 19.2
    assert timing.time_ns >= floor_ns * 0.99


def test_warm_data_removes_cold_misses():
    addresses = [0x8000 + i * 64 for i in range(16)]
    body = [Instruction(Opcode.LD, rd=8, rs1=7, imm=i * 64)
            for i in range(16)]
    program, result = run_trace(loop_body(*body), 5_000,
                                ints={7: 0x8000})
    cold = TimingModel(CoreInstance(X2, 3.0))
    cold_t = cold.simulate(program, result.columns)
    warm = TimingModel(CoreInstance(X2, 3.0))
    warm.warm_data(addresses)
    warm_t = warm.simulate(program, result.columns)
    assert warm_t.dram_accesses < cold_t.dram_accesses


def test_stride_prefetcher_hides_streaming_misses():
    body = [
        Instruction(Opcode.LD, rd=8, rs1=7),
        Instruction(Opcode.ADDI, rd=7, rs1=7, imm=64),
    ]
    program, result = run_trace(loop_body(*body), 30_000,
                                ints={7: 0x100000})
    model = TimingModel(CoreInstance(X2, 3.0))
    timing = model.simulate(program, result.columns)
    assert model.prefetches_issued > 1000
    # Demand accesses mostly hit (the prefetch takes the misses).
    assert timing.level_counts["l1"] + timing.level_counts["l2"] \
        > timing.instructions * 0.2


def test_loads_and_stores_counted():
    body = [
        Instruction(Opcode.LD, rd=8, rs1=7),
        Instruction(Opcode.ST, rs2=8, rs1=7, imm=8),
    ]
    program, result = run_trace(loop_body(*body), 4_004, ints={7: 0x1000})
    timing = simulate(program, result.columns)
    assert timing.loads == pytest.approx(timing.stores, abs=2)
    assert timing.loads > 500


def test_format_stats_reports_fu_utilisation():
    from repro.cpu.timing import format_stats

    body = [Instruction(Opcode.FDIV, rd=i % 4, rs1=4, rs2=5)
            for i in range(8)]
    program, result = run_trace(loop_body(*body), 5_000)
    model = TimingModel(CoreInstance(X2, 3.0))
    timing = model.simulate(program, result.columns)
    text = format_stats(timing, X2)
    assert "simInsts        5000" in text
    assert "fu.fp_div" in text
    # The unpipelined dividers dominate this loop.
    fdiv_line = next(line for line in text.splitlines()
                     if line.startswith("fu.fp_div"))
    assert "util" in fdiv_line


def test_fu_issue_counts_cover_all_instructions():
    body = [Instruction(Opcode.ADD, rd=6, rs1=6, rs2=21)]
    program, result = run_trace(loop_body(*body), 4_000)
    timing = simulate(program, result.columns)
    assert sum(timing.fu_issue_counts.values()) == timing.instructions
