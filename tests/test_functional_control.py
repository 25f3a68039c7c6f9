"""Control flow, non-repeatable instructions, and run mechanics."""

import pytest

from repro.cpu.functional import (
    ControlFlowEscape,
    DirectMemoryPort,
    FunctionalCore,
    MainNonRepSource,
)
from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.mem.memory import Memory

_MASK64 = (1 << 64) - 1


def make_core(text: str, seed: int = 0):
    program = assemble(text)
    return FunctionalCore(
        program,
        DirectMemoryPort(Memory(program.memory_image)),
        nonrep=MainNonRepSource(seed=seed),
    )


def test_loop_executes_expected_count():
    core = make_core(
        """
        addi x1, x0, 10
        loop:
        subi x1, x1, 1
        bne x1, x0, loop
        halt
        """
    )
    result = core.run(1000)
    assert result.halted
    # 1 init + 10 * (subi + bne) + halt
    assert result.instructions == 22


def test_branch_comparisons_are_signed():
    core = make_core(
        """
        addi x1, x0, -1
        addi x2, x0, 1
        blt x1, x2, less
        addi x3, x0, 99
        less:
        halt
        """
    )
    core.run(1000)
    assert core.regs.read_int(3) == 0  # the branch skipped the poison write


def test_bge_taken_when_equal():
    core = make_core(
        """
        bge x0, x0, skip
        addi x3, x0, 1
        skip:
        halt
        """
    )
    core.run(100)
    assert core.regs.read_int(3) == 0


def test_jmp_is_unconditional():
    core = make_core("jmp end\naddi x3, x0, 1\nend:\nhalt")
    core.run(100)
    assert core.regs.read_int(3) == 0


def test_jalr_jumps_and_links():
    core = make_core(
        """
        addi x2, x0, 3
        jalr x1, x2
        nop
        halt
        """
    )
    result = core.run(100)
    assert result.halted
    assert core.regs.read_int(1) == 2  # link = pc + 1


def test_jalr_escape_raises():
    core = make_core("addi x2, x0, 1000\njalr x1, x2\nhalt")
    with pytest.raises(ControlFlowEscape):
        core.run(100)


def test_max_instructions_caps_run():
    core = make_core("loop:\naddi x1, x1, 1\njmp loop\nhalt")
    result = core.run(50)
    assert result.instructions == 50
    assert not result.halted


def test_run_resumes_from_previous_state():
    core = make_core("loop:\naddi x1, x1, 1\njmp loop\nhalt")
    core.run(10)
    first = core.regs.read_int(1)
    core.run(10)
    assert core.regs.read_int(1) == first + 5  # 5 addi per 10 instructions


def test_falling_off_the_end_stops():
    program = Program("t", [Instruction(Opcode.NOP)])
    program.validate()
    core = FunctionalCore(program, DirectMemoryPort(Memory()))
    result = core.run(100)
    assert result.instructions == 1
    assert not result.halted


def test_rdrand_is_deterministic_per_seed():
    a = make_core("rdrand x1\nhalt", seed=42)
    b = make_core("rdrand x1\nhalt", seed=42)
    c = make_core("rdrand x1\nhalt", seed=43)
    a.run(10), b.run(10), c.run(10)
    assert a.regs.read_int(1) == b.regs.read_int(1)
    assert a.regs.read_int(1) != c.regs.read_int(1)


def test_rdtime_monotonic():
    core = make_core("rdtime x1\nrdtime x2\nhalt")
    core.run(10)
    assert core.regs.read_int(2) > core.regs.read_int(1)


def test_sysrd_identifies_core():
    program = assemble("sysrd x1\nhalt")
    core = FunctionalCore(
        program, DirectMemoryPort(Memory()),
        nonrep=MainNonRepSource(core_id=3),
    )
    core.run(10)
    assert core.regs.read_int(1) & 0xFF == 3


def test_nonrep_values_recorded_in_trace():
    core = make_core("rdrand x1\nhalt", seed=1)
    result = core.run(10)
    idx, *_, nonrep = result.columns.mem_rows[0]
    assert idx == 0
    assert nonrep == core.regs.read_int(1)


def test_trace_branch_outcomes():
    core = make_core(
        """
        addi x1, x0, 1
        bne x1, x0, taken
        nop
        taken:
        beq x1, x0, 0
        halt
        """
    )
    result = core.run(100)
    cols = result.columns
    instrs = result.program.instructions
    branches = [(instrs[cols.pcs[idx]].op, taken)
                for idx, _, taken in cols.br_rows]
    assert branches[0] == (Opcode.BNE, True)
    assert branches[1] == (Opcode.BEQ, False)


def test_checkpoints_bracket_run():
    core = make_core("addi x1, x0, 5\nhalt")
    result = core.run(10)
    assert result.start_checkpoint.ints[1] == 0
    assert result.end_checkpoint.ints[1] == 5


def test_class_counts_accumulate():
    core = make_core("addi x1, x0, 2\nfadd f1, f1, f2\nld x2, 0(x1)\nhalt")
    result = core.run(10)
    assert result.class_counts["int_alu"] >= 2  # addi + halt
    assert result.class_counts["fp"] == 1
    assert result.class_counts["load"] == 1


def test_identical_seeds_reproduce_full_trace():
    text = """
        addi x1, x0, 50
        loop:
        rdrand x2
        and x3, x2, x1
        subi x1, x1, 1
        bne x1, x0, loop
        halt
    """
    a, b = make_core(text, seed=9), make_core(text, seed=9)
    ra, rb = a.run(1000), b.run(1000)
    assert [(row[0], row[7]) for row in ra.columns.mem_rows] \
        == [(row[0], row[7]) for row in rb.columns.mem_rows]  # nonrep
    assert ra.columns == rb.columns
    assert ra.end_checkpoint.matches(rb.end_checkpoint)
