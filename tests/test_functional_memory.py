"""Memory-access semantics of the functional executor."""

from hypothesis import given, strategies as st

from repro.cpu.functional import DirectMemoryPort, FunctionalCore
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.mem.memory import Memory


def run_ops(*instructions, ints=None, image=None):
    instrs = list(instructions) + [Instruction(Opcode.HALT)]
    program = Program("t", instrs, memory_image=image or {})
    program.validate()
    memory = Memory(program.memory_image)
    core = FunctionalCore(program, DirectMemoryPort(memory))
    for idx, value in (ints or {}).items():
        core.regs.write_int(idx, value)
    result = core.run(1000)
    return core, memory, result


def test_store_then_load():
    core, memory, _ = run_ops(
        Instruction(Opcode.ST, rs2=2, rs1=1, imm=0),
        Instruction(Opcode.LD, rd=3, rs1=1, imm=0),
        ints={1: 0x1000, 2: 0xDEAD},
    )
    assert core.regs.read_int(3) == 0xDEAD
    assert memory.load(0x1000, 8) == 0xDEAD


def test_load_with_offset():
    _, memory, _ = run_ops(
        Instruction(Opcode.ST, rs2=2, rs1=1, imm=24),
        ints={1: 0x1000, 2: 7},
    )
    assert memory.load(0x1018, 8) == 7


def test_narrow_store_masks_value():
    core, memory, _ = run_ops(
        Instruction(Opcode.ST, rs2=2, rs1=1, imm=0, size=2),
        Instruction(Opcode.LD, rd=3, rs1=1, imm=0, size=2),
        ints={1: 0x2000, 2: 0x12345},
    )
    assert core.regs.read_int(3) == 0x2345


def test_narrow_load_zero_extends():
    core, _, _ = run_ops(
        Instruction(Opcode.LD, rd=3, rs1=1, imm=0, size=1),
        ints={1: 0x3000},
        image={0x3000: 0xFFEE},
    )
    assert core.regs.read_int(3) == 0xEE


def test_uninitialised_memory_reads_zero():
    core, _, _ = run_ops(
        Instruction(Opcode.LD, rd=3, rs1=1, imm=0),
        ints={1: 0x9999000},
    )
    assert core.regs.read_int(3) == 0


def test_swap_returns_old_value_and_stores_new():
    core, memory, _ = run_ops(
        Instruction(Opcode.SWP, rd=3, rs2=2, rs1=1),
        ints={1: 0x4000, 2: 99},
        image={0x4000: 55},
    )
    assert core.regs.read_int(3) == 55
    assert memory.load(0x4000, 8) == 99


def test_gather_loads_two_addresses():
    core, _, _ = run_ops(
        Instruction(Opcode.LDG, rd=3, rd2=4, rs1=1, rs2=2),
        ints={1: 0x1000, 2: 0x2000},
        image={0x1000: 11, 0x2000: 22},
    )
    assert core.regs.read_int(3) == 11
    assert core.regs.read_int(4) == 22


def test_scatter_stores_two_addresses():
    _, memory, _ = run_ops(
        Instruction(Opcode.STS, rs3=3, rs1=1, rs2=2),
        ints={1: 0x1000, 2: 0x2000, 3: 77},
    )
    assert memory.load(0x1000, 8) == 77
    assert memory.load(0x2000, 8) == 77


def test_store_conditional_succeeds_on_main_core():
    core, memory, _ = run_ops(
        Instruction(Opcode.SC, rd=3, rs2=2, rs1=1),
        ints={1: 0x5000, 2: 123},
    )
    assert core.regs.read_int(3) == 1  # success flag
    assert memory.load(0x5000, 8) == 123


def test_trace_records_load_metadata():
    _, _, result = run_ops(
        Instruction(Opcode.LD, rd=3, rs1=1, imm=8, size=4),
        ints={1: 0x1000},
        image={0x1008: 0xABCD},
    )
    idx, addr, _, size, loaded, _, _, _ = result.columns.mem_rows[0]
    assert idx == 0
    assert addr == 0x1008
    assert size == 4
    assert loaded == 0xABCD


def test_trace_records_store_metadata():
    _, _, result = run_ops(
        Instruction(Opcode.ST, rs2=2, rs1=1, imm=0, size=2),
        ints={1: 0x1000, 2: 0x12345},
    )
    idx, _, _, size, _, _, stored, _ = result.columns.mem_rows[0]
    assert idx == 0
    assert stored == 0x2345
    assert size == 2


def test_trace_records_gather_pair():
    _, _, result = run_ops(
        Instruction(Opcode.LDG, rd=3, rd2=4, rs1=1, rs2=2),
        ints={1: 0x1000, 2: 0x2000},
        image={0x1000: 1, 0x2000: 2},
    )
    idx, addr, addr2, _, loaded, loaded2, _, _ = result.columns.mem_rows[0]
    assert idx == 0
    assert addr == 0x1000 and addr2 == 0x2000
    assert loaded == 1 and loaded2 == 2


@given(st.integers(min_value=0, max_value=(1 << 40) - 1),
       st.sampled_from([1, 2, 4, 8]),
       st.integers(min_value=0))
def test_store_load_roundtrip_property(addr, size, value):
    _, memory, _ = run_ops(
        Instruction(Opcode.ST, rs2=2, rs1=1, imm=0, size=size),
        ints={1: addr, 2: value & ((1 << 64) - 1)},
    )
    assert memory.load(addr, size) == value & ((1 << (8 * size)) - 1)
