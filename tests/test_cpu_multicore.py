"""Tests for multicore (shared-memory) functional execution."""

from repro.cpu.multicore import run_multicore
from repro.isa.assembler import assemble
from repro.mem.memory import Memory


def counter_program(name: str, iterations: int):
    """Each thread atomically increments a shared counter at 0x100."""
    return assemble(
        f"""
        addi x1, x0, {iterations}
        lui x4, 0x100
        loop:
        swp x2, x20, (x4)        # grab current value (lock-free RMW base)
        addi x2, x2, 1
        st x2, 0(x4)
        subi x1, x1, 1
        bne x1, x0, loop
        halt
        """,
        name=name,
    )


def test_threads_interleave_on_shared_memory():
    programs = [counter_program(f"t{i}", 50) for i in range(2)]
    runs = run_multicore(programs, max_instructions_per_thread=10_000,
                         quantum=20)
    assert all(run.result.halted for run in runs)
    # Both threads ran to completion and saw each other's stores: the trace
    # of loads must include values written by the other thread.
    assert runs[0].result.instructions > 0
    assert runs[1].result.instructions > 0


def test_switch_points_recorded_at_quanta():
    programs = [counter_program(f"t{i}", 200) for i in range(2)]
    runs = run_multicore(programs, max_instructions_per_thread=2_000,
                         quantum=100)
    for run in runs:
        assert run.switch_points
        for point in run.switch_points:
            assert point % 100 == 0


def test_checkpoints_captured_at_switches():
    programs = [counter_program(f"t{i}", 200) for i in range(2)]
    runs = run_multicore(programs, max_instructions_per_thread=1_000,
                         quantum=100)
    for run in runs:
        for point in run.switch_points:
            assert point in run.checkpoints


def test_deterministic_given_same_inputs():
    def go():
        programs = [counter_program(f"t{i}", 100) for i in range(2)]
        return run_multicore(programs, max_instructions_per_thread=5_000,
                             quantum=30, seed=3)

    a, b = go(), go()
    for run_a, run_b in zip(a, b):
        assert run_a.result.end_checkpoint.matches(run_b.result.end_checkpoint)
        assert len(run_a.result.columns) == len(run_b.result.columns)


def test_cross_thread_visibility():
    """Thread 1 spins until thread 0 publishes a flag."""
    writer = assemble(
        """
        lui x4, 0x200
        addi x2, x0, 1
        st x2, 0(x4)
        halt
        """,
        name="writer",
    )
    reader = assemble(
        """
        lui x4, 0x200
        wait:
        ld x2, 0(x4)
        beq x2, x0, wait
        halt
        """,
        name="reader",
    )
    runs = run_multicore([writer, reader],
                         max_instructions_per_thread=10_000, quantum=10)
    assert runs[1].result.halted  # the reader saw the flag and stopped


def test_shared_memory_from_combined_images():
    a = assemble(".data 0x100 7\nld x2, 0(x3)\nhalt", name="a")
    a.instructions[0].rs1 = 0  # ld x2, 0(x0)... keep simple below
    programs = [
        assemble(".data 0x100 7\nlui x3, 0x100\nld x2, 0(x3)\nhalt", name="a"),
        assemble("lui x3, 0x100\nld x2, 0(x3)\nhalt", name="b"),
    ]
    runs = run_multicore(programs, max_instructions_per_thread=100)
    # Thread b's load sees thread a's memory image.
    assert runs[1].result.end_checkpoint.ints[2] == 7


def test_explicit_memory_argument():
    memory = Memory({0x100: 9})
    program = assemble("lui x3, 0x100\nld x2, 0(x3)\nhalt", name="p")
    runs = run_multicore([program], memory=memory,
                         max_instructions_per_thread=100)
    assert runs[0].result.end_checkpoint.ints[2] == 9


def test_class_counts_populated():
    programs = [counter_program("t0", 10)]
    runs = run_multicore(programs, max_instructions_per_thread=1_000)
    counts = runs[0].result.class_counts
    assert counts.get("load", 0) > 0  # SWP counts as a load-class op
    assert counts.get("branch", 0) > 0
