"""Functional execution engine.

This is the architectural simulator both sides of ParaVerser run on: the
main core executes against real memory while logging (``repro.core``), and
checker cores replay against the load-store log.  The two are the same
engine parameterised by a :class:`MemoryPort` and a :class:`NonRepSource`,
which guarantees that replay semantics match original-run semantics by
construction.

Fault injection (section VII-B) hooks in through :class:`FaultSurface`:
every functional-unit result and every load/store address passes through
``apply`` tagged with the unit class and instance that produced it.

Dispatch is table-driven end to end, and the commit trace is columnar
(:class:`~repro.cpu.columns.TraceColumns`): handlers append to the dense
pc column and the sparse memory/branch planes instead of building one
heap object per instruction.  Two per-program handler tables are cached
on the program object:

* the generic table — one handler per opcode, routing every produced
  value through the fault surface and round-robin unit selection; used
  whenever the surface may react to some FU value;
* the fast table — one *per-pc* closure with the instruction's register
  indices, immediates and masks bound at build time, used by cores whose
  surface is FU-inert (no ``activation_sites``: healthy cores — main
  trace runs, checkpoint passes, healthy checker replays — and faulty
  checkers whose fault has no live FU site, such as register faults and
  spent transients).  Bit-identical to the generic table with an FU-inert
  surface by construction.
"""

from __future__ import annotations

import random
from typing import Protocol

from repro.cpu.columns import TraceColumns
from repro.isa.instructions import FUKind, Instruction, OP_SPECS, Opcode
from repro.isa.program import Program
from repro.isa.registers import RegisterCheckpoint, RegisterFile
from repro.mem.memory import Memory

_MASK64 = (1 << 64) - 1
_SIGN = 1 << 63
_FU_KINDS = tuple(FUKind)


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as signed."""
    return value - (1 << 64) if value & _SIGN else value


class ExecutionError(Exception):
    """Base class for functional-execution failures."""


class ControlFlowEscape(ExecutionError):
    """Control transferred outside the program (e.g. fault-corrupted JALR)."""


class FaultSurface(Protocol):
    """Hook applied to every value produced by a functional unit."""

    def apply(self, fu: FUKind, unit: int, value: int | float,
              is_address: bool = False) -> int | float: ...


class NoFaults:
    """Fault surface of a healthy core."""

    def apply(self, fu: FUKind, unit: int, value: int | float,
              is_address: bool = False) -> int | float:
        return value

    def activation_sites(self, fu_counts) -> frozenset:
        del fu_counts
        return frozenset()


class MemoryPort(Protocol):
    """Where loads/stores go: real memory (main core) or the LSL (checker)."""

    def load(self, addr: int, size: int) -> int: ...
    def store(self, addr: int, size: int, value: int) -> None: ...
    def swap(self, addr: int, size: int, value: int) -> int: ...
    def bulk_copy(self, src: int, dst: int, words: int) -> tuple[int, ...]: ...


class DirectMemoryPort:
    """MemoryPort over flat functional memory (the main core's view)."""

    __slots__ = ("memory",)

    def __init__(self, memory: Memory) -> None:
        self.memory = memory

    def load(self, addr: int, size: int) -> int:
        return self.memory.load(addr, size)

    def store(self, addr: int, size: int, value: int) -> None:
        self.memory.store(addr, size, value)

    def swap(self, addr: int, size: int, value: int) -> int:
        return self.memory.swap(addr, size, value)

    def bulk_copy(self, src: int, dst: int, words: int) -> tuple[int, ...]:
        values = self.memory.load_range(src, words)
        self.memory.store_range(dst, values)
        return values


class NonRepSource(Protocol):
    """Source of non-repeatable values (RNG, timers, system registers)."""

    def rdrand(self) -> int: ...
    def rdtime(self, committed: int) -> int: ...
    def sysrd(self) -> int: ...
    def sc_success(self) -> int: ...


class MainNonRepSource:
    """The main core's live non-repeatable sources (deterministic per seed)."""

    def __init__(self, seed: int = 0, core_id: int = 0,
                 time_base: int = 1_000_000) -> None:
        self._rng = random.Random(seed ^ 0x5DEECE66D)
        self.core_id = core_id
        self.time_base = time_base

    def rdrand(self) -> int:
        return self._rng.getrandbits(64)

    def rdtime(self, committed: int) -> int:
        return self.time_base + committed

    def sysrd(self) -> int:
        return 0xC0DE0000 | self.core_id

    def sc_success(self) -> int:
        return 1


class TraceMemo:
    """What the pipeline derives from one trace, kept for every
    configuration that reads it.  Never serialised with the trace."""

    __slots__ = ("columns", "timing_events", "checkpoints", "row_sizes",
                 "digests")

    def __init__(self, columns: TraceColumns) -> None:
        #: The trace every entry derives from.
        self.columns = columns
        #: Event streams of :func:`repro.pipeline.timing.core_timing`.
        self.timing_events: dict = {}
        #: Trace index -> the checkpoint pass's register checkpoint.
        self.checkpoints: dict[int, RegisterCheckpoint] = {}
        #: :func:`repro.core.lsl.row_entry_bytes` of the trace.
        self.row_sizes: tuple | None = None
        #: (start, end) -> Hash Mode digest of that range's records.
        self.digests: dict[tuple[int, int], bytes] = {}


class RunResult:
    """Outcome of a functional run (one segment or a whole program)."""

    __slots__ = ("program", "columns", "start_checkpoint", "end_checkpoint",
                 "halted", "instructions", "class_counts", "_memo")

    def __init__(
        self,
        program: Program,
        columns: TraceColumns,
        start_checkpoint: RegisterCheckpoint | None = None,
        end_checkpoint: RegisterCheckpoint | None = None,
        halted: bool = False,
        instructions: int = 0,
        class_counts: dict[str, int] | None = None,
    ) -> None:
        self.program = program
        if columns.program is None:
            columns.program = program
        self.columns = columns
        self.start_checkpoint = start_checkpoint
        self.end_checkpoint = end_checkpoint
        self.halted = halted
        self.instructions = instructions
        self.class_counts = {} if class_counts is None else class_counts
        self._memo = TraceMemo(columns)

    @property
    def memo(self) -> TraceMemo:
        """The memo of ``columns``: a run whose columns were swapped (a
        copy with an edited memory plane, say) reads a fresh one."""
        memo = self._memo
        if memo.columns is not self.columns:
            memo = self._memo = TraceMemo(self.columns)
        return memo

    @property
    def timing_events(self) -> dict:
        return self.memo.timing_events

    @property
    def final_pc(self) -> int:
        return self.end_checkpoint.pc


def _program_tables(program: Program) -> tuple[list, list]:
    """Per-pc (generic handler, fu-name) tables, computed once per program.

    The tables only depend on the static instruction stream, so they are
    cached on the program object and shared by every core — main, the
    RCU's checkpoint pass, checkers, and fault-injection replays — that
    executes it.
    """
    tables = getattr(program, "_functional_tables", None)
    if tables is None:
        handlers = [_HANDLERS[instr.op] for instr in program.instructions]
        fu_names = [OP_SPECS[instr.op].fu.value
                    for instr in program.instructions]
        tables = (handlers, fu_names)
        program._functional_tables = tables
    return tables


def _fast_tables(program: Program) -> list:
    """Per-pc specialised closures for healthy single-unit cores."""
    table = getattr(program, "_fast_handlers", None)
    if table is None:
        n = len(program.instructions)
        table = [_build_fast(pc, instr, n)
                 for pc, instr in enumerate(program.instructions)]
        program._fast_handlers = table
    return table


class _NullColumns:
    """Sink for the no-trace runs (checkpoint pass, checker replay)."""

    __slots__ = ()

    def mem(self, addr, addr2, size, loaded, loaded2, stored, nonrep):
        pass

    def mem_bulk(self, src, dst, values):
        pass

    def br(self, taken, next_pc):
        pass


_NULL_COLUMNS = _NullColumns()


def _discard(pc):
    pass


class FunctionalCore:
    """Executes a :class:`Program` instruction by instruction."""

    def __init__(
        self,
        program: Program,
        memory_port: MemoryPort,
        registers: RegisterFile | None = None,
        nonrep: NonRepSource | None = None,
        fault_surface: FaultSurface | None = None,
        fu_counts: dict[FUKind, int] | None = None,
        start_pc: int | None = None,
    ) -> None:
        self.program = program
        self.port = memory_port
        # Bind the port accessors once per core; the main core's direct
        # port is pure delegation, so bind straight through to the
        # backing Memory and save a call frame on every access.
        if type(memory_port) is DirectMemoryPort:
            memory = memory_port.memory
            self._load = memory.load
            self._store = memory.store
            self._swap = memory.swap
        else:
            self._load = memory_port.load
            self._store = memory_port.store
            self._swap = memory_port.swap
        self._bulk_copy = memory_port.bulk_copy
        self.regs = registers or RegisterFile()
        self.nonrep = nonrep or MainNonRepSource()
        self.fault = fault_surface or NoFaults()
        self.fu_counts = fu_counts or {}
        # Round robin indexed by FUKind.index: unit counts, next unit.
        self._fu_units = [self.fu_counts.get(fu, 1) for fu in _FU_KINDS]
        self._fu_next = [0] * len(_FU_KINDS)
        self.pc = program.entry if start_pc is None else start_pc
        self.committed = 0
        self.halted = False
        self._cols = _NULL_COLUMNS
        # Cores whose surface is FU-inert — it declares no (fu, unit)
        # activation site (see repro.faults.models) — run the per-pc
        # fast handler table, which skips the fault surface and
        # round-robin unit selection entirely (their slow-path results
        # are identities by construction, so this is bit-exact whatever
        # the unit counts).  A surface without ``activation_sites``
        # might react anywhere.
        sites = getattr(self.fault, "activation_sites", None)
        self._fast = sites is not None and not sites(self.fu_counts)

    # -- functional-unit plumbing -------------------------------------------

    def _unit_for(self, fu: FUKind) -> int:
        """Round-robin unit selection, so stuck-at faults hit a subset of ops."""
        index = fu.index
        count = self._fu_units[index]
        if count <= 1:
            return 0
        nxt = self._fu_next[index]
        self._fu_next[index] = (nxt + 1) % count
        return nxt

    def _alu(self, fu: FUKind, value: int) -> int:
        out = self.fault.apply(fu, self._unit_for(fu), value & _MASK64)
        return int(out) & _MASK64

    def _fpu(self, fu: FUKind, value: float) -> float:
        return float(self.fault.apply(fu, self._unit_for(fu), value))

    def _mem_addr(self, fu: FUKind, addr: int) -> int:
        out = self.fault.apply(fu, self._unit_for(fu), addr & _MASK64,
                               is_address=True)
        return int(out) & _MASK64

    # -- execution ----------------------------------------------------------

    def run(self, max_instructions: int,
            record_trace: bool = True) -> RunResult:
        """Execute up to ``max_instructions`` instructions."""
        start = self.regs.snapshot(self.pc)
        program = self.program
        n = len(program.instructions)
        cols = TraceColumns(program)
        self._cols = cols if record_trace else _NULL_COLUMNS
        pcs_append = cols.pcs.append if record_trace else _discard
        executed = 0
        pc = self.pc
        try:
            if self._fast:
                handlers = _fast_tables(program)
                while executed < max_instructions and not self.halted:
                    if not 0 <= pc < n:
                        break  # fell off the end of the program
                    pcs_append(pc)
                    pc = handlers[pc](self)
                    executed += 1
                    self.committed += 1
            else:
                handlers, _ = _program_tables(program)
                instrs = program.instructions
                while executed < max_instructions and not self.halted:
                    if not 0 <= pc < n:
                        break
                    self.pc = pc
                    pcs_append(pc)
                    pc = handlers[pc](self, instrs[pc])
                    executed += 1
                    self.committed += 1
        except BaseException:
            self.pc = pc
            raise
        finally:
            self._cols = _NULL_COLUMNS
        self.pc = pc
        if record_trace:
            class_counts = cols.class_counts(_program_tables(program)[1])
        else:
            class_counts = {}
        return RunResult(
            program=program,
            columns=cols,
            start_checkpoint=start,
            end_checkpoint=self.regs.snapshot(pc),
            halted=self.halted,
            instructions=executed,
            class_counts=class_counts,
        )


# -- opcode operator tables --------------------------------------------------

_INT_ALU = FUKind.INT_ALU

_INT3_OPS = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SLL: lambda a, b: a << (b & 63),
    Opcode.SRL: lambda a, b: a >> (b & 63),
    Opcode.SLT: lambda a, b: 1 if to_signed(a) < to_signed(b) else 0,
}

_IMM_OPS = {
    Opcode.ADDI: lambda a, imm: a + imm,
    Opcode.ANDI: lambda a, imm: a & (imm & _MASK64),
    Opcode.ORI: lambda a, imm: a | (imm & _MASK64),
    Opcode.XORI: lambda a, imm: a ^ (imm & _MASK64),
    Opcode.SLLI: lambda a, imm: a << (imm & 63),
    Opcode.SRLI: lambda a, imm: a >> (imm & 63),
}

_FP3_OPS = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FMIN: min,
    Opcode.FMAX: max,
}

_BRANCH_OPS = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: a < b,
    Opcode.BGE: lambda a, b: a >= b,
}


# -- generic opcode handlers -------------------------------------------------
# One handler per opcode, generated from the per-family operator tables.
# Each takes (core, instr), appends the instruction's sparse trace rows to
# ``core._cols``, and returns the next pc.  Every produced value passes
# through the core's fault surface.

def _make_int3(op_fn):
    def handler(core: FunctionalCore, instr: Instruction) -> int:
        regs = core.regs
        ints = regs.ints
        regs.write_int(
            instr.rd,
            core._alu(_INT_ALU, op_fn(ints[instr.rs1], ints[instr.rs2])),
        )
        return core.pc + 1
    return handler


def _make_imm(op_fn):
    def handler(core: FunctionalCore, instr: Instruction) -> int:
        regs = core.regs
        regs.write_int(
            instr.rd,
            core._alu(_INT_ALU, op_fn(regs.ints[instr.rs1], instr.imm)),
        )
        return core.pc + 1
    return handler


def _make_fp3(op_fn):
    def handler(core: FunctionalCore, instr: Instruction) -> int:
        regs = core.regs
        fps = regs.fps
        regs.write_fp(
            instr.rd,
            core._fpu(FUKind.FP, op_fn(fps[instr.rs1], fps[instr.rs2])),
        )
        return core.pc + 1
    return handler


def _make_branch(cmp_fn):
    def handler(core: FunctionalCore, instr: Instruction) -> int:
        ints = core.regs.ints
        taken = cmp_fn(to_signed(ints[instr.rs1]), to_signed(ints[instr.rs2]))
        # The branch ALU computes the condition; a fault can flip it.
        cond = core._alu(FUKind.BRANCH, 1 if taken else 0) & 1
        if cond:
            core._cols.br(True, instr.target)
            return instr.target
        next_pc = core.pc + 1
        core._cols.br(False, next_pc)
        return next_pc
    return handler


def _h_mul(core: FunctionalCore, instr: Instruction) -> int:
    ints = core.regs.ints
    v = ints[instr.rs1] * ints[instr.rs2]
    core.regs.write_int(instr.rd, core._alu(FUKind.INT_MUL, v))
    return core.pc + 1


def _h_div(core: FunctionalCore, instr: Instruction) -> int:
    ints = core.regs.ints
    a = to_signed(ints[instr.rs1])
    b = to_signed(ints[instr.rs2])
    if b == 0:
        v = -1
    else:
        v = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            v = -v
    core.regs.write_int(instr.rd, core._alu(FUKind.INT_DIV, v))
    return core.pc + 1


def _h_rem(core: FunctionalCore, instr: Instruction) -> int:
    ints = core.regs.ints
    a = to_signed(ints[instr.rs1])
    b = to_signed(ints[instr.rs2])
    if b == 0:
        v = a
    else:
        v = abs(a) % abs(b)
        if a < 0:
            v = -v
    core.regs.write_int(instr.rd, core._alu(FUKind.INT_DIV, v))
    return core.pc + 1


def _h_lui(core: FunctionalCore, instr: Instruction) -> int:
    core.regs.write_int(instr.rd, core._alu(_INT_ALU, instr.imm))
    return core.pc + 1


def _h_mov(core: FunctionalCore, instr: Instruction) -> int:
    regs = core.regs
    regs.write_int(instr.rd, core._alu(_INT_ALU, regs.ints[instr.rs1]))
    return core.pc + 1


def _h_fdiv(core: FunctionalCore, instr: Instruction) -> int:
    fps = core.regs.fps
    a = fps[instr.rs1]
    b = fps[instr.rs2]
    if b == 0.0:
        v = float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")
    else:
        v = a / b
    core.regs.write_fp(instr.rd, core._fpu(FUKind.FP_DIV, v))
    return core.pc + 1


def _h_fsqrt(core: FunctionalCore, instr: Instruction) -> int:
    a = core.regs.fps[instr.rs1]
    v = a ** 0.5 if a >= 0.0 else float("nan")
    core.regs.write_fp(instr.rd, core._fpu(FUKind.FP_DIV, v))
    return core.pc + 1


def _h_fcvt_if(core: FunctionalCore, instr: Instruction) -> int:
    v = float(to_signed(core.regs.ints[instr.rs1]))
    core.regs.write_fp(instr.rd, core._fpu(FUKind.FP, v))
    return core.pc + 1


def _h_fcvt_fi(core: FunctionalCore, instr: Instruction) -> int:
    f = core.regs.fps[instr.rs1]
    if f != f:  # NaN
        v = 0
    elif f >= (1 << 63):  # +inf and out-of-range clamp high
        v = (1 << 63) - 1
    elif f < -(1 << 63):  # -inf and out-of-range clamp low
        v = -(1 << 63)
    else:
        v = int(f)
    core.regs.write_int(instr.rd, core._alu(FUKind.FP, v))
    return core.pc + 1


def _h_fmov(core: FunctionalCore, instr: Instruction) -> int:
    regs = core.regs
    regs.write_fp(instr.rd, core._fpu(FUKind.FP, regs.fps[instr.rs1]))
    return core.pc + 1


def _h_ld(core: FunctionalCore, instr: Instruction) -> int:
    regs = core.regs
    addr = core._mem_addr(FUKind.LOAD, regs.ints[instr.rs1] + instr.imm)
    size = instr.size
    value = core._load(addr, size)
    # Loaded data is ECC-protected on its way into the load queue
    # (section IV-C), so it does not pass through the fault surface.
    if size == 8:
        regs.write_int(instr.rd, value)
    else:
        regs.write_int(instr.rd, value & ((1 << (size * 8)) - 1))
    core._cols.mem(addr, -1, size, value, None, None, None)
    return core.pc + 1


def _h_st(core: FunctionalCore, instr: Instruction) -> int:
    regs = core.regs
    addr = core._mem_addr(FUKind.STORE, regs.ints[instr.rs1] + instr.imm)
    size = instr.size
    value = regs.ints[instr.rs2]
    core._store(addr, size, value)
    core._cols.mem(addr, -1, size, None, None,
                   value & ((1 << (size * 8)) - 1), None)
    return core.pc + 1


def _h_ldg(core: FunctionalCore, instr: Instruction) -> int:
    regs = core.regs
    addr1 = core._mem_addr(FUKind.LOAD, regs.ints[instr.rs1])
    addr2 = core._mem_addr(FUKind.LOAD, regs.ints[instr.rs2])
    v1 = core._load(addr1, 8)
    v2 = core._load(addr2, 8)
    regs.write_int(instr.rd, v1)
    regs.write_int(instr.rd2, v2)
    core._cols.mem(addr1, addr2, 8, v1, v2, None, None)
    return core.pc + 1


def _h_sts(core: FunctionalCore, instr: Instruction) -> int:
    regs = core.regs
    addr1 = core._mem_addr(FUKind.STORE, regs.ints[instr.rs1])
    addr2 = core._mem_addr(FUKind.STORE, regs.ints[instr.rs2])
    value = regs.ints[instr.rs3]
    core._store(addr1, 8, value)
    core._store(addr2, 8, value)
    core._cols.mem(addr1, addr2, 8, None, None, value, None)
    return core.pc + 1


def _h_swp(core: FunctionalCore, instr: Instruction) -> int:
    regs = core.regs
    addr = core._mem_addr(FUKind.LOAD, regs.ints[instr.rs1])
    new = regs.ints[instr.rs2]
    old = core._swap(addr, 8, new)
    regs.write_int(instr.rd, old)
    core._cols.mem(addr, -1, 8, old, None, new, None)
    return core.pc + 1


def _h_bcopy(core: FunctionalCore, instr: Instruction) -> int:
    regs = core.regs
    words = max(1, min(instr.imm, 32))
    src = core._mem_addr(FUKind.LOAD, regs.ints[instr.rs1])
    dst = core._mem_addr(FUKind.STORE, regs.ints[instr.rs2])
    values = core._bulk_copy(src, dst, words)
    core._cols.mem_bulk(src, dst, values)
    return core.pc + 1


def _h_sc(core: FunctionalCore, instr: Instruction) -> int:
    regs = core.regs
    addr = core._mem_addr(FUKind.STORE, regs.ints[instr.rs1])
    success = core.nonrep.sc_success() & 1
    stored = None
    if success:
        stored = regs.ints[instr.rs2]
        core._store(addr, 8, stored)
    regs.write_int(instr.rd, success)
    core._cols.mem(addr, -1, 8, None, None, stored, success)
    return core.pc + 1


def _h_rdrand(core: FunctionalCore, instr: Instruction) -> int:
    v = core.nonrep.rdrand()
    core.regs.write_int(instr.rd, v)
    core._cols.mem(-1, -1, 0, None, None, None, v)
    return core.pc + 1


def _h_rdtime(core: FunctionalCore, instr: Instruction) -> int:
    v = core.nonrep.rdtime(core.committed)
    core.regs.write_int(instr.rd, v)
    core._cols.mem(-1, -1, 0, None, None, None, v)
    return core.pc + 1


def _h_sysrd(core: FunctionalCore, instr: Instruction) -> int:
    v = core.nonrep.sysrd()
    core.regs.write_int(instr.rd, v)
    core._cols.mem(-1, -1, 0, None, None, None, v)
    return core.pc + 1


def _h_jmp(core: FunctionalCore, instr: Instruction) -> int:
    # Statically taken; reconstructed from the program, no branch row.
    return instr.target


def _h_jalr(core: FunctionalCore, instr: Instruction) -> int:
    target = core._alu(FUKind.BRANCH, core.regs.ints[instr.rs1])
    pc = core.pc
    core.regs.write_int(instr.rd, pc + 1)
    if not 0 <= target < len(core.program.instructions):
        raise ControlFlowEscape(
            f"jalr to {target} at pc={pc} "
            f"(program has {len(core.program.instructions)} instructions)"
        )
    core._cols.br(True, target)
    return target


def _h_nop(core: FunctionalCore, instr: Instruction) -> int:
    return core.pc + 1


def _h_halt(core: FunctionalCore, instr: Instruction) -> int:
    core.halted = True
    return core.pc


_HANDLERS = {
    **{op: _make_int3(fn) for op, fn in _INT3_OPS.items()},
    **{op: _make_imm(fn) for op, fn in _IMM_OPS.items()},
    **{op: _make_fp3(fn) for op, fn in _FP3_OPS.items()},
    **{op: _make_branch(fn) for op, fn in _BRANCH_OPS.items()},
    Opcode.MUL: _h_mul,
    Opcode.DIV: _h_div,
    Opcode.REM: _h_rem,
    Opcode.LUI: _h_lui,
    Opcode.MOV: _h_mov,
    Opcode.FDIV: _h_fdiv,
    Opcode.FSQRT: _h_fsqrt,
    Opcode.FCVTIF: _h_fcvt_if,
    Opcode.FCVTFI: _h_fcvt_fi,
    Opcode.FMOV: _h_fmov,
    Opcode.LD: _h_ld,
    Opcode.ST: _h_st,
    Opcode.LDG: _h_ldg,
    Opcode.STS: _h_sts,
    Opcode.SWP: _h_swp,
    Opcode.BCOPY: _h_bcopy,
    Opcode.SC: _h_sc,
    Opcode.RDRAND: _h_rdrand,
    Opcode.RDTIME: _h_rdtime,
    Opcode.SYSRD: _h_sysrd,
    Opcode.JMP: _h_jmp,
    Opcode.JALR: _h_jalr,
    Opcode.NOP: _h_nop,
    Opcode.HALT: _h_halt,
}


# -- per-pc fast handlers (healthy, single-unit cores) -----------------------
# Built once per program by _fast_tables.  Register indices, immediates,
# masks and successors are bound at build time; the fault surface and unit
# round-robin are skipped (identities under NoFaults + single units), and
# destination-x0 writes are elided (write_int discards them anyway).

def _f_nop(nxt):
    def handler(core):
        return nxt
    return handler


def _build_fast(pc, instr, n_instructions):
    op = instr.op
    nxt = pc + 1
    rd = instr.rd
    rs1 = instr.rs1
    rs2 = instr.rs2

    if op in _INT3_OPS:
        if rd == 0:
            return _f_nop(nxt)

        def h_int3(core, rd=rd, rs1=rs1, rs2=rs2, fn=_INT3_OPS[op], nxt=nxt):
            ints = core.regs.ints
            ints[rd] = fn(ints[rs1], ints[rs2]) & _MASK64
            return nxt
        return h_int3

    if op in _IMM_OPS:
        if rd == 0:
            return _f_nop(nxt)

        def h_imm(core, rd=rd, rs1=rs1, imm=instr.imm, fn=_IMM_OPS[op],
                  nxt=nxt):
            ints = core.regs.ints
            ints[rd] = fn(ints[rs1], imm) & _MASK64
            return nxt
        return h_imm

    if op in _FP3_OPS:
        def h_fp3(core, rd=rd, rs1=rs1, rs2=rs2, fn=_FP3_OPS[op], nxt=nxt):
            fps = core.regs.fps
            fps[rd] = fn(fps[rs1], fps[rs2])
            return nxt
        return h_fp3

    if op in _BRANCH_OPS:
        target = instr.target
        if op is Opcode.BEQ:
            def h_beq(core, rs1=rs1, rs2=rs2, target=target, nxt=nxt):
                ints = core.regs.ints
                if ints[rs1] == ints[rs2]:
                    core._cols.br(True, target)
                    return target
                core._cols.br(False, nxt)
                return nxt
            return h_beq
        if op is Opcode.BNE:
            def h_bne(core, rs1=rs1, rs2=rs2, target=target, nxt=nxt):
                ints = core.regs.ints
                if ints[rs1] != ints[rs2]:
                    core._cols.br(True, target)
                    return target
                core._cols.br(False, nxt)
                return nxt
            return h_bne

        def h_br(core, rs1=rs1, rs2=rs2, fn=_BRANCH_OPS[op], target=target,
                 nxt=nxt):
            ints = core.regs.ints
            if fn(to_signed(ints[rs1]), to_signed(ints[rs2])):
                core._cols.br(True, target)
                return target
            core._cols.br(False, nxt)
            return nxt
        return h_br

    if op is Opcode.MUL:
        if rd == 0:
            return _f_nop(nxt)

        def h_mul(core, rd=rd, rs1=rs1, rs2=rs2, nxt=nxt):
            ints = core.regs.ints
            ints[rd] = (ints[rs1] * ints[rs2]) & _MASK64
            return nxt
        return h_mul

    if op is Opcode.DIV:
        if rd == 0:
            return _f_nop(nxt)

        def h_div(core, rd=rd, rs1=rs1, rs2=rs2, nxt=nxt):
            ints = core.regs.ints
            a = to_signed(ints[rs1])
            b = to_signed(ints[rs2])
            if b == 0:
                v = -1
            else:
                v = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    v = -v
            ints[rd] = v & _MASK64
            return nxt
        return h_div

    if op is Opcode.REM:
        if rd == 0:
            return _f_nop(nxt)

        def h_rem(core, rd=rd, rs1=rs1, rs2=rs2, nxt=nxt):
            ints = core.regs.ints
            a = to_signed(ints[rs1])
            b = to_signed(ints[rs2])
            if b == 0:
                v = a
            else:
                v = abs(a) % abs(b)
                if a < 0:
                    v = -v
            ints[rd] = v & _MASK64
            return nxt
        return h_rem

    if op is Opcode.LUI:
        if rd == 0:
            return _f_nop(nxt)

        def h_lui(core, rd=rd, value=instr.imm & _MASK64, nxt=nxt):
            core.regs.ints[rd] = value
            return nxt
        return h_lui

    if op is Opcode.MOV:
        if rd == 0:
            return _f_nop(nxt)

        def h_mov(core, rd=rd, rs1=rs1, nxt=nxt):
            ints = core.regs.ints
            ints[rd] = ints[rs1]
            return nxt
        return h_mov

    if op is Opcode.FDIV:
        def h_fdiv(core, rd=rd, rs1=rs1, rs2=rs2, nxt=nxt):
            fps = core.regs.fps
            a = fps[rs1]
            b = fps[rs2]
            if b == 0.0:
                v = float("inf") if a > 0 \
                    else float("-inf") if a < 0 else float("nan")
            else:
                v = a / b
            fps[rd] = v
            return nxt
        return h_fdiv

    if op is Opcode.FSQRT:
        def h_fsqrt(core, rd=rd, rs1=rs1, nxt=nxt):
            fps = core.regs.fps
            a = fps[rs1]
            fps[rd] = a ** 0.5 if a >= 0.0 else float("nan")
            return nxt
        return h_fsqrt

    if op is Opcode.FCVTIF:
        def h_fcvt_if(core, rd=rd, rs1=rs1, nxt=nxt):
            regs = core.regs
            regs.fps[rd] = float(to_signed(regs.ints[rs1]))
            return nxt
        return h_fcvt_if

    if op is Opcode.FCVTFI:
        if rd == 0:
            return _f_nop(nxt)

        def h_fcvt_fi(core, rd=rd, rs1=rs1, nxt=nxt):
            regs = core.regs
            f = regs.fps[rs1]
            if f != f:  # NaN
                v = 0
            elif f >= (1 << 63):
                v = (1 << 63) - 1
            elif f < -(1 << 63):
                v = -(1 << 63)
            else:
                v = int(f)
            regs.ints[rd] = v & _MASK64
            return nxt
        return h_fcvt_fi

    if op is Opcode.FMOV:
        def h_fmov(core, rd=rd, rs1=rs1, nxt=nxt):
            fps = core.regs.fps
            fps[rd] = fps[rs1]
            return nxt
        return h_fmov

    if op is Opcode.LD:
        imm = instr.imm
        size = instr.size
        if size == 8:
            def h_ld8(core, rd=rd, rs1=rs1, imm=imm, nxt=nxt):
                regs = core.regs
                ints = regs.ints
                addr = (ints[rs1] + imm) & _MASK64
                value = core._load(addr, 8)
                if rd:
                    ints[rd] = value
                core._cols.mem(addr, -1, 8, value, None, None, None)
                return nxt
            return h_ld8

        def h_ld(core, rd=rd, rs1=rs1, imm=imm, size=size,
                 mask=(1 << (size * 8)) - 1, nxt=nxt):
            regs = core.regs
            ints = regs.ints
            addr = (ints[rs1] + imm) & _MASK64
            value = core._load(addr, size)
            if rd:
                ints[rd] = value & mask
            core._cols.mem(addr, -1, size, value, None, None, None)
            return nxt
        return h_ld

    if op is Opcode.ST:
        def h_st(core, rs1=rs1, rs2=rs2, imm=instr.imm, size=instr.size,
                 mask=(1 << (instr.size * 8)) - 1, nxt=nxt):
            ints = core.regs.ints
            addr = (ints[rs1] + imm) & _MASK64
            value = ints[rs2]
            core._store(addr, size, value)
            core._cols.mem(addr, -1, size, None, None, value & mask, None)
            return nxt
        return h_st

    if op is Opcode.LDG:
        def h_ldg(core, rd=rd, rd2=instr.rd2, rs1=rs1, rs2=rs2, nxt=nxt):
            ints = core.regs.ints
            addr1 = ints[rs1]
            addr2 = ints[rs2]
            v1 = core._load(addr1, 8)
            v2 = core._load(addr2, 8)
            if rd:
                ints[rd] = v1
            if rd2:
                ints[rd2] = v2
            core._cols.mem(addr1, addr2, 8, v1, v2, None, None)
            return nxt
        return h_ldg

    if op is Opcode.STS:
        def h_sts(core, rs1=rs1, rs2=rs2, rs3=instr.rs3, nxt=nxt):
            ints = core.regs.ints
            addr1 = ints[rs1]
            addr2 = ints[rs2]
            value = ints[rs3]
            core._store(addr1, 8, value)
            core._store(addr2, 8, value)
            core._cols.mem(addr1, addr2, 8, None, None, value, None)
            return nxt
        return h_sts

    if op is Opcode.SWP:
        def h_swp(core, rd=rd, rs1=rs1, rs2=rs2, nxt=nxt):
            ints = core.regs.ints
            addr = ints[rs1]
            new = ints[rs2]
            old = core._swap(addr, 8, new)
            if rd:
                ints[rd] = old
            core._cols.mem(addr, -1, 8, old, None, new, None)
            return nxt
        return h_swp

    if op is Opcode.BCOPY:
        def h_bcopy(core, rs1=rs1, rs2=rs2, words=max(1, min(instr.imm, 32)),
                    nxt=nxt):
            ints = core.regs.ints
            src = ints[rs1]
            dst = ints[rs2]
            values = core._bulk_copy(src, dst, words)
            core._cols.mem_bulk(src, dst, values)
            return nxt
        return h_bcopy

    if op is Opcode.SC:
        def h_sc(core, rd=rd, rs1=rs1, rs2=rs2, nxt=nxt):
            ints = core.regs.ints
            addr = ints[rs1]
            success = core.nonrep.sc_success() & 1
            stored = None
            if success:
                stored = ints[rs2]
                core._store(addr, 8, stored)
            if rd:
                ints[rd] = success
            core._cols.mem(addr, -1, 8, None, None, stored, success)
            return nxt
        return h_sc

    if op is Opcode.RDRAND:
        def h_rdrand(core, rd=rd, nxt=nxt):
            v = core.nonrep.rdrand()
            if rd:
                core.regs.ints[rd] = v & _MASK64
            core._cols.mem(-1, -1, 0, None, None, None, v)
            return nxt
        return h_rdrand

    if op is Opcode.RDTIME:
        def h_rdtime(core, rd=rd, nxt=nxt):
            v = core.nonrep.rdtime(core.committed)
            if rd:
                core.regs.ints[rd] = v & _MASK64
            core._cols.mem(-1, -1, 0, None, None, None, v)
            return nxt
        return h_rdtime

    if op is Opcode.SYSRD:
        def h_sysrd(core, rd=rd, nxt=nxt):
            v = core.nonrep.sysrd()
            if rd:
                core.regs.ints[rd] = v & _MASK64
            core._cols.mem(-1, -1, 0, None, None, None, v)
            return nxt
        return h_sysrd

    if op is Opcode.JMP:
        def h_jmp(core, target=instr.target):
            return target
        return h_jmp

    if op is Opcode.JALR:
        def h_jalr(core, rd=rd, rs1=rs1, pc=pc, nxt=nxt, n=n_instructions):
            ints = core.regs.ints
            target = ints[rs1]
            if rd:
                ints[rd] = nxt
            if not 0 <= target < n:
                raise ControlFlowEscape(
                    f"jalr to {target} at pc={pc} "
                    f"(program has {n} instructions)"
                )
            core._cols.br(True, target)
            return target
        return h_jalr

    if op is Opcode.NOP:
        return _f_nop(nxt)

    if op is Opcode.HALT:
        def h_halt(core, pc=pc):
            core.halted = True
            return pc
        return h_halt

    # Unknown / future opcode: fall back to the generic handler.
    def h_generic(core, fn=_HANDLERS[op], instr=instr):
        return fn(core, instr)
    return h_generic
