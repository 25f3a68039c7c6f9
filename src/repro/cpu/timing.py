"""Trace-driven, cycle-approximate core timing model.

One engine serves every core class in Table I, parameterised by
:class:`~repro.cpu.config.CoreConfig`:

* **out-of-order** (X2): instructions issue as soon as operands and a
  functional unit are available, within a ROB-sized window;
* **in-order** (A510, A35): issue is monotonic in program order, so a
  stalled instruction blocks the issue of everything behind it (completion
  may still overlap, as on the real cores).

Both respect fetch/commit width, per-class functional-unit counts and
initiation intervals, branch misprediction redirects (with a real
predictor model), instruction-cache misses, and MSHR-limited miss
overlap in the data cache.

``checker_mode`` models a ParaVerser checker core: loads and stores are
served by the Load-Store Log Cache at a fixed one-cycle latency — no data
cache misses and no data traffic to the shared LLC (paper section VII-A,
"Instruction Fetch") — while instruction fetch still uses the cache
hierarchy and can contend.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from heapq import heapreplace

from repro.cpu.branch import BranchPredictor
from repro.cpu.columns import TraceColumns
from repro.cpu.config import CoreConfig, CoreInstance, CoreKind
from repro.isa.instructions import FUKind, Instruction, Opcode
from repro.isa.program import Program
from repro.mem.dram import DramConfig
from repro.mem.hierarchy import MemoryHierarchy, SharedUncore
from repro.obs import StatGroup

_FP_BASE = 32  # fp register keys offset in the scoreboard

#: Scoreboard slots.  Real keys are 1..31 (int) and 33..63 (fp).  Key 0 is
#: x0: never written, so it reads as 0.0 forever and pads unused read
#: slots.  ``_DEAD_SLOT`` is never read and absorbs unused write slots.
_DEAD_SLOT = 64
_SCOREBOARD_SLOTS = 96

#: Dense functional-unit ids, so the hot loop indexes lists instead of
#: hashing FUKind enum members.
_FU_ORDER = list(FUKind)
_FU_INDEX = {kind: idx for idx, kind in enumerate(_FU_ORDER)}
_FU_NAMES = [kind.value for kind in _FU_ORDER]


def _compute_operands(instr: Instruction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Scoreboard keys read and written by ``instr`` (x0 excluded)."""
    op = instr.op
    spec = instr.spec
    reads: list[int] = []
    writes: list[int] = []
    if op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
        reads = [instr.rs1, instr.rs2]
    elif op is Opcode.JMP or op is Opcode.NOP or op is Opcode.HALT:
        pass
    elif op is Opcode.JALR:
        reads, writes = [instr.rs1], [instr.rd]
    elif op is Opcode.LD:
        reads, writes = [instr.rs1], [instr.rd]
    elif op is Opcode.ST:
        reads = [instr.rs1, instr.rs2]
    elif op is Opcode.LDG:
        reads, writes = [instr.rs1, instr.rs2], [instr.rd, instr.rd2]
    elif op is Opcode.STS:
        reads = [instr.rs1, instr.rs2, instr.rs3]
    elif op is Opcode.SWP:
        reads, writes = [instr.rs1, instr.rs2], [instr.rd]
    elif op is Opcode.SC:
        reads, writes = [instr.rs1, instr.rs2], [instr.rd]
    elif op in (Opcode.RDRAND, Opcode.RDTIME, Opcode.SYSRD):
        writes = [instr.rd]
    elif op is Opcode.LUI:
        writes = [instr.rd]
    elif op in (Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
                Opcode.SLLI, Opcode.SRLI, Opcode.MOV):
        reads, writes = [instr.rs1], [instr.rd]
    elif op is Opcode.FSQRT or op is Opcode.FMOV:
        reads = [_FP_BASE + instr.rs1]
        writes = [_FP_BASE + instr.rd]
    elif op is Opcode.FCVTIF:
        reads, writes = [instr.rs1], [_FP_BASE + instr.rd]
    elif op is Opcode.FCVTFI:
        reads, writes = [_FP_BASE + instr.rs1], [instr.rd]
    elif spec.is_fp:
        reads = [_FP_BASE + instr.rs1, _FP_BASE + instr.rs2]
        writes = [_FP_BASE + instr.rd]
    else:  # three-register integer ops
        reads, writes = [instr.rs1, instr.rs2], [instr.rd]
    reads_t = tuple(r for r in reads if r != 0)
    writes_t = tuple(w for w in writes if w != 0)
    return reads_t, writes_t


#: ``branch_kind`` codes in the per-program static metadata.
_NOT_BRANCH, _COND_BRANCH, _JMP, _JALR = 0, 1, 2, 3

#: ``mem_kind`` bit flags: what the memory stage must do for this opcode.
#: ``_MEM_NONREP`` marks non-repeatable reads that emit a trace mem-row
#: carrying no timing information (RDRAND/RDTIME/SYSRD), so the replay
#: loop advances the row pointer without touching the cache model.
_MEM_LOAD, _MEM_STORE, _MEM_BCOPY, _MEM_STS, _MEM_NONREP = 1, 2, 4, 8, 16


def _program_metadata(program: Program) -> list[tuple]:
    """Per-pc static timing metadata, computed once per program.

    Everything ``simulate`` needs per dynamic instruction that only
    depends on the static instruction — scoreboard operands, FU class,
    load/store/branch kind, fetch address — is precomputed here and
    cached on the program object, so it is shared across every timing
    model (baseline, checked main, every checker class, every
    configuration of a sweep) that replays the same program.
    """
    meta = getattr(program, "_timing_metadata", None)
    if meta is None:
        meta = []
        for pc, instr in enumerate(program.instructions):
            spec = instr.spec
            op = instr.op
            reads, writes = _compute_operands(instr)
            if not spec.is_branch:
                branch_kind = _NOT_BRANCH
            elif op is Opcode.JALR:
                branch_kind = _JALR
            elif op is Opcode.JMP:
                branch_kind = _JMP
            else:
                branch_kind = _COND_BRANCH
            if len(reads) > 3 or len(writes) > 2:
                raise AssertionError(f"operand arity overflow at pc {pc}")
            r1, r2, r3 = (reads + (0, 0, 0))[:3]
            w1, w2 = (writes + (_DEAD_SLOT, _DEAD_SLOT))[:2]
            fetch_addr = program.fetch_address(pc)
            mem_kind = 0
            if spec.is_load:
                mem_kind |= _MEM_LOAD
            if spec.is_store:
                mem_kind |= _MEM_STORE
            if op is Opcode.BCOPY:
                mem_kind |= _MEM_BCOPY
            if op is Opcode.STS:
                mem_kind |= _MEM_STS
            if spec.is_nonrepeatable and not mem_kind:
                mem_kind = _MEM_NONREP
            meta.append((
                _FU_INDEX[spec.fu], r1, r2, r3, w1, w2, mem_kind,
                branch_kind, fetch_addr >> 6, fetch_addr,
                # JMPs redirect statically; precompute whether the target
                # leaves the fall-through fetch line.
                branch_kind == _JMP and instr.target != pc + 1,
            ))
        program._timing_metadata = meta
    return meta


@dataclass
class TimingResult:
    """Cycle/latency outcome of one trace replay on one core instance."""

    label: str
    instructions: int
    cycles: float
    freq_ghz: float
    mispredicts: int = 0
    icache_misses: int = 0
    loads: int = 0
    stores: int = 0
    level_counts: dict[str, int] = field(default_factory=dict)
    llc_accesses: int = 0
    dram_accesses: int = 0
    boundary_cycles: list[float] = field(default_factory=list)
    #: > 1 when the DRAM bandwidth floor bound the run (time was dilated).
    floor_scale: float = 1.0
    #: Instructions issued per functional-unit class.
    fu_issue_counts: dict[str, int] = field(default_factory=dict)
    #: Busy cycles per functional-unit class (issue intervals summed).
    fu_busy_cycles: dict[str, float] = field(default_factory=dict)

    @property
    def time_ns(self) -> float:
        return self.cycles / self.freq_ghz

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def boundary_times_ns(self) -> list[float]:
        return [c / self.freq_ghz for c in self.boundary_cycles]

    def export_stats(self, group,
                     config: CoreConfig | None = None) -> None:
        """Publish this run's counters into an obs StatGroup.

        This is the canonical statistics surface for a timing run; the
        textual dump (:func:`format_stats`) and the ``--stats-json`` tree
        are both rendered from it.  ``config`` enables the per-FU
        utilisation gauges (busy cycles over ``cycles * units``).
        """
        group.scalar("cycles", self.cycles)
        group.scalar("freq_ghz", self.freq_ghz)
        group.count("instructions", self.instructions)
        group.scalar("ipc", self.ipc)
        group.scalar("time_ns", self.time_ns)
        group.count("branch_mispredicts", self.mispredicts)
        group.count("icache_misses", self.icache_misses)
        group.count("loads", self.loads)
        group.count("stores", self.stores)
        group.count("llc_accesses", self.llc_accesses)
        group.count("dram_accesses", self.dram_accesses)
        group.scalar("dram_floor_scale", self.floor_scale,
                     "> 1 when the DRAM bandwidth floor dilated time")
        hits = group.group("data_hits_by_level")
        for level, count in sorted(self.level_counts.items()):
            hits.count(level, count)
        fus = group.group("fu")
        for name in sorted(self.fu_issue_counts):
            fu_group = fus.group(name)
            fu_group.count("issued", self.fu_issue_counts[name])
            busy = self.fu_busy_cycles.get(name, 0.0)
            fu_group.scalar("busy_cycles", busy)
            fu = config.fus.get(FUKind(name)) if config else None
            if fu and self.cycles:
                fu_group.scalar("utilisation",
                                busy / (self.cycles * fu.units))


def format_stats(result: TimingResult, config: CoreConfig) -> str:
    """gem5-style statistics dump for one timing run.

    Rendered from the :meth:`TimingResult.export_stats` tree so the text
    dump and ``--stats-json`` can never disagree.
    """
    stats = StatGroup("timing")
    result.export_stats(stats, config)
    flat = stats.flatten()
    lines = [
        f"simTicks        {flat['cycles']:.0f} cycles "
        f"@ {flat['freq_ghz']} GHz",
        f"simInsts        {flat['instructions']}",
        f"ipc             {flat['ipc']:.4f}",
        f"timeNs          {flat['time_ns']:.1f}",
        f"branchMispred   {flat['branch_mispredicts']}",
        f"icacheMisses    {flat['icache_misses']}",
        f"loads           {flat['loads']}",
        f"stores          {flat['stores']}",
        f"llcAccesses     {flat['llc_accesses']}",
        f"dramAccesses    {flat['dram_accesses']}",
    ]
    hits = stats["data_hits_by_level"]
    for level, _ in hits.items():
        lines.append(f"dataHits.{level:6s} {hits[level].to_value()}")
    for name, fu_group in stats["fu"].items():
        issued = fu_group["issued"].to_value()
        busy = fu_group["busy_cycles"].to_value()
        util = (fu_group["utilisation"].to_value()
                if "utilisation" in fu_group else 0.0)
        lines.append(f"fu.{name:10s} issued {issued:8d}  "
                     f"busy {busy:10.0f} cyc  util {util:6.1%}")
    if flat["dram_floor_scale"] > 1.0:
        lines.append("dramBandwidthFloor dilated time "
                     f"x{flat['dram_floor_scale']:.2f}")
    return "\n".join(lines)


#: Cache levels as event codes, nearest first.
_LEVEL_CODE = {"l1": 0, "l2": 1, "l3": 2, "dram": 3}

#: Event byte, one per committed instruction:
#: bits 0-1 the fetch-miss level (0: no fetch penalty), bits 2-3 the
#: level of a demand load's first address, bits 4-6 one plus the level of
#: its second address (0: none), bit 7 a branch misprediction.
_FETCH_MASK = 3
_MISPREDICT = 128


@dataclass(eq=False)
class TimingEvents:
    """One trace's walk through one warmed core's caches and predictor.

    Fixed by the trace, the core's hierarchy and predictor, checker mode
    and the uncore partition; frequency, boundaries and the NoC's extra
    LLC latency enter only :func:`replay`.  Holds no cache or predictor
    object: the event column is one byte per instruction.
    """

    program: Program
    pcs: list[int]
    checker_mode: bool
    codes: bytearray
    #: BCOPY index -> (word count, level codes touched); no levels on a
    #: checker, whose copies hit the LSL$.
    bcopies: dict[int, tuple[int, tuple[int, ...]]]
    mispredicts: int
    icache_misses: int
    loads: int
    stores: int
    level_counts: dict[str, int]
    llc_accesses: int
    dram_accesses: int
    #: ``(fu_id, issued)`` in first-issue order.
    fu_counts: list[tuple[int, int]]
    #: The uncore's L3 hit and unloaded DRAM latencies.
    l3_ns: float
    dram_ns: float
    dram: DramConfig
    #: Snapshot of the ``caches`` and ``uncore`` stat groups after the walk.
    hierarchy_stats: StatGroup

    def export_stats(self, group, extra_llc_ns: float) -> None:
        """Publish the walk's cache and uncore counters into ``group``."""
        group.merge(self.hierarchy_stats)
        group.group("uncore").scalar("extra_llc_latency_ns", extra_llc_ns)


class TimingModel:
    """Replays a commit trace against one core instance."""

    #: LSL$ access latency in cycles for checker-mode loads/stores
    #: (direct indexing, no tag comparison — paper section IV-B).
    LSL_LATENCY = 1

    def __init__(
        self,
        instance: CoreInstance,
        uncore: SharedUncore | None = None,
        checker_mode: bool = False,
    ) -> None:
        self.instance = instance
        self.config: CoreConfig = instance.config
        self.freq = instance.freq_ghz
        self.checker_mode = checker_mode
        self.hierarchy = MemoryHierarchy(self.config.hierarchy, uncore)
        self.predictor = BranchPredictor(self.config.predictor_kib)
        #: Per-PC stride prefetcher state: pc -> [last_addr, stride, confidence].
        self._prefetch: dict[int, list[int]] = {}
        self.prefetches_issued = 0
        #: The latest :meth:`simulate`'s events, for ``replay`` to reuse.
        self.last_events: TimingEvents | None = None

    #: Prefetch distance in strides once a pattern is confirmed.
    PREFETCH_DISTANCE = 4

    def _prefetch_data(self, pc: int, addr: int) -> None:
        """Per-PC stride prefetcher (all Table I cores have one).

        Confirmed strides pull ``PREFETCH_DISTANCE`` strides ahead into the
        cache hierarchy, converting streaming misses into hits — without
        this, streaming workloads (lbm, fotonik3d, bwaves) would be
        latency-bound instead of bandwidth-bound.
        """
        state = self._prefetch.get(pc)
        if state is None:
            self._prefetch[pc] = [addr, 0, 0]
            return
        stride = addr - state[0]
        if stride != 0 and stride == state[1]:
            state[2] += 1
        else:
            state[1] = stride
            state[2] = 0
        state[0] = addr
        if state[2] >= 2 and state[1] != 0:
            target = addr + state[1] * self.PREFETCH_DISTANCE
            if (target ^ addr) >> 6:  # only when it lands on another line
                self.hierarchy.data_access_fast(target, self.freq)
                self.prefetches_issued += 1

    def warm_data(self, addresses) -> None:
        """Functionally warm the data-cache hierarchy (gem5-style).

        The paper fast-forwards 10 B instructions before measuring; we
        instead prime the caches with the workload's resident data
        (pointer-chase rings, seeded working-set pages) so steady-state
        locality is visible from the first measured instruction.
        """
        for addr in addresses:
            self.hierarchy.data_access_fast(addr, self.freq)
        self.hierarchy.reset_stats()
        self.hierarchy.uncore.reset_stats()

    def warm_code(self, program: Program) -> None:
        """Functionally warm the instruction-cache path.

        Checker cores in steady state have run many prior segments of the
        same code; without this, a short simulation charges every checker
        a cold icache that the paper's fast-forwarded runs would not see.
        """
        base = program.fetch_address(0)
        # One extra line: the next-line prefetcher reaches past the end.
        end = program.fetch_address(len(program.instructions)) + 64
        for addr in range(base, end, 64):
            self.hierarchy.fetch_access_fast(addr, self.freq)
        self.hierarchy.reset_stats()
        self.hierarchy.uncore.reset_stats()

    def simulate(
        self,
        program: Program,
        trace: TraceColumns,
        boundaries: list[int] | None = None,
        checkpoint_overhead: bool = False,
    ) -> TimingResult:
        """Time ``trace``: :meth:`events` from this model's state, then
        :func:`replay`.  ``boundaries`` is a sorted list of *end-exclusive* instruction
        indices; the cumulative commit cycle at each boundary is reported in
        ``boundary_cycles``.  With ``checkpoint_overhead``, the RCU's
        register-file copy latency is charged at every boundary (this is the
        main-core cost the paper measures under "Register Checkpointing").
        """
        self.last_events = self.events(program, trace)
        return replay(self.last_events, self.instance,
                      self.hierarchy.uncore.extra_llc_latency_ns,
                      boundaries, checkpoint_overhead)

    def events(self, program: Program, trace: TraceColumns) -> TimingEvents:
        """Walk ``trace`` through this model's caches, stride prefetcher,
        branch predictor and fetch path, from their current state.

        Computes no timing: which level served each fetch miss and demand
        load, which branches mispredicted, and the counters the timing
        result reports.
        """
        freq = self.freq
        hier = self.hierarchy
        uncore = hier.uncore
        checker = self.checker_mode
        llc_before = uncore.llc_accesses
        dram_before = uncore.dram.accesses
        fetch_access = hier.fetch_access_fast
        data_access = hier.data_access_fast
        predict_conditional = self.predictor.predict_conditional
        predict_indirect = self.predictor.predict_indirect
        prefetch = self._prefetch_data
        level_code = _LEVEL_CODE

        meta = _program_metadata(program)
        pcs = trace.pcs
        codes = bytearray(len(pcs))
        bcopies: dict[int, tuple[int, tuple[int, ...]]] = {}
        # Sentinel row: index -2 never matches, so the row-pointer test
        # needs no bounds check.  (Copies the list; the trace is shared.)
        mem_rows = trace.mem_rows + [(-2, -1, -1, 0, None, None, None, None)]
        br_rows = trace.br_rows
        bulks = trace.bulks
        mp = bp = mispredicts = icache_misses = loads = stores = 0
        last_fetch_line = -1

        for i, pc in enumerate(pcs):
            (_, _, _, _, _, _, mem_kind, branch_kind, fetch_line,
             fetch_addr, jmp_redirect) = meta[pc]
            code = 0
            if fetch_line != last_fetch_line:
                last_fetch_line = fetch_line
                level = fetch_access(fetch_addr, freq)[1]
                if level != "l1":
                    icache_misses += 1
                    code = level_code[level]
                # Next-line instruction prefetch (sequential streams hit).
                fetch_access(fetch_addr + 64, freq)

            if mem_kind:
                row = mem_rows[mp]
                if row[0] == i:
                    mp += 1
                    addr = row[1]
                    addr2 = row[2]
                else:
                    addr = addr2 = -1
                if mem_kind & _MEM_BCOPY \
                        and (bulk := bulks.get(i)) is not None:
                    # Microcoded bulk copy: touches source and
                    # destination lines, one word per cycle.
                    words = len(bulk)
                    loads += words
                    stores += words
                    levels = () if checker else tuple(sorted({
                        level_code[data_access(base + off, freq)[1]]
                        for base in (addr, addr2)
                        for off in range(0, words * 8, 64)}))
                    bcopies[i] = (words, levels)
                elif mem_kind != _MEM_NONREP:  # those rows carry no timing
                    if mem_kind & _MEM_LOAD:
                        loads += 1
                        if addr2 >= 0:
                            loads += 1
                    if mem_kind & _MEM_STORE:
                        stores += 1
                        if addr2 >= 0 and mem_kind & _MEM_STS:
                            stores += 1
                    # A checker's LSL$ serves these: no cache traffic.
                    if not checker and mem_kind & _MEM_LOAD:
                        prefetch(pc, addr)
                        code |= level_code[data_access(addr, freq)[1]] << 2
                        if addr2 >= 0:
                            code |= (level_code[data_access(addr2, freq)[1]]
                                     + 1) << 4
                    elif not checker:
                        # Stores retire through the store buffer:
                        # residency and stats only.
                        data_access(addr, freq)
                        if addr2 >= 0:
                            data_access(addr2, freq)

            if branch_kind:
                if branch_kind == _JMP:
                    # Always predicted correctly; static redirect only.
                    if jmp_redirect:
                        last_fetch_line = -1
                else:
                    row = br_rows[bp]
                    bp += 1
                    next_pc = row[1]
                    if branch_kind == _JALR:
                        correct = predict_indirect(pc, next_pc)
                    else:
                        correct = predict_conditional(pc, row[2])
                    if not correct:
                        mispredicts += 1
                        code |= _MISPREDICT
                    # Any taken control flow changes the fetch line.
                    if next_pc != pc + 1:
                        last_fetch_line = -1
            if code:
                codes[i] = code

        hierarchy_stats = StatGroup()
        hier.export_stats(hierarchy_stats.group("caches"))
        uncore.export_stats(hierarchy_stats.group("uncore"))
        fu_ids = [m[0] for m in meta]
        return TimingEvents(
            program=program,
            pcs=pcs,
            checker_mode=checker,
            codes=codes,
            bcopies=bcopies,
            mispredicts=mispredicts,
            icache_misses=icache_misses,
            loads=loads,
            stores=stores,
            level_counts=dict(hier.level_counts),
            llc_accesses=uncore.llc_accesses - llc_before,
            dram_accesses=uncore.dram.accesses - dram_before,
            fu_counts=list(Counter(map(fu_ids.__getitem__, pcs)).items()),
            l3_ns=uncore.l3_hit_latency_ns(),
            dram_ns=uncore.dram.latency_ns(),
            dram=uncore.dram.config,
            hierarchy_stats=hierarchy_stats,
        )


def replay(
    events: TimingEvents,
    instance: CoreInstance,
    extra_llc_ns: float = 0.0,
    boundaries: list[int] | None = None,
    checkpoint_overhead: bool = False,
) -> TimingResult:
    """Time ``instance`` over a trace's cache and predictor events.

    The dispatch/ROB/scoreboard/FU/MSHR/commit recurrence of
    :meth:`TimingModel.simulate`.  Per-level latencies are computed once
    here, with the same float expressions as
    :meth:`~repro.mem.hierarchy.MemoryHierarchy.data_access_fast` and
    ``fetch_access_fast`` plus the NoC's ``extra_llc_ns``, so one event
    stream serves every frequency, boundary set and NoC estimate.
    """
    config = instance.config
    freq = instance.freq_ghz
    in_order = config.kind is CoreKind.IN_ORDER
    width_step = 1.0 / config.width
    commit_step = 1.0 / config.commit_width
    window = config.rob_size
    penalty = config.mispredict_penalty
    checker = events.checker_mode
    lsl_latency = TimingModel.LSL_LATENCY

    hierarchy = config.hierarchy
    l2_ns = hierarchy.l2.hit_latency / freq
    l3_ns = events.l3_ns + extra_llc_ns
    dram_ns = l3_ns + events.dram_ns

    def level_ns(l1_cycles: int) -> list[float]:
        near = l1_cycles / freq
        far = near + l2_ns
        return [near, far, far + l3_ns, far + dram_ns]

    l1i_hit_cycles = hierarchy.l1i.hit_latency
    fetch_penalty = [ns * freq - l1i_hit_cycles
                     for ns in level_ns(l1i_hit_cycles)]
    data_ns = level_ns(hierarchy.l1d.hit_latency)
    # Event bits 2-6 -> (demand cycles, missed L1).
    load_cycles = []
    for key in range(20):
        mem_cycles = data_ns[key & 3] * freq
        if key >> 2:
            mem_cycles = max(mem_cycles, data_ns[(key >> 2) - 1] * freq)
        load_cycles.append((mem_cycles, key & 3 != 0))

    fu_info: list = [None] * len(_FU_ORDER)
    for kind, fu in config.fus.items():
        # (free-time heap, latency, interval, single-unit)
        fu_info[_FU_INDEX[kind]] = ([0.0] * fu.units, fu.latency,
                                    fu.interval, fu.units == 1)
    mshrs = [0.0] * hierarchy.l1d.mshrs
    # Scoreboard: int keys 1..31, fp keys _FP_BASE+1.., dense list.
    ready: list[float] = [0.0] * _SCOREBOARD_SLOTS
    rob: list[float] = [0.0] * window  # ring buffer of commit cycles
    rob_pos = 0

    fetch_cycle = 0.0
    last_issue = 0.0
    last_commit = 0.0
    #: Per-FU busy cycles beyond ``count * interval`` (BCOPY stretches
    #: its initiation interval to the word count).
    extra_busy: dict[int, int] = {}

    boundary_iter = iter(boundaries or [])
    # Compare against ``i`` directly (boundaries are end-exclusive, so
    # subtract one); 0 - 1 == -1 never matches an index.
    next_boundary = next(boundary_iter, 0) - 1
    boundary_cycles: list[float] = []

    meta = _program_metadata(events.program)
    codes = events.codes
    bcopies = events.bcopies

    for i, pc in enumerate(events.pcs):
        fu_id, r1, r2, r3, w1, w2, mem_kind, _, _, _, _ = meta[pc]
        code = codes[i]

        # -- fetch / dispatch ----------------------------------------
        if code & _FETCH_MASK:
            fetch_cycle += fetch_penalty[code & _FETCH_MASK]
        disp = fetch_cycle
        fetch_cycle += width_step
        # Window limit: the i-th instruction cannot dispatch before the
        # (i - window)-th commits.
        oldest = rob[rob_pos]
        if oldest > disp:
            disp = oldest
        # Out-of-order cores never update last_issue, so it stays 0.0
        # and this test is always false for them.
        if last_issue > disp:
            disp = last_issue

        # -- register dependencies -----------------------------------
        # Unused read slots hold key 0 (x0), pinned at 0.0 <= disp.
        t_ready = disp
        t = ready[r1]
        if t > t_ready:
            t_ready = t
        t = ready[r2]
        if t > t_ready:
            t_ready = t
        t = ready[r3]
        if t > t_ready:
            t_ready = t

        # -- functional unit -----------------------------------------
        # Units within a class are interchangeable, so only the
        # multiset of free times matters; keeping it as a heap makes
        # pick-earliest-and-reoccupy one C call instead of a
        # min + index double scan.
        units, latency, interval, single = fu_info[fu_id]
        unit_free = units[0]
        issue = t_ready if t_ready > unit_free else unit_free
        if in_order:
            last_issue = issue

        # -- memory ----------------------------------------------------
        # Non-repeatable reads (_MEM_NONREP alone) keep the FU latency.
        if 0 < mem_kind < _MEM_NONREP:
            if mem_kind & _MEM_BCOPY \
                    and (bcopy := bcopies.get(i)) is not None:
                # Microcoded bulk copy: one word per cycle through the
                # load/store pipes.
                words, levels = bcopy
                if checker:
                    latency = max(words, lsl_latency)
                else:
                    worst = 0.0
                    for level in levels:
                        worst = max(worst, data_ns[level] * freq)
                    latency = max(words, worst)
                if words > interval:
                    extra_busy[fu_id] = (extra_busy.get(fu_id, 0)
                                         + words - interval)
                    interval = words
            elif checker:
                latency = lsl_latency
            elif mem_kind & _MEM_LOAD:
                latency, missed = load_cycles[(code >> 2) & 31]
                if missed:
                    # A miss occupies an MSHR until the fill returns
                    # (heap: same slot interchangeability as FU units).
                    slot_free = mshrs[0]
                    if slot_free > issue:
                        issue = slot_free
                    heapreplace(mshrs, issue + latency)
            else:
                # Stores retire through the store buffer: the pipeline
                # sees 1 cycle.
                latency = 1

        if single:
            units[0] = issue + interval
        else:
            heapreplace(units, issue + interval)
        complete = issue + latency

        # Unused write slots land in the never-read dead slot.
        ready[w1] = complete
        ready[w2] = complete

        # -- commit ----------------------------------------------------
        commit = last_commit + commit_step
        if complete > commit:
            commit = complete
        last_commit = commit
        rob[rob_pos] = commit
        rob_pos += 1
        if rob_pos == window:
            rob_pos = 0

        # -- control flow ----------------------------------------------
        if code & _MISPREDICT:
            redirect = complete + penalty
            if redirect > fetch_cycle:
                fetch_cycle = redirect

        # -- segment boundary ------------------------------------------
        if i == next_boundary:
            if checkpoint_overhead:
                last_commit += config.checkpoint_latency
                if last_commit > fetch_cycle:
                    fetch_cycle = last_commit
            boundary_cycles.append(last_commit)
            next_boundary = next(boundary_iter, 0) - 1

    # Busy cycles are ``count * interval`` — exact, because intervals are
    # integers — plus the BCOPY stretch.
    fu_issue_counts = {}
    fu_busy_cycles = {}
    for fu_id, count in events.fu_counts:
        name = _FU_NAMES[fu_id]
        fu_issue_counts[name] = count
        fu_busy_cycles[name] = float(fu_info[fu_id][2] * count
                                     + extra_busy.get(fu_id, 0))

    # DRAM bandwidth floor: the run cannot finish faster than the memory
    # channel can deliver its line traffic (demand + prefetch).  If the
    # floor binds (bandwidth-bound streaming workloads), time dilates
    # uniformly.
    dram_lines = events.dram_accesses
    floor_scale = 1.0
    if dram_lines and last_commit > 0:
        floor = (dram_lines * events.dram.line_bytes
                 / events.dram.peak_bandwidth_gbps) * freq
        if floor > last_commit:
            floor_scale = floor / last_commit
            last_commit = floor
            boundary_cycles = [c * floor_scale for c in boundary_cycles]

    return TimingResult(
        label=instance.label + (" (checker)" if checker else ""),
        instructions=len(events.pcs),
        cycles=last_commit,
        freq_ghz=freq,
        mispredicts=events.mispredicts,
        icache_misses=events.icache_misses,
        loads=events.loads,
        stores=events.stores,
        level_counts=dict(events.level_counts),
        llc_accesses=events.llc_accesses,
        dram_accesses=events.dram_accesses,
        boundary_cycles=boundary_cycles,
        floor_scale=floor_scale,
        fu_issue_counts=fu_issue_counts,
        fu_busy_cycles=fu_busy_cycles,
    )
