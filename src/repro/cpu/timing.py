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
from repro.mem.hierarchy import MemoryHierarchy, SharedUncore

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
    from repro.obs import StatGroup

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
        """Replay ``trace`` and return timing.

        ``boundaries`` is a sorted list of *end-exclusive* instruction
        indices; the cumulative commit cycle at each boundary is reported in
        ``boundary_cycles``.  With ``checkpoint_overhead``, the RCU's
        register-file copy latency is charged at every boundary (this is the
        main-core cost the paper measures under "Register Checkpointing").
        """
        config = self.config
        freq = self.freq
        hier = self.hierarchy
        predictor = self.predictor
        in_order = config.kind is CoreKind.IN_ORDER
        width_step = 1.0 / config.width
        commit_step = 1.0 / config.commit_width
        window = config.rob_size
        penalty = config.mispredict_penalty
        l1i_hit_cycles = config.hierarchy.l1i.hit_latency
        checker = self.checker_mode
        lsl_latency = self.LSL_LATENCY
        uncore = hier.uncore
        llc_before = uncore.llc_accesses
        dram_before = uncore.dram.accesses

        fu_free: dict[FUKind, list[float]] = {
            kind: [0.0] * fu.units for kind, fu in config.fus.items()
        }
        #: Indexed by dense FU id: (units, latency, interval, single-unit).
        fu_info: list = [None] * len(_FU_ORDER)
        for kind, fu in config.fus.items():
            fu_info[_FU_INDEX[kind]] = (fu_free[kind], fu.latency,
                                        fu.interval, fu.units == 1)
        mshrs = [0.0] * config.hierarchy.l1d.mshrs
        # Scoreboard: int keys 1..31, fp keys _FP_BASE+1.., dense list.
        ready: list[float] = [0.0] * _SCOREBOARD_SLOTS
        rob: list[float] = [0.0] * window  # ring buffer of commit cycles
        rob_pos = 0

        fetch_cycle = 0.0
        last_issue = 0.0
        last_commit = 0.0
        last_fetch_line = -1
        mispredicts = 0
        icache_misses = 0
        loads = 0
        stores = 0
        #: Per-FU busy cycles beyond ``count * interval`` (BCOPY stretches
        #: its initiation interval to the word count); issue counts and the
        #: base busy product are recovered from the trace after the loop.
        extra_busy: dict[int, int] = {}

        boundary_iter = iter(boundaries or [])
        # Compare against ``i`` directly (boundaries are end-exclusive, so
        # subtract one); 0 - 1 == -1 never matches an index.
        next_boundary = next(boundary_iter, 0) - 1
        boundary_cycles: list[float] = []

        meta = _program_metadata(program)
        fetch_access = hier.fetch_access_fast
        data_access = hier.data_access_fast
        predict_indirect = predictor.predict_indirect

        # The conditional predictor is inlined below (same trick as the
        # L1 probes): its tables are plain bytearrays, so the tournament
        # update is a handful of index ops once the call frame is gone.
        # History and the prediction counters are carried in locals and
        # written back after the loop.
        bp_bimodal = predictor._bimodal
        bp_gshare = predictor._gshare
        bp_chooser = predictor._chooser
        bp_mask = predictor._mask
        bp_history = predictor._history
        bp_hmask = predictor._history_mask
        cond_predictions = 0
        cond_mispredictions = 0

        # Per-PC stride prefetcher, likewise inlined: the common case
        # (streaming stride, target line already resident) is an L1 hit.
        prefetch_table = self._prefetch
        prefetch_distance = self.PREFETCH_DISTANCE
        prefetches = 0

        # L1 hit probes are inlined below (reaching into Cache internals):
        # the warm-cache common case then costs a set lookup and an LRU
        # touch instead of two call frames.  Misses fall through to the
        # full hierarchy walk, whose own L1 probe still misses, so hit /
        # miss / eviction counters stay exact.
        l1d = hier.l1d
        l1d_sets = l1d._sets
        l1d_set_mask = l1d._set_mask
        l1d_shift = l1d._line_shift
        l1i = hier.l1i
        l1i_sets = l1i._sets
        l1i_set_mask = l1i._set_mask
        l1i_shift = l1i._line_shift
        counts = hier.level_counts
        #: Same expression shape as ``data_access_fast`` on an L1 hit.
        l1d_hit_ns = hier._l1d_hit_cycles / freq

        pcs = trace.pcs
        # Sentinel row: index -2 never matches, so the row-pointer test
        # needs no bounds check.  (Copies the list; the trace is shared.)
        mem_rows = trace.mem_rows + [(-2, -1, -1, 0, None, None, None, None)]
        br_rows = trace.br_rows
        bulks = trace.bulks
        mp = 0
        bp = 0

        for i, pc in enumerate(pcs):
            (fu_id, r1, r2, r3, w1, w2, mem_kind, branch_kind, fetch_line,
             fetch_addr, jmp_redirect) = meta[pc]

            # -- fetch / dispatch ----------------------------------------
            if fetch_line != last_fetch_line:
                last_fetch_line = fetch_line
                tag = fetch_addr >> l1i_shift
                ways = l1i_sets[tag & l1i_set_mask]
                if tag in ways:  # inline L1I hit
                    if ways[-1] != tag:
                        ways.remove(tag)
                        ways.append(tag)
                    l1i.hits += 1
                    counts["l1"] += 1
                else:
                    latency_ns, level = fetch_access(fetch_addr, freq)
                    if level != "l1":
                        icache_misses += 1
                        fetch_cycle += latency_ns * freq - l1i_hit_cycles
                # Next-line instruction prefetch (sequential streams hit).
                tag = (fetch_addr + 64) >> l1i_shift
                ways = l1i_sets[tag & l1i_set_mask]
                if tag in ways:
                    if ways[-1] != tag:
                        ways.remove(tag)
                        ways.append(tag)
                    l1i.hits += 1
                    counts["l1"] += 1
                else:
                    fetch_access(fetch_addr + 64, freq)
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
            if mem_kind:
                if mem_kind == _MEM_NONREP:
                    # Non-repeatable read: the row carries no timing info.
                    if mem_rows[mp][0] == i:
                        mp += 1
                else:
                    row = mem_rows[mp]
                    if row[0] == i:
                        mp += 1
                        addr = row[1]
                        addr2 = row[2]
                    else:
                        addr = addr2 = -1
                    if mem_kind & _MEM_BCOPY \
                            and (bulk := bulks.get(i)) is not None:
                        # Microcoded bulk copy: one word per cycle through
                        # the load/store pipes, touching source and
                        # destination lines.
                        words = len(bulk)
                        loads += words
                        stores += words
                        if checker:
                            latency = max(words, lsl_latency)
                        else:
                            worst = 0.0
                            for base in (addr, addr2):
                                for off in range(0, words * 8, 64):
                                    latency_ns, _ = data_access(base + off,
                                                                freq)
                                    worst = max(worst, latency_ns * freq)
                            latency = max(words, worst)
                        if words > interval:
                            extra_busy[fu_id] = (extra_busy.get(fu_id, 0)
                                                 + words - interval)
                            interval = words
                    else:
                        if mem_kind & _MEM_LOAD:
                            loads += 1
                            if addr2 >= 0:
                                loads += 1
                        if mem_kind & _MEM_STORE:
                            stores += 1
                            if addr2 >= 0 and mem_kind & _MEM_STS:
                                stores += 1
                        if checker:
                            latency = lsl_latency
                        elif mem_kind & _MEM_LOAD:
                            # Inline _prefetch_data: train the per-PC
                            # stride entry; confirmed strides pull
                            # PREFETCH_DISTANCE ahead.  The probe order
                            # (prefetch before demand) matches the
                            # method it replaces.
                            state = prefetch_table.get(pc)
                            if state is None:
                                prefetch_table[pc] = [addr, 0, 0]
                            else:
                                stride = addr - state[0]
                                if stride != 0 and stride == state[1]:
                                    state[2] += 1
                                else:
                                    state[1] = stride
                                    state[2] = 0
                                state[0] = addr
                                if state[2] >= 2 and state[1] != 0:
                                    target = addr \
                                        + state[1] * prefetch_distance
                                    if (target ^ addr) >> 6:
                                        tag = target >> l1d_shift
                                        ways = l1d_sets[tag
                                                        & l1d_set_mask]
                                        if tag in ways:  # inline L1D hit
                                            if ways[-1] != tag:
                                                ways.remove(tag)
                                                ways.append(tag)
                                            l1d.hits += 1
                                            counts["l1"] += 1
                                        else:
                                            data_access(target, freq)
                                        prefetches += 1
                            tag = addr >> l1d_shift
                            ways = l1d_sets[tag & l1d_set_mask]
                            if tag in ways:  # inline L1D hit
                                if ways[-1] != tag:
                                    ways.remove(tag)
                                    ways.append(tag)
                                l1d.hits += 1
                                counts["l1"] += 1
                                mem_cycles = l1d_hit_ns * freq
                                if addr2 >= 0:
                                    latency2_ns, _ = data_access(addr2,
                                                                 freq)
                                    mem_cycles = max(mem_cycles,
                                                     latency2_ns * freq)
                            else:
                                latency_ns, level = data_access(addr, freq)
                                mem_cycles = latency_ns * freq
                                if addr2 >= 0:
                                    latency2_ns, _ = data_access(addr2,
                                                                 freq)
                                    mem_cycles = max(mem_cycles,
                                                     latency2_ns * freq)
                                if level != "l1":
                                    # A miss occupies an MSHR until the
                                    # fill returns (heap: same slot
                                    # interchangeability as FU units).
                                    slot_free = mshrs[0]
                                    if slot_free > issue:
                                        issue = slot_free
                                    heapreplace(mshrs, issue + mem_cycles)
                            latency = mem_cycles
                        else:
                            # Stores retire through the store buffer:
                            # residency and stats are tracked but the
                            # pipeline sees 1 cycle.
                            tag = addr >> l1d_shift
                            ways = l1d_sets[tag & l1d_set_mask]
                            if tag in ways:  # inline L1D hit
                                if ways[-1] != tag:
                                    ways.remove(tag)
                                    ways.append(tag)
                                l1d.hits += 1
                                counts["l1"] += 1
                            else:
                                data_access(addr, freq)
                            if addr2 >= 0:
                                data_access(addr2, freq)
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
                        # Inline BranchPredictor.predict_conditional
                        # (tournament: bimodal + gshare + chooser).
                        taken = row[2]
                        b_idx = pc & bp_mask
                        g_idx = (pc ^ (bp_history * 0x9E3779B1)) & bp_mask
                        b_counter = bp_bimodal[b_idx]
                        g_counter = bp_gshare[g_idx]
                        b_pred = b_counter >= 2
                        g_pred = g_counter >= 2
                        if bp_chooser[b_idx] >= 2:
                            correct = g_pred == taken
                        else:
                            correct = b_pred == taken
                        cond_predictions += 1
                        if not correct:
                            cond_mispredictions += 1
                        if b_pred != g_pred:
                            chooser = bp_chooser[b_idx]
                            if g_pred == taken and chooser < 3:
                                bp_chooser[b_idx] = chooser + 1
                            elif b_pred == taken and chooser > 0:
                                bp_chooser[b_idx] = chooser - 1
                        if taken:
                            if b_counter < 3:
                                bp_bimodal[b_idx] = b_counter + 1
                            if g_counter < 3:
                                bp_gshare[g_idx] = g_counter + 1
                            bp_history = ((bp_history << 1) | 1) \
                                & bp_hmask
                        else:
                            if b_counter > 0:
                                bp_bimodal[b_idx] = b_counter - 1
                            if g_counter > 0:
                                bp_gshare[g_idx] = g_counter - 1
                            bp_history = (bp_history << 1) & bp_hmask
                    if not correct:
                        mispredicts += 1
                        redirect = complete + penalty
                        if redirect > fetch_cycle:
                            fetch_cycle = redirect
                    # Any taken control flow changes the fetch line.
                    if next_pc != pc + 1:
                        last_fetch_line = -1

            # -- segment boundary ------------------------------------------
            if i == next_boundary:
                if checkpoint_overhead:
                    last_commit += self.config.checkpoint_latency
                    if last_commit > fetch_cycle:
                        fetch_cycle = last_commit
                boundary_cycles.append(last_commit)
                next_boundary = next(boundary_iter, 0) - 1

        predictor._history = bp_history
        predictor.predictions += cond_predictions
        predictor.mispredictions += cond_mispredictions
        self.prefetches_issued += prefetches

        # Issue counts per FU, in first-issue order (Counter preserves
        # first-seen order); busy cycles are ``count * interval`` — exact,
        # because intervals are integers — plus the BCOPY stretch.
        fu_ids = [m[0] for m in meta]
        fu_issue_counts = {}
        fu_busy_cycles = {}
        for fu_id, count in Counter(map(fu_ids.__getitem__, pcs)).items():
            name = _FU_NAMES[fu_id]
            fu_issue_counts[name] = count
            interval = fu_info[fu_id][2]
            fu_busy_cycles[name] = float(interval * count
                                         + extra_busy.get(fu_id, 0))

        # DRAM bandwidth floor: the run cannot finish faster than the memory
        # channel can deliver its line traffic (demand + prefetch).  If the
        # floor binds (bandwidth-bound streaming workloads), time dilates
        # uniformly.
        dram_lines = uncore.dram.accesses - dram_before
        floor_scale = 1.0
        if dram_lines and last_commit > 0:
            dram_cfg = uncore.dram.config
            floor = (dram_lines * dram_cfg.line_bytes
                     / dram_cfg.peak_bandwidth_gbps) * freq
            if floor > last_commit:
                floor_scale = floor / last_commit
                last_commit = floor
                boundary_cycles = [c * floor_scale for c in boundary_cycles]

        return TimingResult(
            label=self.instance.label + (" (checker)" if checker else ""),
            instructions=len(trace),
            cycles=last_commit,
            freq_ghz=freq,
            mispredicts=mispredicts,
            icache_misses=icache_misses,
            loads=loads,
            stores=stores,
            level_counts=dict(hier.level_counts),
            llc_accesses=uncore.llc_accesses - llc_before,
            dram_accesses=uncore.dram.accesses - dram_before,
            boundary_cycles=boundary_cycles,
            floor_scale=floor_scale,
            fu_issue_counts=fu_issue_counts,
            fu_busy_cycles=fu_busy_cycles,
        )
