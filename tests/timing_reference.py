"""Reference timing replay: the single-pass loop the event/replay split
replaced.

:func:`reference_simulate` walks a trace once, probing the caches,
stride prefetcher and tournament predictor inline while it computes the
dispatch/issue/commit recurrence.  It is kept verbatim as a
differential oracle: :meth:`repro.cpu.timing.TimingModel.simulate`
(an event pass followed by a replay) must return the same
:class:`~repro.cpu.timing.TimingResult`, field for field, from the same
model state.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapreplace

from repro.cpu.columns import TraceColumns
from repro.cpu.config import CoreKind
from repro.cpu.timing import (
    _FU_INDEX,
    _FU_NAMES,
    _FU_ORDER,
    _JALR,
    _JMP,
    _MEM_BCOPY,
    _MEM_LOAD,
    _MEM_NONREP,
    _MEM_STORE,
    _MEM_STS,
    _SCOREBOARD_SLOTS,
    TimingModel,
    TimingResult,
    _program_metadata,
)
from repro.isa.instructions import FUKind
from repro.isa.program import Program


def reference_simulate(
    model: TimingModel,
    program: Program,
    trace: TraceColumns,
    boundaries: list[int] | None = None,
    checkpoint_overhead: bool = False,
) -> TimingResult:
    """Replay ``trace`` on ``model`` in one inlined pass (see module doc)."""
    config = model.config
    freq = model.freq
    hier = model.hierarchy
    predictor = model.predictor
    in_order = config.kind is CoreKind.IN_ORDER
    width_step = 1.0 / config.width
    commit_step = 1.0 / config.commit_width
    window = config.rob_size
    penalty = config.mispredict_penalty
    l1i_hit_cycles = config.hierarchy.l1i.hit_latency
    checker = model.checker_mode
    lsl_latency = model.LSL_LATENCY
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
    prefetch_table = model._prefetch
    prefetch_distance = model.PREFETCH_DISTANCE
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
                last_commit += model.config.checkpoint_latency
                if last_commit > fetch_cycle:
                    fetch_cycle = last_commit
            boundary_cycles.append(last_commit)
            next_boundary = next(boundary_iter, 0) - 1

    predictor._history = bp_history
    predictor.predictions += cond_predictions
    predictor.mispredictions += cond_mispredictions
    model.prefetches_issued += prefetches

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
        label=model.instance.label + (" (checker)" if checker else ""),
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
