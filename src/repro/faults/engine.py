"""Parallel fault-injection campaign engine (Fig. 8 at scale).

Campaigns are the one evaluation path where the paper's experiment is
embarrassingly parallel *within* a single workload: every trial replays
the same segments under an independent fault.  The
:class:`CampaignRunner` fans trials out over the sweep engine's process
pool (:mod:`repro.harness.parallel`) as picklable ``(spec, trial
chunk)`` tasks, and merges results as they land.

Determinism does not depend on scheduling.  Trial ``t``'s fault is a
pure function of ``(spec.seed, t)`` via
:func:`~repro.faults.models.derive_trial_seed`, so any worker count,
completion order, or resume split reproduces the serial campaign
bit-for-bit.

Every completed trial is appended to a per-process JSONL shard
(``shard-<pid>.jsonl`` under the campaign directory) and flushed, so a
killed campaign resumes where it stopped: ``resume=True`` scans the
shards, skips records from other specs (each line carries the spec
key) and corrupt/partial lines, and only schedules the missing trial
ids.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from repro.faults.models import FAULT_KINDS, fault_for_trial

logger = logging.getLogger("repro.faults.engine")

#: Shard filename pattern; one per writing process.
SHARD_GLOB = "shard-*.jsonl"


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a worker needs to run one trial, picklable/JSON-able."""

    workload: str
    checkers: str = "1xA510@1.0"
    mode: str = "opportunistic"
    hash_mode: bool = False
    instructions: int = 40_000
    seed: int = 7
    trials: int = 20
    #: First trial id of this campaign's window: trials run over
    #: ``[trial_offset, trial_offset + trials)``.  Offset windows let
    #: the shard router fan one campaign out across backends while
    #: every trial stays the same pure function of ``(seed, trial)``.
    trial_offset: int = 0
    fault_kinds: tuple[str, ...] = FAULT_KINDS
    #: Detection scheme the trials run under (see
    #: :mod:`repro.faults.scenarios`): ``paraverser`` (the paper's
    #: checker), ``dme`` divergent multi-version, ``ithica-sdc`` defect
    #: screen, or ``meek-ro`` reduced observability.
    scheme: str = "paraverser"

    def key(self) -> str:
        """Stable identity of the campaign's *trial-defining* fields.

        Shard records carry this so a resume never mixes results from a
        differently-parameterised campaign that shared the directory.
        ``trials`` and ``trial_offset`` are excluded: trial ids are
        global, so growing a campaign from 100 to 500 trials (or
        finishing someone else's window) must reuse recorded results.
        """
        ident = {k: v for k, v in asdict(self).items()
                 if k not in ("trials", "trial_offset")}
        blob = json.dumps(ident, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "CampaignSpec":
        payload = dict(payload)
        payload["fault_kinds"] = tuple(payload.get("fault_kinds",
                                                   FAULT_KINDS))
        # Payloads recorded before the scheme field existed default to
        # the paper's checker.
        payload.setdefault("scheme", "paraverser")
        return cls(**payload)


@dataclass(frozen=True)
class TrialRecord:
    """JSON-able outcome of one trial (what the shards store)."""

    trial: int
    kind: str
    fault: str  # human-readable site description
    detected: bool
    masked: bool
    detection_instruction: int = -1
    detecting_segment: int = -1

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "TrialRecord":
        return cls(
            trial=int(payload["trial"]),
            kind=str(payload["kind"]),
            fault=str(payload["fault"]),
            detected=bool(payload["detected"]),
            masked=bool(payload["masked"]),
            detection_instruction=int(
                payload.get("detection_instruction", -1)),
            detecting_segment=int(payload.get("detecting_segment", -1)),
        )


@dataclass(frozen=True)
class CampaignTally:
    """Integer aggregate of campaign trials: the one home of every rate.

    Tallies of disjoint trial windows add up (``+``, ``sum()``) to the
    tally of the whole campaign, and each rate is one division of exact
    integers, so it is bit-identical however the trials were split.  A
    rate without a denominator (no trials, or every fault masked) is
    0.0 (``CampaignOutcome.tally`` logs it with the campaign's name);
    the mean latency without a detection is None.
    """

    injected: int = 0
    detected: int = 0
    masked: int = 0
    #: Sum and max of detection latencies (main-core instructions).
    latency_sum: int = 0
    latency_max: int = 0
    #: ``(kind, injected, detected, masked)`` per fault kind, in
    #: first-seen trial order.
    by_kind: tuple[tuple[str, int, int, int], ...] = ()

    @classmethod
    def of(cls, records) -> "CampaignTally":
        """Tally trial records (``TrialRecord`` or ``InjectionResult``)."""
        return sum(map(cls._one, records), cls())

    @classmethod
    def _one(cls, record) -> "CampaignTally":
        detected, masked = int(record.detected), int(record.masked)
        latency = record.detection_instruction if detected else 0
        return cls(1, detected, masked, latency, latency,
                   ((record.kind, 1, detected, masked),))

    @classmethod
    def from_row(cls, row: dict) -> "CampaignTally":
        """Inverse of :meth:`to_row` (a campaign row off the wire)."""
        return cls(
            injected=row["trials"], detected=row["detected"],
            masked=row["masked"],
            latency_sum=row.get("detection_latency_sum", 0),
            latency_max=row.get("detection_latency_max", 0),
            by_kind=tuple(
                (kind, c["injected"], c["detected"], c["masked"])
                for kind, c in row.get("by_kind", {}).items()))

    def __add__(self, other: "CampaignTally") -> "CampaignTally":
        if not isinstance(other, CampaignTally):
            return NotImplemented
        kinds = {kind: counts for kind, *counts in self.by_kind}
        for kind, *counts in other.by_kind:
            kinds[kind] = [a + b for a, b in
                           zip(kinds.get(kind, (0, 0, 0)), counts)]
        return CampaignTally(
            self.injected + other.injected,
            self.detected + other.detected,
            self.masked + other.masked,
            self.latency_sum + other.latency_sum,
            max(self.latency_max, other.latency_max),
            tuple((kind, *counts) for kind, counts in kinds.items()))

    @property
    def missed(self) -> int:
        """Effective faults the configured coverage never observed."""
        return self.injected - self.detected - self.masked

    @property
    def detection_rate_all(self) -> float:
        """Detected / injected (the paper's 76 % full-coverage number)."""
        return self.detected / self.injected if self.injected else 0.0

    @property
    def detection_rate_effective(self) -> float:
        """Detected / non-masked (Fig. 8's coverage metric)."""
        effective = self.injected - self.masked
        return self.detected / effective if effective else 0.0

    @property
    def sdc_escape_rate(self) -> float:
        """Effective-but-undetected faults per injection (silent SDCs)."""
        return self.missed / self.injected if self.injected else 0.0

    @property
    def mean_latency(self) -> float | None:
        return self.latency_sum / self.detected if self.detected else None

    def to_row(self) -> dict:
        """The counting and rate fields of a campaign row."""
        return {
            "trials": self.injected,
            "detected": self.detected,
            "masked": self.masked,
            "missed": self.missed,
            "detection_rate_all": self.detection_rate_all,
            "detection_rate_effective": self.detection_rate_effective,
            "sdc_escape_rate": self.sdc_escape_rate,
            "detection_latency_sum": self.latency_sum,
            "detection_latency_max": self.latency_max,
            "mean_detection_latency": self.mean_latency,
            "by_kind": {kind: dict(zip(("injected", "detected", "masked"),
                                       counts))
                        for kind, *counts in self.by_kind},
        }


@dataclass
class CampaignOutcome:
    """Aggregate of one (possibly resumed, possibly parallel) campaign."""

    spec: CampaignSpec
    records: list[TrialRecord] = field(default_factory=list)
    elapsed_s: float = 0.0
    busy_s: float = 0.0
    jobs: int = 1
    resumed_trials: int = 0

    @property
    def injected(self) -> int:
        return len(self.records)

    @property
    def tally(self) -> CampaignTally:
        """The records' tally, logging (by workload/scheme) a rate that
        had no denominator (0 trials, or every fault masked)."""
        tally = CampaignTally.of(self.records)
        name = f"{self.spec.workload}/{self.spec.scheme}"
        if not tally.injected:
            logger.warning("campaign %s: 0 trials injected; "
                           "rates reported as 0.0", name)
        elif tally.injected == tally.masked:
            logger.warning("campaign %s: no effective faults (injected=%d, "
                           "masked=%d); detection_rate_effective reported "
                           "as 0.0", name, tally.injected, tally.masked)
        return tally

    def to_row(self) -> dict:
        """Headline numbers as a JSON-able dict (CLI/serve payload)."""
        return {
            "workload": self.spec.workload,
            "checkers": self.spec.checkers,
            "mode": self.spec.mode,
            "scheme": self.spec.scheme,
            **self.tally.to_row(),
            "elapsed_s": self.elapsed_s,
            "jobs": self.jobs,
            "resumed_trials": self.resumed_trials,
        }


# -- worker side (runs in pool processes, and inline for jobs=1) -------------

#: Per-process campaign contexts, keyed by spec key: the only campaign
#: cache.  Bounded like the sweep worker caches — a long-lived pool
#: cycling through campaigns must not pin every program/segment list
#: forever — but by distinct substrates, so the specs (one per scheme)
#: sharing one substrate never evict each other.
_CONTEXTS: dict = {}
_CONTEXT_LIMIT = 4


@dataclass
class _Substrate:
    """The scheme-independent state every spec of one checked run shares:
    the segments, the covered list and the golden FU stream."""

    key: tuple
    program: object  # Program
    checker_config: object  # CoreConfig
    segments: list
    covered: list[int]
    golden: object  # GoldenStream


@dataclass
class _CampaignContext:
    """The per-process state of one spec: its scheme's trial runner on a
    (possibly shared) substrate."""

    campaign: object  # FaultCampaign or a scenario campaign
    substrate: _Substrate


def _substrate_key(spec: CampaignSpec) -> tuple:
    return (spec.workload, spec.checkers, spec.mode, spec.hash_mode,
            spec.instructions, spec.seed)


def _substrate(spec: CampaignSpec) -> _Substrate:
    """Fetch ``spec``'s substrate off a cached context, or build it.

    Reuses the sweep engine's process-global
    :func:`~repro.harness.parallel.worker_cache`, so the functional
    trace (and, with ``REPRO_TRACE_CACHE``, its on-disk copy) is shared
    with sweep and serve workloads running in the same pool.
    """
    key = _substrate_key(spec)
    for ctx in _CONTEXTS.values():
        if ctx.substrate.key == key:
            return ctx.substrate

    from repro.core.system import CheckMode, ParaVerserSystem
    from repro.cpu.presets import pool_instances
    from repro.faults.campaign import (
        GoldenStream,
        checker_fu_counts,
        covered_segments,
    )
    from repro.harness.parallel import worker_cache
    from repro.harness.runner import make_config

    cache = worker_cache(spec.instructions, spec.seed)
    config = make_config(pool_instances(spec.checkers),
                         CheckMode(spec.mode),
                         hash_mode=spec.hash_mode)
    cached = cache.get(spec.workload)
    result = cache.run_config(spec.workload, config)
    segments = ParaVerserSystem(config).segment(cached.run)
    checker_config = config.checkers[0].config
    golden = GoldenStream(cached.program, segments,
                          checker_fu_counts(checker_config))
    return _Substrate(key=key, program=cached.program,
                      checker_config=checker_config, segments=segments,
                      covered=covered_segments(result), golden=golden)


def _campaign_context(spec: CampaignSpec) -> _CampaignContext:
    """Build-or-fetch this process's context for ``spec``."""
    key = spec.key()
    ctx = _CONTEXTS.get(key)
    if ctx is not None:
        return ctx

    from repro.faults.scenarios import make_campaign

    substrate = _substrate(spec)
    campaign = make_campaign(spec.scheme, substrate.program,
                             substrate.segments, substrate.checker_config,
                             hash_mode=spec.hash_mode, seed=spec.seed,
                             golden=substrate.golden)
    ctx = _CONTEXTS[key] = _CampaignContext(campaign=campaign,
                                            substrate=substrate)
    live = {id(c.substrate): c.substrate for c in _CONTEXTS.values()}
    while len(live) > _CONTEXT_LIMIT:
        # Drop every context of the oldest substrate.
        oldest = next(iter(_CONTEXTS.values())).substrate
        for spec_key in [k for k, c in _CONTEXTS.items()
                         if c.substrate is oldest]:
            del _CONTEXTS[spec_key]
        del live[id(oldest)]
    return ctx


def run_trial_in_worker(spec: CampaignSpec, trial: int,
                        shard_dir: str | None = None) -> dict:
    """Run one trial; append its record to this process's shard.

    Returns the :class:`TrialRecord` JSON dict.  Pure function of
    ``(spec, trial)`` — the executing process is irrelevant.
    """
    ctx = _campaign_context(spec)
    substrate = ctx.substrate
    kind, fault = fault_for_trial(
        spec.seed, trial, ctx.campaign.fu_counts,
        kinds=spec.fault_kinds, segments=len(substrate.segments))
    result = ctx.campaign.run_trial(fault, substrate.covered,
                                    trial=trial, kind=kind)
    record = TrialRecord(
        trial=trial,
        kind=kind,
        fault=fault.describe(),
        detected=result.detected,
        masked=result.masked,
        detection_instruction=result.detection_instruction,
        detecting_segment=result.detecting_segment,
    )
    if shard_dir is not None:
        _append_shard(Path(shard_dir), spec.key(), record)
    return record.to_json()


def _append_shard(shard_dir: Path, spec_key: str,
                  record: TrialRecord) -> None:
    """Append-and-flush one record to this process's shard file."""
    shard_dir.mkdir(parents=True, exist_ok=True)
    path = shard_dir / f"shard-{os.getpid()}.jsonl"
    line = json.dumps({"spec": spec_key, **record.to_json()},
                      sort_keys=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def load_completed(shard_dir: str | os.PathLike,
                   spec: CampaignSpec) -> dict[int, TrialRecord]:
    """Completed trial records for ``spec`` found in the shard files.

    Tolerates the realities of killed campaigns: partial trailing
    lines, corrupt JSON, records from other specs that shared the
    directory — all skipped (with a warning for undecodable lines).
    Duplicate ``(spec_key, trial)`` records — a crash between write and
    fsync can replay a line, and a killed worker's trial may be re-run
    into another shard — are deduplicated (first record wins; every
    record is the same pure function of the trial id anyway) so a
    resumed campaign never double-counts a trial.
    """
    shard_dir = Path(shard_dir)
    spec_key = spec.key()
    completed: dict[int, TrialRecord] = {}
    duplicates = 0
    for path in sorted(shard_dir.glob(SHARD_GLOB)):
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            logger.warning("campaign resume: unreadable shard %s (%s)",
                           path, exc)
            continue
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if payload.get("spec") != spec_key:
                    continue
                record = TrialRecord.from_json(payload)
            except (ValueError, KeyError, TypeError):
                logger.warning(
                    "campaign resume: skipping corrupt record "
                    "%s:%d", path, lineno)
                continue
            if record.trial in completed:
                duplicates += 1
                continue
            completed[record.trial] = record
    if duplicates:
        logger.warning(
            "campaign resume: ignored %d duplicate trial record(s) "
            "for spec %s", duplicates, spec_key)
    return completed


# -- runner side -------------------------------------------------------------

class CampaignRunner:
    """Fans campaign trials across worker processes, merging by trial id.

    ``jobs=1`` (the default via ``REPRO_JOBS``) runs everything
    in-process through the exact same per-trial entry point, so serial
    and parallel campaigns are the same computation scheduled
    differently.
    """

    #: Target tasks per worker when auto-sizing chunks: enough slack
    #: for load balancing across uneven trial durations, few enough
    #: submissions that dispatch overhead stays amortised.
    TASKS_PER_WORKER = 4

    def __init__(self, jobs: int | None = None,
                 campaign_dir: str | os.PathLike | None = None,
                 resume: bool = False,
                 chunk: int | None = None) -> None:
        if jobs is None:
            from repro.harness.runner import env_jobs
            jobs = env_jobs()
        self.jobs = jobs
        self.campaign_dir = str(campaign_dir) if campaign_dir else None
        self.resume = resume
        #: Trials per pool task; ``None`` auto-sizes from the workload.
        self.chunk = chunk
        self._pool = None

    def _chunk_size(self, todo: int) -> int:
        """Trials per pool task (explicit ``chunk``, else auto)."""
        if self.chunk is not None:
            return max(1, self.chunk)
        return max(1, todo // (self.jobs * self.TASKS_PER_WORKER))

    def run(self, spec: CampaignSpec,
            on_record: Callable[[TrialRecord], None] | None = None,
            ) -> CampaignOutcome:
        """Run (or finish) the campaign; records come back trial-ordered.

        ``on_record`` fires as each trial result lands (completion
        order), for progress reporting.
        """
        completed: dict[int, TrialRecord] = {}
        if self.resume:
            if self.campaign_dir is None:
                raise ValueError("resume requires a campaign directory")
            completed = load_completed(self.campaign_dir, spec)
        window = range(spec.trial_offset, spec.trial_offset + spec.trials)
        todo = [t for t in window if t not in completed]
        resumed = spec.trials - len(todo)
        if resumed:
            logger.info("campaign resume: %d/%d trials already done",
                        resumed, spec.trials)

        started = time.perf_counter()
        if self.jobs <= 1 or len(todo) <= 1:
            fresh, busy = self._run_serial(spec, todo, on_record)
        else:
            fresh, busy = self._run_pooled(spec, todo, on_record)
        elapsed = time.perf_counter() - started

        records = dict(completed)
        records.update(fresh)
        return CampaignOutcome(
            spec=spec,
            records=[records[t] for t in sorted(records)
                     if t in window],
            elapsed_s=elapsed,
            busy_s=busy,
            jobs=self.jobs,
            resumed_trials=resumed,
        )

    def _run_serial(self, spec, todo, on_record):
        records: dict[int, TrialRecord] = {}
        busy = 0.0
        for trial in todo:
            start = time.perf_counter()
            payload = run_trial_in_worker(spec, trial, self.campaign_dir)
            busy += time.perf_counter() - start
            record = TrialRecord.from_json(payload)
            records[trial] = record
            if on_record is not None:
                on_record(record)
        return records, busy

    def _run_pooled(self, spec, todo, on_record):
        from repro.harness.parallel import _campaign_chunk_task

        size = self._chunk_size(len(todo))
        chunks = [todo[i:i + size] for i in range(0, len(todo), size)]
        pool = self._executor()
        spec_payload = spec.to_json()
        futures = {
            pool.submit(_campaign_chunk_task, spec_payload, chunk,
                        self.campaign_dir): chunk
            for chunk in chunks
        }
        records: dict[int, TrialRecord] = {}
        busy = 0.0
        pending = set(futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                payloads, task_busy = future.result()
                busy += task_busy
                for trial, payload in zip(futures[future], payloads):
                    record = TrialRecord.from_json(payload)
                    records[trial] = record
                    if on_record is not None:
                        on_record(record)
        return records, busy

    def _executor(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_campaign(spec: CampaignSpec, jobs: int | None = None,
                 campaign_dir: str | os.PathLike | None = None,
                 resume: bool = False,
                 chunk: int | None = None,
                 on_record: Callable[[TrialRecord], None] | None = None,
                 ) -> CampaignOutcome:
    """One-shot convenience wrapper around :class:`CampaignRunner`."""
    with CampaignRunner(jobs=jobs, campaign_dir=campaign_dir,
                        resume=resume, chunk=chunk) as runner:
        return runner.run(spec, on_record=on_record)


def publish_campaign_stats(stats, outcome: CampaignOutcome,
                           name: str = "faults") -> None:
    """Publish ``faults.*`` telemetry into a stats tree.

    Coverage leaves are deterministic for a given spec; ``elapsed_s``,
    ``busy_s`` and ``occupancy`` are host wall-clock (mask them in
    regression gates, like ``pipeline.*`` timings).  ``name`` lets the
    scenario matrix publish one campaign per scheme under
    ``faults.<scheme>.*``.
    """
    group = stats.group(name, "fault-injection campaign results")
    tally = outcome.tally
    group.count("injected", tally.injected, "trials injected")
    group.count("detected", tally.detected, "trials detected")
    group.count("masked", tally.masked, "trials masked (no effect)")
    group.count("missed", tally.missed,
                "effective faults missed by coverage")
    group.scalar("detection_rate_all", tally.detection_rate_all,
                 "detected / injected")
    group.scalar("detection_rate_effective",
                 tally.detection_rate_effective,
                 "detected / effective (Fig. 8 coverage)")
    group.scalar("sdc_escape_rate", tally.sdc_escape_rate,
                 "effective-but-undetected faults / injected")
    mean = tally.mean_latency
    group.scalar("detection_latency_mean", 0.0 if mean is None else mean,
                 "mean main-core instructions to detection")
    group.scalar("detection_latency_max", float(tally.latency_max),
                 "worst-case main-core instructions to detection")
    if mean is not None:
        group.scalar("mean_detection_latency", mean,
                     "mean main-core instructions to detection")
    group.count("resumed_trials", outcome.resumed_trials,
                "trials recovered from shards")
    for kind, injected, detected, masked in sorted(tally.by_kind):
        sub = group.group(kind, f"{kind} fault-site results")
        sub.count("injected", injected)
        sub.count("detected", detected)
        sub.count("masked", masked)
    runtime = group.group("runtime", "host wall-clock (non-deterministic)")
    runtime.scalar("elapsed_s", outcome.elapsed_s, "campaign wall time")
    runtime.scalar("busy_s", outcome.busy_s, "summed worker busy time")
    runtime.scalar("jobs", outcome.jobs, "worker processes")
