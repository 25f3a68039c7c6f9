"""The three workloads and the loop that measures them.

Each workload is a fixed list of operations (one *pass*), repeated
until the measured time is used up.  An operation returns the work it
did (simulated instructions, trials or simulated requests) and a
JSON-able result row whose digest is checked.  Inputs come from the
seed alone.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
from contextlib import contextmanager

from common import cpu_now, digest, wall_now

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 5


class Workload:
    """One benchmark workload, run inside the benchmark's own process."""

    name = ""
    #: What ``work_per_s`` counts for this workload.
    work_unit = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Build every input from scratch (caches emptied first)."""
        raise NotImplementedError

    def ops(self) -> list[tuple[str, object]]:
        """One pass: ``(key, fn)`` pairs; ``fn() -> (work, row)``."""
        raise NotImplementedError

    def warm(self, key: str) -> None:
        """Untimed preparation before the operation ``key``."""

    def check(self, key: str, row) -> list[str]:
        """Invariants every result row must satisfy, as problems found."""
        return []

    def attempts(self, key: str) -> int:
        """How many attempted units one operation stands for."""
        return 1

    def per_layer(self, phase: "Phase") -> dict[str, float]:
        """Per-layer metrics read off an untraced phase."""
        return {}


def _forget_process_caches() -> None:
    """Empty the process-global caches a set-up must not inherit.

    The campaign engine keeps per-spec contexts and the sweep engine
    keeps per-(budget, seed) workload caches; both are module globals.
    """
    for module, name in (("repro.faults.engine", "_CONTEXTS"),
                         ("repro.harness.parallel", "_WORKER_CACHES")):
        cache = getattr(sys.modules.get(module), name, None)
        if cache is not None:
            cache.clear()


# -- run-sweep ---------------------------------------------------------------

class RunSweep(Workload):
    """The figure-sweep path: checked runs of three profiles under three
    checker pools, traces built in set-up, baselines re-timed per pass."""

    name = "run-sweep"
    work_unit = "simulated instructions"
    PROFILES = ("gcc", "mcf", "lbm")
    POOLS = (("4xA510@2.0", "full", False),
             ("1xX2@3.0", "opportunistic", False),
             ("2xA510@2.0", "full", True))
    INSTRUCTIONS = 100_000

    def setup(self) -> None:
        from repro.cli import parse_checkers
        from repro.core.system import CheckMode
        from repro.harness.runner import WorkloadCache, make_config

        self.cache = WorkloadCache(max_instructions=self.INSTRUCTIONS,
                                   seed=self.seed, trace_cache=None, jobs=1)
        for profile in self.PROFILES:
            self.cache.get(profile)
        self.configs = {
            self._pool_label(pool): make_config(
                parse_checkers(pool[0]), CheckMode(pool[1]),
                hash_mode=pool[2])
            for pool in self.POOLS
        }

    @staticmethod
    def _pool_label(pool) -> str:
        spec, mode, hash_mode = pool
        return f"{spec}/{mode}{'/hash' if hash_mode else ''}"

    def ops(self):
        return [(f"{profile}|{label}", self._op(profile, label))
                for profile in self.PROFILES for label in self.configs]

    def warm(self, key: str) -> None:
        profile, label = key.split("|")
        if label == self._pool_label(self.POOLS[0]):
            # A pass is a fresh figure sweep: each profile's unchecked
            # baseline is timed once, by its first configuration.
            self.cache.get(profile).baselines.clear()

    def _op(self, profile: str, label: str):
        def run():
            result = self.cache.run_config(profile, self.configs[label])
            row = {
                "workload": result.workload,
                "config": result.config_label,
                "instructions": result.instructions,
                "segments": result.segments,
                "checkpoints": result.checkpoints,
                "baseline_time_ns": result.baseline_time_ns,
                "checked_time_ns": result.checked_time_ns,
                "stall_ns": result.stall_ns,
                "coverage": result.coverage,
                "lsl_bytes": result.lsl_bytes,
                "noc_extra_llc_ns": result.noc_extra_llc_ns,
                "cut_reasons": result.cut_reasons,
                "verified_clean": all(not r.detected
                                      for r in result.verify_results),
            }
            return result.instructions, row
        return run

    def check(self, key, row):
        problems = []
        if not row["verified_clean"]:
            problems.append("healthy verify sample diverged")
        if not 0.0 <= row["coverage"] <= 1.0:
            problems.append(f"coverage {row['coverage']} outside [0, 1]")
        if row["instructions"] <= 0 or row["checked_time_ns"] <= 0:
            problems.append("empty run")
        return problems


# -- campaign ----------------------------------------------------------------

class Campaign(Workload):
    """Fault-injection campaigns of the four detection schemes on one
    program: Fig. 8's ``paraverser`` and the related-work schemes.

    The simulated program keeps the repository's default seed, so the
    timing model and trace are identical across benchmark seeds, and the
    benchmark seed slides every trial window by ``seed % SLIDE`` trials.
    Trial costs vary about as much as their mean, so windows far apart
    would change the cost of a pass by some 15% from seed to seed;
    windows that overlap keep seeds comparable while each still runs
    trials some others do not.  The engine keeps four per-spec contexts,
    so the four specs stay built from set-up on.
    """

    name = "campaign"
    work_unit = "trials"
    SCHEMES = ("paraverser", "dme", "ithica-sdc", "meek-ro")
    PROGRAM = "gcc"
    INSTRUCTIONS = 30_000
    SPEC_SEED = 7
    WINDOW = 60
    SLIDE = 8

    def _spec(self, scheme: str):
        from repro.faults.engine import CampaignSpec
        from repro.faults.scenarios import default_fault_kinds

        return CampaignSpec(
            workload=self.PROGRAM, checkers="1xA510@1.0",
            mode="opportunistic", instructions=self.INSTRUCTIONS,
            seed=self.SPEC_SEED, trials=self.WINDOW,
            trial_offset=self.seed % self.SLIDE,
            fault_kinds=default_fault_kinds(scheme), scheme=scheme)

    def setup(self) -> None:
        from repro.faults import engine

        _forget_process_caches()
        self.specs = {scheme: self._spec(scheme) for scheme in self.SCHEMES}
        # One trial just past the window builds each spec's per-process
        # context: trace, checked run, segments, campaign object.
        for spec in self.specs.values():
            engine.run_campaign(dataclasses.replace(
                spec, trials=1, trial_offset=spec.trial_offset + spec.trials),
                jobs=1)

    def ops(self):
        return [(scheme, self._op(spec))
                for scheme, spec in self.specs.items()]

    def attempts(self, key: str) -> int:
        return self.WINDOW

    def _op(self, spec):
        from repro.faults import engine

        def run():
            outcome = engine.run_campaign(spec, jobs=1)
            return outcome.injected, [record.to_json()
                                      for record in outcome.records]
        return run

    def check(self, key, row):
        spec = self.specs[key]
        window = list(range(spec.trial_offset,
                            spec.trial_offset + spec.trials))
        problems = []
        if [record["trial"] for record in row] != window:
            problems.append("trial records do not cover the window")
        if any(record["detected"] and record["masked"] for record in row):
            problems.append("a trial is both detected and masked")
        return problems

    def per_layer(self, phase):
        return {f"faults.scheme.{scheme}_ms": best * 1e3 / self.WINDOW
                for scheme, best in phase.best_s.items()}


# -- fleet + control ---------------------------------------------------------

class FleetControl(Workload):
    """The fleet traffic matrix plus the diurnal control-loop arms."""

    name = "fleet-control"
    work_unit = "simulated requests"
    POLICIES = ("random", "shortest", "jbsq2", "affinity")
    MODES = ("full", "opportunistic")
    LOADS = (0.7, 0.92)
    CELL_DURATION_S = 0.5

    def setup(self) -> None:
        from repro.control.bench import DEFAULT_CONTROLLER, diurnal_config
        from repro.fleet import sim
        from repro.fleet.sim import FleetTrafficConfig

        base = FleetTrafficConfig(duration_s=self.CELL_DURATION_S,
                                  seed=self.seed)
        self.configs = {
            f"cell:{cfg.policy}/{cfg.mode}/{cfg.load:g}": cfg
            for cfg in sim.matrix(list(self.POLICIES), list(self.MODES),
                                  list(self.LOADS), base)
        }
        arm = diurnal_config(seed=self.seed)
        self.configs.update({
            "diurnal:always_full": dataclasses.replace(arm, mode="full"),
            "diurnal:always_opportunistic": dataclasses.replace(
                arm, mode="opportunistic"),
            "diurnal:controlled": dataclasses.replace(
                arm, controller=DEFAULT_CONTROLLER),
        })
        for cfg in self.configs.values():
            cfg.traffic_config()
            cfg.server_config().validate_rate()
        # One short replication per cell shape lets lazy imports and
        # module-level tables settle before anything is timed.
        for cfg in self.configs.values():
            sim.run_cell(dataclasses.replace(cfg, duration_s=0.01))

    def ops(self):
        return [(key, self._op(cfg)) for key, cfg in self.configs.items()]

    def _op(self, cfg):
        from repro.fleet import metrics, sim

        def run():
            result = sim.run_cell(cfg)
            row = dataclasses.asdict(metrics.summarize(result))
            row["switches"] = result.switches
            row["epochs"] = len(result.epochs)
            return result.completed, row
        return run

    def check(self, key, row):
        problems = []
        if row["completed"] > row["offered"] or row["completed"] <= 0:
            problems.append("completed requests out of range")
        if not 0.0 <= row["coverage"] <= 1.0:
            problems.append(f"coverage {row['coverage']} outside [0, 1]")
        if row["p50_ms"] > row["p99_ms"]:
            problems.append("p50 above p99")
        return problems


WORKLOADS = {cls.name: cls for cls in (RunSweep, Campaign, FleetControl)}


# -- the measuring loop ------------------------------------------------------

@dataclasses.dataclass
class Phase:
    """What one measured phase produced.

    Every operation of a pass is repeated across the phase, and its
    fastest repeat (``best_s``) stands for it: contention from other
    tenants of the host only ever adds time.
    """

    #: CPU seconds of every timed operation together.
    timed_s: float = 0.0
    #: Work of one pass, per operation.
    work: dict = dataclasses.field(default_factory=dict)
    #: Fastest CPU time of each operation.
    best_s: dict = dataclasses.field(default_factory=dict)
    runs: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    digests: dict = dataclasses.field(default_factory=dict)

    @property
    def rate(self) -> float:
        """Work of one pass per CPU second of its fastest operations."""
        best = sum(self.best_s.values())
        return sum(self.work[key] for key in self.best_s) / best \
            if best > 0 else 0.0

    @property
    def op_p50_ms(self) -> float:
        """Median over the pass's operations of their fastest time."""
        return statistics.median(self.best_s.values()) * 1e3 \
            if self.best_s else 0.0


@contextmanager
def paused(tracer):
    """Keep untimed preparation out of the trace."""
    if tracer is None:
        yield
        return
    was, tracer.on = tracer.on, False
    try:
        yield
    finally:
        tracer.on = was


#: Consecutive failing operations after which a phase gives up.
MAX_CONSECUTIVE_ERRORS = 3


def measure(workload: Workload, seconds: float, expected: dict | None,
            tracer=None, passes: int | None = None,
            digests: dict | None = None) -> Phase:
    """Repeat passes for ``seconds`` of wall time, at least one pass.

    With ``passes`` set, run exactly that many passes instead (digest
    generation).  Every result row is digested outside the timed region
    and checked against ``expected`` (the pinned digests of this seed)
    when given, else against its first digest in ``digests``, which
    phases of one run share.
    """
    phase = Phase(digests={} if digests is None else digests)
    ops = workload.ops()
    errors = 0
    index = 0
    deadline = wall_now() + seconds
    while True:
        if index >= len(ops) and (
                wall_now() >= deadline if passes is None
                else index >= passes * len(ops)):
            break
        key, fn = ops[index % len(ops)]
        index += 1
        attempts = workload.attempts(key)
        phase.attempted += attempts
        try:
            with paused(tracer):
                workload.warm(key)
            start = cpu_now()
            work, row = fn()
            elapsed = cpu_now() - start
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            phase.failed += attempts
            phase.problems.append(f"{key}: {type(exc).__name__}: {exc}")
            errors += 1
            if errors >= MAX_CONSECUTIVE_ERRORS:
                break
            continue
        errors = 0
        phase.runs += 1
        phase.timed_s += elapsed
        phase.best_s[key] = min(elapsed, phase.best_s.get(key, elapsed))
        found = digest(row)
        first = phase.digests.setdefault(key, found)
        want = expected.get(key) if expected is not None else first
        problems = workload.check(key, row)
        if want != found:
            problems.append(f"digest {found} != expected {want}")
        if phase.work.setdefault(key, work) != work:
            problems.append(f"work {work} != {phase.work[key]} before")
        if problems:
            phase.failed += attempts
            phase.problems.extend(f"{key}: {p}" for p in problems)
    return phase
