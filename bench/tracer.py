"""Layer tracer, installed from the benchmark's own files.

Nothing under ``src/`` knows about it.  :func:`install` wraps the public
functions and methods of each ``repro`` layer where callers look them
up: the class attribute for a method, and every ``repro`` module global
that holds the original object for a plain function.  The second rule
covers by-value imports such as ``from repro.pipeline.timing import
main_timing`` in ``pipeline/graph.py`` and ``pipeline/report.py``.

Every wrapped call is a span: layer, start, end and parent span, in CPU
seconds of the process.  The parent is the innermost open span (a
``ContextVar``).  A span's self time is its duration minus the union of
its child spans.  Hot per-event fleet functions are aggregated into a
call count and total instead of spans, and that total is subtracted
from the enclosing span.  Spans stay in memory.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import sys
from dataclasses import dataclass, field
from typing import Callable

from common import cpu_now

_PARENT: contextvars.ContextVar = contextvars.ContextVar(
    "bench_parent", default=None)
#: What a ``check_segment`` call is part of: a healthy verify sample or
#: one fault-injection trial (its covered segments and scheme).
_SCOPE: contextvars.ContextVar = contextvars.ContextVar(
    "bench_scope", default=None)

#: Every layer the tracer reports, in table order, with the name of its
#: self-time metric.  Call counts are reported as ``<layer>.calls``.
LAYERS = {
    "workloads.generate": "workloads.generate_s",
    "cpu.functional.execute": "cpu.functional.execute_s",
    "cpu.timing.simulate": "cpu.timing.simulate_s",
    "cpu.timing.warmup": "cpu.timing.warmup_s",
    "pipeline.timing": "pipeline.timing.self_s",
    "pipeline.segment": "pipeline.segment_s",
    "pipeline.check": "pipeline.check_s",
    "core.checker.healthy": "core.checker.healthy_s",
    "pipeline.noc": "pipeline.noc_s",
    "pipeline.schedule": "pipeline.schedule_s",
    "pipeline.report": "pipeline.report_s",
    "pipeline.graph": "pipeline.graph_s",
    "harness.run_config": "harness.run_config_s",
    "faults.campaign": "faults.campaign_s",
    "faults.worker": "faults.worker_s",
    "faults.draw": "faults.draw_s",
    "faults.trial": "faults.trial_self_s",
    "core.checker.faulty": "core.checker.faulty_s",
    "core.checker.classify": "core.checker.classify_s",
    "fleet.cell": "fleet.cell_s",
    "fleet.sim": "fleet.sim.self_s",
    "fleet.traffic": "fleet.traffic_s",
    "fleet.dispatch": "fleet.dispatch_s",
    "fleet.server": "fleet.server_s",
    "control.loop": "control.loop_s",
    "fleet.metrics": "fleet.metrics_s",
}

_PIPELINE = ("harness.run_config", "pipeline.graph", "cpu.timing.simulate",
             "cpu.timing.warmup", "pipeline.timing", "pipeline.segment",
             "pipeline.check", "core.checker.healthy", "pipeline.noc",
             "pipeline.schedule", "pipeline.report")

#: The layers each workload exercises; a traced run records calls in
#: every one of them (the benchmark's self-test checks this).
WORKLOAD_LAYERS = {
    "run-sweep": ("workloads.generate", "cpu.functional.execute")
    + _PIPELINE,
    "campaign": ("faults.campaign", "faults.worker", "faults.draw",
                 "faults.trial", "core.checker.faulty",
                 "core.checker.classify") + _PIPELINE,
    "fleet-control": ("fleet.cell", "fleet.sim", "fleet.traffic",
                      "fleet.dispatch", "fleet.server", "control.loop",
                      "fleet.metrics"),
}

#: Per-layer metrics derived from spans or phases rather than read off
#: one layer; 0 where a workload has none.
DERIVED = {
    "core.checker.segments_per_trial": "count",
    "faults.scheme.paraverser_ms": "ms",
    "faults.scheme.dme_ms": "ms",
    "faults.scheme.ithica-sdc_ms": "ms",
    "faults.scheme.meek-ro_ms": "ms",
    "unattributed_share": "ratio",
    "trace_overhead": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in table order."""
    units: dict[str, str] = {}
    for layer, seconds in LAYERS.items():
        units[seconds] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(DERIVED)
    return units


@dataclass
class _Frame:
    layer: str
    start: float
    parent: "_Frame | None"
    hot: float = 0.0
    children: list = field(default_factory=list)


def _union(intervals: list) -> float:
    covered = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            covered += hi - lo
            end = hi
        elif hi > end:
            covered += hi - end
            end = hi
    return covered


class Tracer:
    """Span store of one process."""

    def __init__(self) -> None:
        self.on = False
        #: (layer, start, end, self seconds) of every closed span.
        self.spans: list[tuple] = []
        #: layer -> [calls, seconds] for aggregated hot functions.
        self.hot: dict[str, list] = {}

    def open(self, layer: str) -> _Frame:
        return _Frame(layer, cpu_now(), _PARENT.get())

    def close(self, frame: _Frame, end: float) -> None:
        duration = end - frame.start
        self_s = duration - frame.hot - _union(frame.children)
        self.spans.append((frame.layer, frame.start, end, max(self_s, 0.0)))
        if frame.parent is not None:
            frame.parent.children.append((frame.start, end))

    def records(self) -> list[dict]:
        return [{"l": layer, "s": start, "e": end, "self": self_s}
                for layer, start, end, self_s in self.spans]


# -- wrappers ----------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One layer boundary to wrap.

    ``names`` are ``"function"`` or ``"Class.method"`` in ``module``;
    ``layer`` is a layer name or a function of the call's arguments.
    ``scope`` sets :data:`_SCOPE` for the call, and ``hot`` aggregates
    instead of recording spans.
    """

    module: str
    names: tuple[str, ...]
    layer: str | Callable
    hot: bool = False
    scope: Callable | None = None


def _span_wrapper(tracer: Tracer, fn, target: Target):
    layer, scope = target.layer, target.scope

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        frame = tracer.open(layer if isinstance(layer, str)
                            else layer(args, kwargs))
        parent = _PARENT.set(frame)
        scoped = _SCOPE.set(scope(args, kwargs)) if scope else None
        try:
            return fn(*args, **kwargs)
        finally:
            if scoped is not None:
                _SCOPE.reset(scoped)
            _PARENT.reset(parent)
            tracer.close(frame, cpu_now())
    return wrapper


def _hot_wrapper(tracer: Tracer, fn, layer: str):
    totals = tracer.hot.setdefault(layer, [0, 0.0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        start = cpu_now()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = cpu_now() - start
            totals[0] += 1
            totals[1] += elapsed
            parent = _PARENT.get()
            if parent is not None:
                parent.hot += elapsed
    return wrapper


# -- what to wrap ------------------------------------------------------------

def _check_layer(args, kwargs) -> str:
    scope = _SCOPE.get()
    if scope == "verify":
        return "core.checker.healthy"
    if isinstance(scope, tuple):
        covered, reduced = scope
        segment = args[1] if len(args) > 1 else kwargs["segment"]
        if not reduced and (covered is None or segment.index in covered):
            return "core.checker.faulty"
        return "core.checker.classify"
    return "core.checker.other"


def _trial_scope(args, kwargs):
    """(covered segment set, reduced-observability scheme?) of a trial."""
    from repro.faults.scenarios import ReducedObservabilityCampaign

    covered = kwargs.get("covered", args[2] if len(args) > 2 else None)
    return (set(covered) if covered is not None else None,
            isinstance(args[0], ReducedObservabilityCampaign))


TARGETS = [
    Target("repro.workloads.generator", ("build_program",),
           "workloads.generate"),
    Target("repro.core.system", ("ParaVerserSystem.execute",),
           "cpu.functional.execute"),
    Target("repro.core.system", ("ParaVerserSystem.run",), "pipeline.graph"),
    Target("repro.harness.runner", ("WorkloadCache.run_config",),
           "harness.run_config"),
    Target("repro.cpu.timing", ("TimingModel.simulate",),
           "cpu.timing.simulate"),
    Target("repro.cpu.timing", ("TimingModel.__init__",
                                "TimingModel.warm_data",
                                "TimingModel.warm_code"),
           "cpu.timing.warmup"),
    Target("repro.pipeline.timing", ("main_timing", "checker_timing",
                                     "baseline_timing"),
           "pipeline.timing"),
    Target("repro.pipeline.trace", ("segment_trace",), "pipeline.segment"),
    Target("repro.pipeline.check", ("verify_sample",), "pipeline.check",
           scope=lambda args, kwargs: "verify"),
    Target("repro.core.checker", ("CheckerCore.check_segment",),
           _check_layer),
    Target("repro.pipeline.noc", ("estimate_traffic", "noc_adjustment"),
           "pipeline.noc"),
    Target("repro.pipeline.schedule", ("schedule_segments",),
           "pipeline.schedule"),
    Target("repro.pipeline.report", ("assemble",), "pipeline.report"),
    Target("repro.faults.engine", ("run_campaign",), "faults.campaign"),
    Target("repro.faults.engine", ("run_trial_in_worker",), "faults.worker"),
    Target("repro.faults.models", ("fault_for_trial",), "faults.draw"),
    Target("repro.faults.campaign", ("FaultCampaign.run_trial",),
           "faults.trial", scope=_trial_scope),
    Target("repro.faults.scenarios",
           ("DivergentCampaign.run_trial",
            "ReducedObservabilityCampaign.run_trial"),
           "faults.trial", scope=_trial_scope),
    Target("repro.faults.scenarios",
           ("ReducedObservabilityCampaign._replay_segment",),
           "core.checker.faulty"),
    Target("repro.fleet.sim", ("run_cell",), "fleet.cell"),
    Target("repro.fleet.sim", ("FleetTrafficSim.run",), "fleet.sim"),
    Target("repro.fleet.traffic",
           ("OpenLoopGenerator.initial_requests",
            "OpenLoopGenerator.next_request",
            "ClosedLoopGenerator.initial_requests",
            "ClosedLoopGenerator.next_request"),
           "fleet.traffic", hot=True),
    Target("repro.fleet.dispatch",
           tuple(f"{cls}.{method}" for cls in (
               "RandomPolicy", "RoundRobinPolicy", "ShortestQueuePolicy",
               "JBSQPolicy", "KeyAffinityPolicy")
               for method in ("choose", "admit_on_free")),
           "fleet.dispatch", hot=True),
    Target("repro.fleet.server",
           tuple(f"Server.{method}" for method in (
               "admit", "start", "depart", "lag_at", "reconfigure")),
           "fleet.server", hot=True),
    Target("repro.control.loop", ("Controller.on_epoch",), "control.loop"),
    Target("repro.fleet.metrics", ("summarize",), "fleet.metrics"),
]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; the tracer records while ``tracer.on``."""
    replaced: dict[int, object] = {}
    for target in TARGETS:
        module = importlib.import_module(target.module)
        for name in target.names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            if target.hot:
                wrapped = _hot_wrapper(tracer, original, target.layer)
            else:
                wrapped = _span_wrapper(tracer, original, target)
            setattr(owner, attr, wrapped)
            if not owner_name:
                replaced[id(original)] = (original, wrapped)
    # Re-point by-value imports of wrapped functions in every module.
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    tracer.on = True


# -- turning spans into per-layer metrics ------------------------------------

def layer_totals(records: list[dict], hot: dict[str, list]) -> dict:
    """Self seconds and call counts per layer."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for record in records:
        layer = record["l"]
        seconds[layer] = seconds.get(layer, 0.0) + record["self"]
        calls[layer] = calls.get(layer, 0) + 1
    for layer, (count, total) in hot.items():
        seconds[layer] = seconds.get(layer, 0.0) + total
        calls[layer] = calls.get(layer, 0) + count
    return {"seconds": seconds, "calls": calls}


def layer_metrics(totals: dict) -> dict:
    """Every per-layer metric; derived ones 0 until the caller sets them."""
    seconds, calls = totals["seconds"], totals["calls"]
    values: dict[str, float] = dict.fromkeys(DERIVED, 0.0)
    for layer, name in LAYERS.items():
        values[name] = seconds.get(layer, 0.0)
        values[f"{layer}.calls"] = calls.get(layer, 0)
    trials = calls.get("faults.trial", 0)
    replays = calls.get("core.checker.faulty", 0) \
        + calls.get("core.checker.classify", 0)
    values["core.checker.segments_per_trial"] = (replays / trials
                                                 if trials else 0.0)
    return values


def attributed_seconds(totals: dict) -> float:
    """Self time of every span and hot aggregate."""
    return sum(totals["seconds"].values())
