"""Event-driven fleet simulator (arrivals, dispatch, service, checking).

One :class:`FleetTrafficSim` run plays a stream of requests from
:mod:`repro.fleet.traffic` through a dispatch policy
(:mod:`repro.fleet.dispatch`) onto a row of checking servers
(:mod:`repro.fleet.server`), using a single event heap holding arrivals
and departures.  Determinism contract:

* every stochastic value is a pure function of ``(seed, request id,
  site)`` (see :func:`repro.fleet.traffic.stream_rng`) — event
  *processing* never draws randomness, so results do not depend on heap
  implementation details;
* heap entries carry a scheduling sequence number, so equal-time events
  pop in the order they were scheduled;
* replications are pure functions of ``(config, rep)`` with sha256-mixed
  per-rep seeds and are merged in rep order — ``--jobs 4`` output is
  bit-identical to ``--jobs 1``.

**Epochs and runtime reconfiguration.**  With ``epoch_s > 0`` the run is
divided into fixed control epochs.  At each boundary the simulator
closes the window (per-window latencies, lag, coverage, energy proxy),
hands the observation to an optional closed-loop controller
(:mod:`repro.control`), and applies the returned action — mode
(``full``/``opportunistic``/``disabled``), checker pool spec, and DVFS
point all swap exactly at the boundary via
:meth:`~repro.fleet.server.Server.reconfigure`.  Controllers are built
from a plain-dict spec carried by the config, so a controlled cell
fans over worker processes like any other: the controller is a
deterministic function of the (deterministic) epoch observations, and
the epoch stream is bit-identical at any ``--jobs``.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import asdict, dataclass, field, replace

from repro.fleet.dispatch import make_policy
from repro.fleet.server import Server, ServerConfig, ServerStats
from repro.fleet.traffic import (
    Request,
    ServiceModel,
    TrafficConfig,
    make_generator,
    poisson_rate_for_load,
    service_model_for,
)

_ARRIVAL, _DEPART = 0, 1


def rep_seed(seed: int, rep: int) -> int:
    """The independent seed of replication ``rep`` (sha256-mixed)."""
    blob = f"fleetrep:{seed}:{rep}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


@dataclass(frozen=True)
class FleetTrafficConfig:
    """One cell of the fleet matrix: (policy, mode, load) over a fleet.

    All fields are plain values, so a config round-trips through
    :meth:`to_json`/:meth:`from_json` for the process-pool fan-out.
    """

    servers: int = 8
    policy: str = "shortest"
    mode: str = "full"          # "full" | "opportunistic" | "disabled"
    checkers: str = "4xA510@2.0"
    lag_bound_s: float = 4e-3
    #: Offered per-server utilisation; the open-loop arrival rate is
    #: derived from it (closed loop instead uses clients/think_s).
    load: float = 0.7
    traffic_kind: str = "open"          # "open" | "closed"
    clients: int = 64
    think_s: float = 10e-3
    #: Workload profile the bimodal service split is derived from;
    #: "exponential" selects the memoryless M/M/1 shape instead.
    workload: str = "mcf"
    mean_service_s: float = 1e-3
    n_keys: int = 1024
    zipf_alpha: float = 1.1
    duration_s: float = 2.0
    seed: int = 7
    #: Control-epoch length; 0 disables the epoch machinery entirely
    #: (the run takes the exact pre-epoch fast path).
    epoch_s: float = 0.0
    #: Plain-dict controller spec (see :func:`repro.control.
    #: make_controller`); ``None`` keeps the configured mode static.
    controller: dict | None = None
    #: Piecewise load multipliers over the duration (diurnal curve);
    #: ``None`` keeps the offered rate flat.
    load_curve: tuple[float, ...] | None = None

    @property
    def label(self) -> str:
        """The stats-tree cell name."""
        if self.controller is not None:
            kind = self.controller.get("kind", "ctl")
            return f"{self.policy}_{kind}_load{self.load:g}"
        return f"{self.policy}_{self.mode}_load{self.load:g}"

    def service_model(self) -> ServiceModel:
        if self.workload == "exponential":
            return ServiceModel(kind="exponential",
                                small_s=self.mean_service_s)
        return service_model_for(self.workload, self.mean_service_s)

    def traffic_config(self) -> TrafficConfig:
        service = self.service_model()
        return TrafficConfig(
            kind=self.traffic_kind,
            rate_rps=poisson_rate_for_load(self.load, self.servers,
                                           service.mean_s),
            clients=self.clients,
            think_s=self.think_s,
            n_keys=self.n_keys,
            zipf_alpha=self.zipf_alpha,
            service=service,
            duration_s=self.duration_s,
            rate_curve=self.load_curve,
        )

    def server_config(self) -> ServerConfig:
        return ServerConfig(checkers=self.checkers, mode=self.mode,
                            lag_bound_s=self.lag_bound_s)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "FleetTrafficConfig":
        payload = dict(payload)
        curve = payload.get("load_curve")
        if curve is not None:
            payload["load_curve"] = tuple(curve)
        return cls(**payload)


@dataclass
class TrafficResult:
    """Everything one (or several merged) simulation runs produced."""

    config: FleetTrafficConfig
    #: Sojourn times in completion order (then rep order when merged).
    latencies_s: list[float] = field(default_factory=list)
    offered: int = 0
    completed: int = 0
    server_stats: list[ServerStats] = field(default_factory=list)
    #: Wall of the simulated horizon (max of duration and last finish).
    makespan_s: float = 0.0
    reps: int = 1
    #: Per-epoch records (plain dicts) in epoch order, then rep order
    #: when merged; empty when the epoch machinery is off.
    epochs: list[dict] = field(default_factory=list)
    #: Simulated seconds spent in each checking mode (all servers share
    #: one mode; summed across merged reps).
    mode_residency_s: dict = field(default_factory=dict)
    #: Controller mode/pool switches actually applied.
    switches: int = 0

    def merge(self, other: "TrafficResult") -> None:
        """Fold another replication in (call in rep order)."""
        self.latencies_s.extend(other.latencies_s)
        self.offered += other.offered
        self.completed += other.completed
        self.makespan_s += other.makespan_s  # summed: utilisation divides
        self.reps += other.reps
        self.epochs.extend(other.epochs)
        for mode, seconds in other.mode_residency_s.items():
            self.mode_residency_s[mode] = \
                self.mode_residency_s.get(mode, 0.0) + seconds
        self.switches += other.switches
        for mine, theirs in zip(self.server_stats, other.server_stats):
            mine.completions += theirs.completions
            mine.busy_s += theirs.busy_s
            mine.stall_s += theirs.stall_s
            mine.checked_work_s += theirs.checked_work_s
            mine.unchecked_work_s += theirs.unchecked_work_s
            mine.max_in_system = max(mine.max_in_system,
                                     theirs.max_in_system)
            mine.max_lag_s = max(mine.max_lag_s, theirs.max_lag_s)


class _EpochWindow:
    """Accumulates one control epoch's deltas between boundaries."""

    __slots__ = ("latencies_s", "offered", "completed",
                 "busy_s", "stall_s", "checked_s", "unchecked_s")

    def __init__(self) -> None:
        self.latencies_s: list[float] = []
        self.offered = 0
        self.completed = 0
        self.busy_s = 0.0
        self.stall_s = 0.0
        self.checked_s = 0.0
        self.unchecked_s = 0.0


def _window_percentile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1,
                      int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


class FleetTrafficSim:
    """One event-driven run of one fleet configuration."""

    def __init__(self, config: FleetTrafficConfig,
                 seed: int | None = None, policy=None,
                 controller=None) -> None:
        self.config = config
        self.seed = config.seed if seed is None else seed
        #: Injectable for tests (e.g. a recording wrapper).
        self.policy = policy or make_policy(config.policy, self.seed)
        if config.controller is not None and config.epoch_s <= 0.0:
            raise ValueError("a controller needs epoch_s > 0 "
                             "(epoch boundaries are where it acts)")
        #: Injectable for tests; otherwise built from the config spec.
        self.controller = controller
        if self.controller is None and config.controller is not None:
            from repro.control import make_controller

            self.controller = make_controller(config.controller)

    def run(self) -> TrafficResult:
        config = self.config
        server_config = config.server_config()
        servers = [Server(i, server_config) for i in range(config.servers)]
        generator = make_generator(config.traffic_config(), self.seed)
        occupancy = [0] * config.servers

        events: list = []
        seq = 0
        for request in generator.initial_requests():
            heapq.heappush(events,
                           (request.arrival_s, seq, _ARRIVAL, request, -1))
            seq += 1

        #: Per-server FIFO of requests waiting for the core.
        waiting: list[deque] = [deque() for _ in range(config.servers)]
        #: When each server's core frees up (running request finish).
        running: list[Request | None] = [None] * config.servers
        central: deque = deque()  # JBSQ overflow
        result = TrafficResult(config=config,
                               server_stats=[s.stats for s in servers])
        last_finish = 0.0

        # -- epoch machinery (inactive unless epoch_s > 0) ------------------
        epoch_s = config.epoch_s
        epochs_on = epoch_s > 0.0
        window = _EpochWindow() if epochs_on else None
        epoch_index = 0
        next_epoch_t = epoch_s if epochs_on else float("inf")
        current = server_config
        mode_since = 0.0

        def snapshot_work() -> tuple[float, float, float, float]:
            return (sum(s.stats.busy_s for s in servers),
                    sum(s.stats.stall_s for s in servers),
                    sum(s.stats.checked_work_s for s in servers),
                    sum(s.stats.unchecked_work_s for s in servers))

        def close_epoch(boundary: float) -> None:
            """Close the window ending at ``boundary``; apply control."""
            nonlocal epoch_index, current, mode_since, window
            epoch_index += 1
            busy, stall, checked, unchecked = snapshot_work()
            window.busy_s = busy - window.busy_s
            window.stall_s = stall - window.stall_s
            window.checked_s = checked - window.checked_s
            window.unchecked_s = unchecked - window.unchecked_s
            lags = [s.lag_at(boundary) for s in servers]
            ordered = sorted(window.latencies_s)
            work = window.checked_s + window.unchecked_s
            record = {
                "epoch": epoch_index,
                "t_s": round(boundary, 9),
                "mode": current.mode,
                "checkers": current.checkers,
                "offered": window.offered,
                "completed": window.completed,
                "p50_ms": _window_percentile(ordered, 0.50) * 1e3,
                "p99_ms": _window_percentile(ordered, 0.99) * 1e3,
                "utilization": (window.busy_s
                                / (epoch_s * config.servers)),
                "stall_fraction": (window.stall_s / window.busy_s
                                   if window.busy_s else 0.0),
                "coverage": window.checked_s / work if work else 1.0,
                "busy_s": round(window.busy_s, 9),
                "checked_s": round(window.checked_s, 9),
                "lag_max_frac": (max(lags) / config.lag_bound_s
                                 if lags else 0.0),
                "switched": False,
            }
            if self.controller is not None:
                from repro.control import EpochObservation

                action = self.controller.on_epoch(EpochObservation(
                    epoch=epoch_index,
                    t_s=boundary,
                    epoch_len_s=epoch_s,
                    servers=config.servers,
                    offered=window.offered,
                    completed=window.completed,
                    p50_ms=record["p50_ms"],
                    p99_ms=record["p99_ms"],
                    utilization=record["utilization"],
                    stall_fraction=record["stall_fraction"],
                    coverage=record["coverage"],
                    lag_max_frac=record["lag_max_frac"],
                    busy_s=window.busy_s,
                    checked_work_s=window.checked_s,
                    mode=current.mode,
                    checkers=current.checkers,
                ))
                if action is not None and action.info:
                    record["policy"] = dict(action.info)
                if action is not None and (
                        action.mode != current.mode
                        or action.checkers != current.checkers):
                    result.mode_residency_s[current.mode] = \
                        result.mode_residency_s.get(current.mode, 0.0) \
                        + (boundary - mode_since)
                    mode_since = boundary
                    current = ServerConfig(
                        checkers=action.checkers, mode=action.mode,
                        lag_bound_s=config.lag_bound_s)
                    for server in servers:
                        server.reconfigure(boundary, current)
                    result.switches += 1
                    record["switched"] = True
                    record["next_mode"] = current.mode
                    record["next_checkers"] = current.checkers
            result.epochs.append(record)
            # Re-arm the window with the post-boundary cumulative work.
            fresh = _EpochWindow()
            fresh.busy_s, fresh.stall_s, fresh.checked_s, \
                fresh.unchecked_s = snapshot_work()
            window = fresh

        def assign(request: Request, index: int, t: float) -> None:
            servers[index].admit(t)
            occupancy[index] = servers[index].in_system
            if running[index] is None:
                begin(request, index, t)
            else:
                waiting[index].append(request)

        def begin(request: Request, index: int, t: float) -> None:
            nonlocal seq
            running[index] = request
            finish = servers[index].start(t, request.service_s)
            heapq.heappush(events, (finish, seq, _DEPART, request, index))
            seq += 1

        while events:
            t, _, kind, request, index = heapq.heappop(events)
            # Close every epoch boundary at or before this event, so
            # reconfigurations land exactly at k * epoch_s regardless of
            # event spacing.
            while epochs_on and t >= next_epoch_t \
                    and next_epoch_t <= config.duration_s:
                close_epoch(next_epoch_t)
                next_epoch_t = (epoch_index + 1) * epoch_s
            if kind == _ARRIVAL:
                result.offered += 1
                if window is not None:
                    window.offered += 1
                chosen = self.policy.choose(request, occupancy)
                if chosen is None:
                    central.append(request)
                else:
                    assign(request, chosen, t)
                continue
            # Departure from `index`.
            server = servers[index]
            server.depart(t)
            occupancy[index] = server.in_system
            result.completed += 1
            latency = t - request.arrival_s
            result.latencies_s.append(latency)
            if window is not None:
                window.completed += 1
                window.latencies_s.append(latency)
            last_finish = t
            follow_up = generator.next_request(request, t)
            if follow_up is not None:
                heapq.heappush(
                    events,
                    (follow_up.arrival_s, seq, _ARRIVAL, follow_up, -1))
                seq += 1
            running[index] = None
            if waiting[index]:
                begin(waiting[index].popleft(), index, t)
            # A slot freed either way; the central (JBSQ) queue drains
            # into it even when a waiting request took the core.
            if central and self.policy.admit_on_free(index, occupancy):
                assign(central.popleft(), index, t)

        result.makespan_s = max(config.duration_s, last_finish)
        if epochs_on:
            # Flush any boundaries the event stream never reached, then
            # account the final mode's residency over the whole horizon.
            while next_epoch_t <= config.duration_s:
                close_epoch(next_epoch_t)
                next_epoch_t = (epoch_index + 1) * epoch_s
            result.mode_residency_s[current.mode] = \
                result.mode_residency_s.get(current.mode, 0.0) \
                + (config.duration_s - mode_since)
        return result


def run_cell(config: FleetTrafficConfig, reps: int = 1,
             jobs: int = 1) -> TrafficResult:
    """Run ``reps`` replications of one cell, optionally over a pool.

    Replication ``r`` runs with :func:`rep_seed` ``(config.seed, r)``
    and results are merged in rep order — the merged result is a pure
    function of ``(config, reps)``, independent of ``jobs``.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    results: list[TrafficResult | None] = [None] * reps
    if jobs <= 1 or reps == 1:
        for rep in range(reps):
            results[rep] = FleetTrafficSim(
                config, seed=rep_seed(config.seed, rep)).run()
    else:
        from concurrent.futures import ProcessPoolExecutor

        payload = config.to_json()
        with ProcessPoolExecutor(max_workers=min(jobs, reps)) as pool:
            futures = {rep: pool.submit(run_replication, payload, rep)
                       for rep in range(reps)}
            for rep in range(reps):
                results[rep] = _result_from_payload(config,
                                                   futures[rep].result())
    merged = results[0]
    for extra in results[1:]:
        merged.merge(extra)
    return merged


def run_replication(payload: dict, rep: int) -> dict:
    """Worker-side entry: one replication of one cell, as plain data."""
    config = FleetTrafficConfig.from_json(payload)
    result = FleetTrafficSim(config, seed=rep_seed(config.seed, rep)).run()
    return _result_to_payload(result)


def _result_to_payload(result: TrafficResult) -> dict:
    return {
        "latencies_s": result.latencies_s,
        "offered": result.offered,
        "completed": result.completed,
        "makespan_s": result.makespan_s,
        "reps": result.reps,
        "server_stats": [asdict(s) for s in result.server_stats],
        "epochs": result.epochs,
        "mode_residency_s": result.mode_residency_s,
        "switches": result.switches,
    }


def _result_from_payload(config: FleetTrafficConfig,
                         payload: dict) -> TrafficResult:
    return TrafficResult(
        config=config,
        latencies_s=payload["latencies_s"],
        offered=payload["offered"],
        completed=payload["completed"],
        makespan_s=payload["makespan_s"],
        reps=payload["reps"],
        server_stats=[ServerStats(**s) for s in payload["server_stats"]],
        epochs=payload.get("epochs", []),
        mode_residency_s=payload.get("mode_residency_s", {}),
        switches=payload.get("switches", 0),
    )


def matrix(policies: list[str], modes: list[str], loads: list[float],
           base: FleetTrafficConfig | None = None,
           ) -> list[FleetTrafficConfig]:
    """The (policy, mode, load) cell grid for one sweep."""
    base = base or FleetTrafficConfig()
    return [replace(base, policy=policy, mode=mode, load=load)
            for policy in policies
            for mode in modes
            for load in loads]
