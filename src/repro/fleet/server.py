"""Per-server queue plus the ParaVerser checking model.

Each fleet server is one ParaVerser node: a big main core running
requests FIFO, shadowed by a checker pool replaying its segments.  The
checker pool's relative throughput comes from the ``repro.cpu`` core
presets (:func:`checker_relative_rate`), so ``2xA510@2.0`` genuinely
cannot keep up with an X2 at 3 GHz while ``1xX2@3.0`` can.

Checking work is tracked as a *lag*: seconds of committed main-core work
the checkers have not yet replayed.  The load-store-log capacity bounds
how far the main core may run ahead (``lag_bound_s``); what happens at
the bound is the mode split the paper's section III argues about:

* **full** coverage — the main core stalls until the checkers drain back
  to the bound.  Every request is checked; the cost lands in the tail of
  the latency distribution.
* **opportunistic** coverage — a request arriving at a saturated lag is
  executed *unchecked* (its work never enters the lag).  Latency is
  clean; the cost is coverage, i.e. SDC exposure.

The lag drains whether the main core is busy or idle — checkers are
independent cores — and every state change happens at event times the
simulator controls, so the model is exact, not time-stepped.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.config import CoreConfig, CoreKind
from repro.cpu.presets import CORE_CLASSES, parse_pool

#: In-order cores sustain a lower fraction of their issue width than the
#: big out-of-order core; 0.6 calibrates a single 2 GHz A510 to roughly
#: the keep-up behaviour the paper reports for memory-bound codes.
IN_ORDER_EFFICIENCY = 0.6

#: The main core every fleet server runs (Table I): X2 at 3 GHz.
MAIN_THROUGHPUT = CORE_CLASSES["X2"].width * 3.0


def group_replay_rate(count: int, config: CoreConfig, ghz: float) -> float:
    """Replay throughput of one pool group, in instructions per ns.

    Issue width times frequency, derated by :data:`IN_ORDER_EFFICIENCY`
    for in-order cores — the same presets the cycle-level model uses,
    collapsed to one number for the fleet timescale.
    """
    efficiency = 1.0 if config.kind == CoreKind.OUT_OF_ORDER \
        else IN_ORDER_EFFICIENCY
    return count * config.width * ghz * efficiency


def checker_relative_rate(spec: str) -> float:
    """Checker-pool replay throughput relative to the main core.

    ``spec`` is a pool spec (:func:`repro.cpu.presets.parse_pool`);
    ``"none"`` — checking disabled, e.g. peak-load hours in the role
    scheduler — replays nothing, which only opportunistic mode accepts.
    """
    return sum(group_replay_rate(*group)
               for group in parse_pool(spec)) / MAIN_THROUGHPUT


#: The checking modes a server can run in (Fig. 1's spectrum).
MODES = ("full", "opportunistic", "disabled")


@dataclass(frozen=True)
class ServerConfig:
    """One server's checking arrangement."""

    #: Checker pool spec, e.g. ``"4xA510@2.0"`` (the paper's standard
    #: pool; its replay rate is 0.96 of the main core, so full coverage
    #: is stable below that load and pays tail stalls near it).
    checkers: str = "4xA510@2.0"
    #: ``"full"`` stalls at the lag bound; ``"opportunistic"`` drops
    #: coverage instead; ``"disabled"`` runs every request unchecked
    #: (checking scaled to zero at peak load, section I / Fig. 1).
    mode: str = "full"
    #: Seconds of main-core work the LSL lets the checkers lag behind.
    lag_bound_s: float = 4e-3

    def relative_rate(self) -> float:
        return checker_relative_rate(self.checkers)

    def validate_rate(self) -> float:
        """Replay rate, rejecting inconsistent (mode, pool) pairs."""
        if self.mode not in MODES:
            raise ValueError(f"unknown server mode {self.mode!r}; "
                             f"pick from {', '.join(MODES)}")
        rate = self.relative_rate()
        if self.mode == "full" and rate <= 0.0:
            raise ValueError(
                "full coverage needs a live checker pool; "
                f"got checkers={self.checkers!r}")
        return rate


@dataclass
class ServerStats:
    """Per-server accounting over one simulation."""

    completions: int = 0
    busy_s: float = 0.0
    stall_s: float = 0.0
    checked_work_s: float = 0.0
    unchecked_work_s: float = 0.0
    max_in_system: int = 0
    max_lag_s: float = 0.0


class Server:
    """FIFO server with lazy checker-lag integration.

    The simulator owns time; the server only ever moves its clocks
    forward.  ``in_system`` counts queued + running requests (what the
    dispatch policies see).
    """

    def __init__(self, index: int, config: ServerConfig) -> None:
        self.index = index
        self.config = config
        self.check_rate = config.validate_rate()
        self.in_system = 0
        self.stats = ServerStats()
        self._lag_s = 0.0
        self._lag_at = 0.0  # sim time the lag was last integrated at
        self._free_at = 0.0  # when the core finishes its current work

    def reconfigure(self, t: float, config: ServerConfig) -> None:
        """Swap mode/pool/DVFS point at an epoch boundary (time ``t``).

        The lag is integrated up to ``t`` under the *old* pool first, so
        a reconfiguration is exact: work committed before the switch
        drains at the old rate, work after at the new one.  Unreplayed
        lag survives the switch — the LSL's content does not vanish when
        the controller reshapes the pool (it keeps draining under the
        new rate, or sits inert if the new pool is ``"none"``).
        """
        rate = config.validate_rate()
        self._drain_to(t)
        self.config = config
        self.check_rate = rate

    def _drain_to(self, t: float) -> None:
        """Integrate checker progress up to sim time ``t``."""
        if t > self._lag_at:
            self._lag_s = max(
                0.0, self._lag_s - (t - self._lag_at) * self.check_rate)
            self._lag_at = t

    def lag_at(self, t: float) -> float:
        """Current checker lag (seconds of unreplayed work) at ``t``."""
        self._drain_to(t)
        return self._lag_s

    def admit(self, t: float) -> None:
        """A request was routed here (it may still queue)."""
        self.in_system += 1
        if self.in_system > self.stats.max_in_system:
            self.stats.max_in_system = self.in_system

    def start(self, t: float, service_s: float) -> float:
        """Begin serving one request; returns its finish time.

        ``t`` is when the core gets to it (max of arrival and the
        previous finish — the simulator passes the later of the two).
        """
        self._drain_to(t)
        start = t
        checked = self.config.mode != "disabled"
        if checked and self._lag_s > self.config.lag_bound_s:
            if self.config.mode == "full":
                # Stall the main core until the checkers catch back up
                # to the bound; the lag drains at check_rate meanwhile.
                stall = (self._lag_s - self.config.lag_bound_s) \
                    / self.check_rate
                self.stats.stall_s += stall
                start += stall
                self._drain_to(start)
            else:
                # Opportunistic: run now, give up on checking this one.
                checked = False
        finish = start + service_s
        self._drain_to(finish)
        if checked:
            self._lag_s += service_s
            if self._lag_s > self.stats.max_lag_s:
                self.stats.max_lag_s = self._lag_s
            self.stats.checked_work_s += service_s
        else:
            self.stats.unchecked_work_s += service_s
        self.stats.busy_s += service_s
        self._free_at = finish
        return finish

    def depart(self, t: float) -> None:
        """A request finished and left."""
        del t
        self.in_system -= 1
        self.stats.completions += 1
