"""The shard router: one front door over N ``repro.serve`` backends.

Speaks the exact newline-JSON protocol of :mod:`repro.serve.protocol`
on the client side and forwards every eval/campaign to a backend chosen
by the consistent-hash ring (:mod:`repro.router.ring`), keyed on the
request's functional-trace identity so each shard's worker caches stay
hot.  Three mechanisms make the scale-out invisible to results:

* **Failover re-dispatch** — a forward that hits a dead or dying shard
  raises :class:`~repro.serve.client.BackendDown`; the dispatch loop
  marks the shard down and re-sends to the next ring replica.  Because
  evaluations and campaign trials are pure functions of their spec,
  re-execution elsewhere is idempotent by construction.
* **Sim-key dedup** — concurrent requests with equal
  :meth:`~repro.serve.protocol.EvalRequest.sim_key` share one forward,
  so a retry storm cannot multiply load on the shards.
* **Campaign fan-out** — a :class:`CampaignRequest` of T trials is
  split into contiguous ``trial_offset`` windows across the healthy
  shards; per-trial sha256 seeds make every window's records identical
  to the same slice of a single-backend run, and the exact-integer
  merge (:func:`merge_campaign_rows`) reproduces the single-backend
  aggregate row bit-for-bit, whatever the shard count or failover
  history.

The transport — framing, error envelopes, the admission name check,
``ping`` and ``stats`` — is :class:`~repro.serve.service.LineServer`,
shared with the evaluation service; the router adds ring dispatch and
the ``ring`` op.

Telemetry is published as a ``router.*`` group on the standard stats
spine; wall-clock leaves live under ``router.runtime`` so regression
gates can mask them, like ``pipeline.*`` and ``faults.runtime.*``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging

from repro.faults.engine import CampaignTally
from repro.obs import StatGroup
from repro.router.backends import Backend, BackendManager
from repro.router.ring import DEFAULT_REPLICAS, HashRing
from repro.serve import protocol
from repro.serve.client import AsyncEvalClient, BackendDown
from repro.serve.protocol import CampaignRequest, EvalResponse, \
    ProtocolError
from repro.serve.service import LineServer

log = logging.getLogger("repro.router")

#: Row keys that are host wall-clock (or execution-placement) facts,
#: not simulated results; excluded from bit-identity comparisons and
#: recomputed on merge.
RUNTIME_ROW_KEYS = ("elapsed_s", "jobs", "trace_source", "resumed_trials",
                    "trace_cache")


def merge_campaign_rows(rows: list[dict]) -> dict:
    """Merge per-window campaign rows into the whole-campaign row.

    ``rows`` must be ordered by ascending ``trial_offset``.  The merge
    is the sum of the windows' :class:`~repro.faults.engine.CampaignTally`
    integers, so the rates and mean latency come out bit-identical to a
    single backend computing the full trial range.
    """
    merged = dict(rows[0])
    merged.update(
        sum(map(CampaignTally.from_row, rows), CampaignTally()).to_row())
    merged.update({
        "elapsed_s": max(r["elapsed_s"] for r in rows),
        "jobs": sum(r["jobs"] for r in rows),
        "resumed_trials": sum(r["resumed_trials"] for r in rows),
    })
    # Cache traffic is a placement fact, not a simulated result: sum it
    # across windows (it is in RUNTIME_ROW_KEYS, so bit-identity
    # comparisons skip it either way).
    traffic = [r["trace_cache"] for r in rows if "trace_cache" in r]
    if traffic:
        merged["trace_cache"] = {
            key: sum(t.get(key, 0) for t in traffic)
            for key in traffic[0]
        }
    return merged


class RouterService(LineServer):
    """Consistent-hash front end sharding requests across backends."""

    ping_result = {"role": "router"}

    def __init__(self, manager: BackendManager, *,
                 host: str = "127.0.0.1", port: int = 0,
                 replicas: int = DEFAULT_REPLICAS,
                 health_interval_s: float = 2.0,
                 health_timeout_s: float | None = None,
                 stats: StatGroup | None = None) -> None:
        super().__init__("router", "shard router telemetry",
                         host=host, port=port, stats=stats)
        self.manager = manager
        self.ring = HashRing(manager.names, replicas=replicas)
        self.health_interval_s = health_interval_s
        if health_timeout_s:
            self.health_timeout_s = health_timeout_s
        elif health_interval_s > 0:
            self.health_timeout_s = min(2.0, health_interval_s)
        else:
            # No periodic sweeps, but pings still gate last-resort
            # forwards to marked-down shards; keep a sane bound.
            self.health_timeout_s = 2.0
        self._locality = self._stats.group(
            "locality", "primary-owner vs failover placement")
        self._campaign_stats = self._stats.group(
            "campaign", "campaign fan-out accounting")
        # Pre-create the deterministic counters so a zero-traffic leaf
        # still appears in golden stats trees.
        for name, desc in (
                ("requests_total", "requests received"),
                ("evals", "eval requests routed"),
                ("campaigns", "campaign requests routed"),
                ("re_dispatches", "forwards re-sent to another shard"),
                ("mark_downs", "shards marked down"),
                ("mark_ups", "shards marked back up"),
                ("dedup_hits", "requests satisfied by an in-flight twin"),
                ("protocol_errors", "malformed wire messages"),
                ("unroutable", "requests with no reachable shard")):
            self._stats.counter(name, desc)
        self._locality.counter("primary", "requests served by ring owner")
        self._locality.counter("failover", "requests served by a replica")
        self._campaign_stats.counter(
            "trials_forwarded", "campaign trials fanned out")
        self._line_latency = self._stats.group(
            "runtime", "host wall-clock (non-deterministic)").histogram(
            "latency_ms", "front-door request latency")
        self._health_task: asyncio.Task | None = None
        self._inflight: dict[str, asyncio.Task] = {}

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the front door and start the health loop."""
        await super().start()
        if self.health_interval_s > 0:
            self._health_task = asyncio.create_task(
                self._health_loop(), name="router-health")
        log.info("router: listening on %s:%d over %d shard(s)",
                 self.host, self.port, len(self.manager))
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting, settle in-flight forwards, drop the links."""
        await super().stop()
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        if self._inflight:
            await asyncio.gather(*self._inflight.values(),
                                 return_exceptions=True)
        await self.manager.close_links()
        self._refresh_stats()

    # -- health ------------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval_s)
            await self.check_health()

    async def check_health(self) -> None:
        """Ping every backend once; flip health state on the answer."""
        for backend in list(self.manager.backends.values()):
            alive = await self._ping_backend(backend)
            if alive and not backend.healthy:
                self._mark_up(backend)
            elif not alive and backend.healthy:
                await self._mark_down(backend, "health check failed")

    async def _ping_backend(self, backend: Backend) -> bool:
        """One ping on a fresh client, bounded by the health timeout."""
        client = AsyncEvalClient(backend.host, backend.port,
                                 connect_timeout_s=self.health_timeout_s)
        try:
            return await asyncio.wait_for(client.ping(),
                                          timeout=self.health_timeout_s)
        except (OSError, asyncio.TimeoutError, ProtocolError):
            return False
        finally:
            await client.close()

    async def _mark_down(self, backend: Backend, reason: str) -> None:
        backend.healthy = False
        backend.mark_downs += 1
        self._stats.counter("mark_downs").inc()
        log.warning("router: shard %s marked down (%s)",
                    backend.name, reason)
        # Closing the link fails its in-flight waiters with BackendDown,
        # which re-dispatches them to the next ring replica.
        await backend.link.close()

    def _mark_up(self, backend: Backend) -> None:
        backend.healthy = True
        self._stats.counter("mark_ups").inc()
        log.info("router: shard %s marked up", backend.name)

    # -- ops ---------------------------------------------------------------

    async def _answer(self, payload: dict) -> EvalResponse:
        self._stats.counter("requests_total").inc()
        op = payload.get("op", protocol.OP_EVAL)
        if op == protocol.OP_RING:
            return EvalResponse(protocol.STATUS_OK,
                                payload.get("request_id", ""),
                                result=self._ring_payload())
        if op in (protocol.OP_EVAL, protocol.OP_CAMPAIGN):
            self._stats.counter(
                "evals" if op == protocol.OP_EVAL else "campaigns").inc()
            return await self._serve_shared(self._admit(payload))
        return await super()._answer(payload)

    def _ring_payload(self) -> dict:
        """The ring description ``RouterClient`` builds its copy from."""
        return {
            "replicas": self.ring.replicas,
            "backends": [
                {"name": backend.name, "host": backend.host,
                 "port": backend.port, "healthy": backend.healthy}
                for backend in (self.manager.backends[name]
                                for name in self.manager.names)
            ],
        }

    # -- dispatch ----------------------------------------------------------

    async def _serve_shared(self, request) -> EvalResponse:
        """Dedup by sim key, enforce the per-request deadline, dispatch."""
        sim_key = request.sim_key()
        task = self._inflight.get(sim_key)
        if task is None:
            task = asyncio.create_task(self._dispatch(request))
            self._inflight[sim_key] = task
            task.add_done_callback(
                lambda _t, key=sim_key: self._inflight.pop(key, None))
        else:
            self._stats.counter("dedup_hits").inc()
        try:
            # Shield: one waiter timing out must not cancel the shared
            # forward other waiters (or a later twin) still need.
            response = await asyncio.wait_for(asyncio.shield(task),
                                              timeout=request.timeout_s)
        except asyncio.TimeoutError:
            return protocol.timeout_response(request)
        return dataclasses.replace(response,
                                   request_id=request.request_id)

    def _dispatch_order(self, key: tuple) -> list[str]:
        """Ring preference, healthy shards first (down ones last-resort)."""
        preference = self.ring.preference(key)
        healthy = [n for n in preference if self.manager.backends[n].healthy]
        down = [n for n in preference
                if not self.manager.backends[n].healthy]
        return healthy + down

    async def _dispatch(self, request) -> EvalResponse:
        if isinstance(request, CampaignRequest):
            return await self._dispatch_campaign(request)
        return await self._dispatch_single(request,
                                           protocol.request_to_wire)

    async def _dispatch_single(self, request, to_wire,
                               order: list[str] | None = None,
                               ) -> EvalResponse:
        """Forward one request along its failover chain."""
        if not self.manager.backends:
            self._stats.counter("unroutable").inc()
            return EvalResponse(protocol.STATUS_ERROR, request.request_id,
                                error="router has no backends")
        if order is None:
            order = self._dispatch_order(request.trace_key())
        last_error = "no shard attempted"
        forwards = 0
        for name in order:
            backend = self.manager.backends[name]
            if not backend.healthy \
                    and not await self._ping_backend(backend):
                # A down shard is only tried as a last resort when it
                # answers a bounded ping: a dead-but-connectable shard
                # (a SIGKILLed serve's orphaned worker fds can hold its
                # listen socket open) would otherwise swallow the
                # forward and hang it until the request deadline.
                last_error = f"shard {name} is marked down"
                continue
            if forwards > 0:
                self._stats.counter("re_dispatches").inc()
            forwards += 1
            payload = to_wire(dataclasses.replace(request, request_id=""))
            try:
                answer = await self._forward(backend, payload)
            except BackendDown as exc:
                last_error = str(exc)
                backend.re_dispatched_away += 1
                if backend.healthy:
                    await self._mark_down(backend, last_error)
                continue
            if not backend.healthy:
                self._mark_up(backend)
            self._locality.counter(
                "primary" if name == order[0] else "failover").inc()
            return protocol.response_from_wire(answer)
        self._stats.counter("unroutable").inc()
        return EvalResponse(
            protocol.STATUS_ERROR, request.request_id,
            error=f"no reachable shard (last: {last_error})")

    async def _forward(self, backend: Backend, payload: dict) -> dict:
        backend.forwarded += 1
        backend.inflight += 1
        backend.inflight_max = max(backend.inflight_max, backend.inflight)
        try:
            return await backend.link.request(payload)
        finally:
            backend.inflight -= 1

    # -- campaign fan-out --------------------------------------------------

    async def _dispatch_campaign(self, request: CampaignRequest,
                                 ) -> EvalResponse:
        """Split trials across healthy shards; merge exactly.

        Window ``i``'s failover chain is the dispatch order rotated by
        ``i``, so each window lands on its own primary and a dead shard
        only re-routes its own windows.
        """
        order = self._dispatch_order(request.trace_key()) \
            if self.manager.backends else []
        healthy = [n for n in order if self.manager.backends[n].healthy]
        shards = len(healthy) if healthy else len(order)
        if shards <= 1 or request.trials < 2:
            return await self._dispatch_single(
                request, protocol.campaign_to_wire, order=order or None)
        chain = healthy if healthy else order
        windows = self._trial_windows(request, min(shards, request.trials))
        self._campaign_stats.histogram(
            "fanout", "windows per fanned-out campaign",
        ).record(len(windows))
        self._campaign_stats.counter("trials_forwarded").inc(request.trials)
        responses = await asyncio.gather(*[
            self._dispatch_single(
                window, protocol.campaign_to_wire,
                order=chain[i % len(chain):] + chain[:i % len(chain)])
            for i, window in enumerate(windows)
        ])
        rows = []
        for window, response in zip(windows, responses):
            if not response.ok or response.result is None:
                return dataclasses.replace(response,
                                           request_id=request.request_id)
            rows.append(response.result)
        return EvalResponse(protocol.STATUS_OK, request.request_id,
                            result=merge_campaign_rows(rows))

    @staticmethod
    def _trial_windows(request: CampaignRequest,
                       shards: int) -> list[CampaignRequest]:
        """Contiguous trial windows, sizes as even as possible."""
        base, extra = divmod(request.trials, shards)
        windows = []
        start = request.trial_offset
        for i in range(shards):
            count = base + (1 if i < extra else 0)
            if count == 0:
                continue
            windows.append(dataclasses.replace(
                request, trials=count, trial_offset=start, request_id=""))
            start += count
        return windows

    # -- stats -------------------------------------------------------------

    def _refresh_stats(self) -> None:
        shards = self._stats.group("shards", "per-shard dispatch state")
        for name in self.manager.names:
            backend = self.manager.backends[name]
            group = shards.group(name, f"shard at {backend.address}")
            group.count("forwarded", backend.forwarded,
                        "requests forwarded here")
            group.count("re_dispatched_away", backend.re_dispatched_away,
                        "forwards that failed here and moved on")
            group.scalar("queue_depth", float(backend.inflight),
                         "forwards currently awaiting a response")
            group.scalar("inflight_max", float(backend.inflight_max),
                         "peak concurrent forwards")
            group.scalar("healthy", float(backend.healthy),
                         "1 when passing health checks")
        primary = self._locality.counter("primary").value
        failover = self._locality.counter("failover").value
        total = primary + failover
        self._locality.scalar(
            "primary_ratio", primary / total if total else 1.0,
            "fraction of requests served by their ring owner")
