"""The newline-JSON front door and the evaluation service behind it.

:class:`LineServer` is the transport both front doors share — this
service and the shard router (:mod:`repro.router.service`): the bind
and lifecycle, per-connection pipelining, the error envelopes for
oversized and malformed lines, the admission name check and the
``ping`` and ``stats`` ops.  :class:`EvalService` adds the eval and
campaign ops on top: TCP accept → queue → batch → pool.

One dispatcher coroutine pulls admitted requests off the
:class:`~repro.serve.queue.AdmissionQueue`, collapses them with
:func:`~repro.serve.batcher.plan_batches`, and launches one task per
batch against the :class:`~repro.serve.workers.WorkerPool`.  Connection
handlers only parse, admit, and await — all heavy work happens in pool
processes, so the event loop stays responsive at high client counts.

Telemetry is published into a ``serve`` group of a standard
:class:`~repro.obs.StatGroup` tree — the same machinery as
``paraverser run --stats-json`` — and streams through a
:class:`~repro.obs.TelemetryBus`: with ``epoch_s > 0`` the service
publishes an epoch snapshot of the whole tree every period (mirrored to
``--telemetry-jsonl`` when given), and the in-band ``stats`` op both
returns the live tree and, given ``since: <epoch>``, the delta stream
newer than that epoch — a client can follow counters incrementally
instead of re-diffing full dumps.
"""

from __future__ import annotations

import asyncio
import logging
from pathlib import Path

from repro.obs import Histogram, StatGroup, TelemetryBus
from repro.serve import protocol
from repro.serve.batcher import Batch, plan_batches
from repro.serve.protocol import (
    CampaignRequest,
    EvalRequest,
    EvalResponse,
    ProtocolError,
    encode_message,
)
from repro.serve.queue import AdmissionQueue, PendingEval
from repro.serve.workers import RETRYABLE_POOL_ERRORS, ROW_ERROR, WorkerPool

log = logging.getLogger("repro.serve")


class LineServer:
    """Newline-JSON TCP server: framing, error envelopes, ping and stats.

    Requests on one connection are served concurrently (pipelining);
    responses carry the request's ``request_id`` and writes are
    serialised by a per-connection lock.  A line longer than
    :data:`~repro.serve.protocol.MAX_LINE_BYTES` gets an error envelope
    and closes the connection; any other malformed line gets an error
    response and the connection keeps serving.  Both count under
    ``<group>.protocol_errors``.

    Subclasses answer their own ops by overriding :meth:`_answer` and
    deferring to it for the rest; :meth:`_refresh_stats` brings
    computed leaves up to date before a ``stats`` answer.
    """

    #: Extra ``ping`` result keys identifying the server.
    ping_result: dict = {}

    def __init__(self, group: str, description: str, *,
                 host: str, port: int,
                 stats: StatGroup | None = None,
                 telemetry: TelemetryBus | None = None) -> None:
        self.host = host
        self.port = port
        self.stats_root = stats if stats is not None else StatGroup("root")
        self._group = group
        self._stats = self.stats_root.group(group, description)
        self.telemetry = telemetry if telemetry is not None \
            else TelemetryBus()
        #: When set, every line's handling time is recorded here.
        self._line_latency: Histogram | None = None
        self._server: asyncio.base_events.Server | None = None
        self._running = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns (host, port)."""
        self._running = True
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port,
            limit=protocol.MAX_LINE_BYTES)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting; subclasses then settle their own work."""
        self._running = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- connection handling ----------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        in_flight: set[asyncio.Task] = set()
        try:
            while self._running:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self._protocol_error()
                    await self._write(writer, protocol.response_to_wire(
                        EvalResponse(protocol.STATUS_ERROR,
                                     error="oversized wire message")),
                        write_lock)
                    break
                if not line:
                    break
                task = asyncio.create_task(
                    self._handle_line(line, writer, write_lock))
                in_flight.add(task)
                task.add_done_callback(in_flight.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop teardown while the connection is open: exit quietly
            # (asyncio's stream glue logs cancelled handler tasks).
            pass
        finally:
            if in_flight:
                await asyncio.gather(*in_flight, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_line(self, line: bytes, writer: asyncio.StreamWriter,
                           write_lock: asyncio.Lock) -> None:
        loop = asyncio.get_running_loop()
        started = loop.time()
        request_id = ""
        try:
            payload = protocol.decode_message(line)
            if not isinstance(payload.get("request_id", ""), str):
                raise ProtocolError("request_id must be a string")
            request_id = payload.get("request_id", "")
            response = await self._answer(payload)
        except ProtocolError as exc:
            self._protocol_error()
            response = EvalResponse(protocol.STATUS_ERROR, request_id,
                                    error=str(exc))
        if self._line_latency is not None:
            self._line_latency.record((loop.time() - started) * 1e3)
        await self._write(writer, protocol.response_to_wire(response),
                          write_lock)

    def _protocol_error(self) -> None:
        self._stats.counter("protocol_errors",
                            "malformed wire messages").inc()

    @staticmethod
    async def _write(writer: asyncio.StreamWriter, payload: dict,
                     write_lock: asyncio.Lock) -> None:
        async with write_lock:
            writer.write(encode_message(payload))
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- ops ---------------------------------------------------------------

    async def _answer(self, payload: dict) -> EvalResponse:
        """The ``ping`` and ``stats`` ops; any other op is unknown."""
        op = payload.get("op", protocol.OP_EVAL)
        request_id = payload.get("request_id", "")
        if op == protocol.OP_PING:
            return EvalResponse(
                protocol.STATUS_OK, request_id,
                result={"protocol": protocol.PROTOCOL_VERSION,
                        **self.ping_result})
        if op == protocol.OP_STATS:
            return EvalResponse(protocol.STATUS_OK, request_id,
                                result=self._stats_result(
                                    payload.get("since")))
        raise ProtocolError(f"unknown op {op!r}")

    @staticmethod
    def _admit(payload: dict) -> EvalRequest | CampaignRequest:
        """Decode an eval or campaign op and reject unknown workloads,
        backends, pool specs and modes at admission, not in a worker."""
        from repro.core.simconfig import CheckMode
        from repro.cpu.presets import pool_instances
        from repro.detect import backend_names
        from repro.workloads.profiles import ALL_PROFILES

        if payload.get("op", protocol.OP_EVAL) == protocol.OP_EVAL:
            request = protocol.request_from_wire(payload)
        else:
            request = protocol.campaign_from_wire(payload)
        if request.workload not in ALL_PROFILES:
            raise ProtocolError(f"unknown workload {request.workload!r}")
        if request.backend is not None \
                and request.backend not in backend_names():
            raise ProtocolError(
                f"unknown detection backend {request.backend!r}; "
                f"known: {', '.join(backend_names())}")
        try:
            if request.checkers is not None:
                pool_instances(request.checkers)
            CheckMode(request.mode)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        return request

    # -- stats -------------------------------------------------------------

    def _refresh_stats(self) -> None:
        """Bring computed leaves up to date before they are read."""

    def _stats_result(self, since) -> dict:
        """The ``stats`` op result: plain tree, or epoch view for
        ``since``.

        Without ``since`` the result is the bare stats tree (the
        original wire shape, kept for old clients).  With ``since:
        <epoch>`` a fresh epoch is published and the result carries the
        new epoch id, the tree, and the summed numeric delta of every
        retained snapshot newer than ``since`` — counters accumulate
        exactly, so polling clients can integrate changes without
        re-diffing full dumps.  A ``since`` older than the bus history
        yields the delta over the retained window only.
        """
        if since is not None and (not isinstance(since, int)
                                  or isinstance(since, bool) or since < 0):
            raise ProtocolError(
                f"stats 'since' must be a non-negative epoch id, "
                f"got {since!r}")
        self._refresh_stats()
        if since is None:
            return self.stats_root.to_dict()
        snapshot = self.telemetry.publish(self.stats_root, label=self._group)
        delta: dict[str, float] = {}
        for past in self.telemetry.poll(since=since, label=self._group):
            for key, change in past.delta.items():
                delta[key] = delta.get(key, 0.0) + change
        return {"epoch": snapshot.epoch, "stats": snapshot.tree,
                "delta": delta}


class EvalService(LineServer):
    """Batched evaluation server over the detection-backend registry."""

    def __init__(self, pool: WorkerPool, *,
                 host: str = "127.0.0.1", port: int = 0,
                 queue_depth: int = 64,
                 batch_window_s: float = 0.01,
                 default_timeout_s: float | None = None,
                 max_retries: int = 2,
                 retry_backoff_s: float = 0.25,
                 stats: StatGroup | None = None,
                 telemetry: TelemetryBus | None = None,
                 epoch_s: float = 0.0,
                 telemetry_jsonl: str | Path | None = None) -> None:
        super().__init__("serve", "evaluation service telemetry",
                         host=host, port=port, stats=stats,
                         telemetry=telemetry)
        self.pool = pool
        self.batch_window_s = batch_window_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.queue = AdmissionQueue(depth=queue_depth,
                                    default_timeout_s=default_timeout_s)
        self.epoch_s = epoch_s
        if telemetry_jsonl is not None:
            self.telemetry.attach_jsonl(telemetry_jsonl)
        self._dispatcher: asyncio.Task | None = None
        self._publisher: asyncio.Task | None = None
        self._batch_tasks: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind, start accepting and dispatching; returns (host, port)."""
        await super().start()
        self._dispatcher = asyncio.create_task(self._dispatch_loop(),
                                               name="serve-dispatch")
        if self.epoch_s > 0:
            self._publisher = asyncio.create_task(
                self._publish_loop(), name="serve-telemetry")
        log.info("serve: listening on %s:%d", self.host, self.port)
        return self.host, self.port

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, shut the pool down."""
        await super().stop()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        if self._publisher is not None:
            self._publisher.cancel()
            try:
                await self._publisher
            except asyncio.CancelledError:
                pass
        # Whatever was admitted but never dispatched is shed; batches
        # already in flight run to completion (pool drain).
        self.queue.drain(
            lambda request: protocol.shed_response(request,
                                                   self.queue.depth))
        if self._batch_tasks:
            await asyncio.gather(*self._batch_tasks, return_exceptions=True)
        self.pool.shutdown(wait=True)
        self._refresh_stats()
        if self.epoch_s > 0:
            # Final epoch so the stream's last line is the shutdown tree.
            self.telemetry.publish(self.stats_root, label="serve")
        self.telemetry.close()

    # -- ops ---------------------------------------------------------------

    async def _answer(self, payload: dict) -> EvalResponse:
        # Campaigns ride the same queue/batch/dispatch path as evals;
        # the request type only changes the worker spec.
        if payload.get("op", protocol.OP_EVAL) in (protocol.OP_EVAL,
                                                   protocol.OP_CAMPAIGN):
            return await self._serve_eval(self._admit(payload))
        return await super()._answer(payload)

    async def _serve_eval(self, request: EvalRequest) -> EvalResponse:
        self._stats.counter("requests_total",
                            "eval requests received").inc()
        pending = self.queue.submit(request)
        loop = asyncio.get_running_loop()
        remaining = pending.remaining(loop.time())
        done, _ = await asyncio.wait({pending.future}, timeout=remaining)
        if done:
            response = pending.future.result()
        else:
            # Deadline passed while queued/executing; the batch result
            # (if it ever lands) is discarded for this waiter.
            pending.resolve(protocol.timeout_response(request))
            response = pending.future.result()
        self._account_response(pending, response, loop.time())
        return response

    def _account_response(self, pending: PendingEval,
                          response: EvalResponse, now: float) -> None:
        latency_ms = (now - pending.enqueued_at) * 1e3
        self._stats.histogram(
            "latency_ms", "request admission-to-response latency",
        ).record(latency_ms)
        self._stats.group("responses").counter(
            response.status, f"responses with status {response.status}",
        ).inc()

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            pending = await self.queue.next_batch(self.batch_window_s)
            if not pending:
                continue
            for batch in plan_batches(pending):
                task = asyncio.create_task(
                    self._run_batch(batch),
                    name=f"serve-batch-{batch.trace_key[0]}")
                self._batch_tasks.add(task)
                task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(self, batch: Batch) -> None:
        self._stats.counter("batches", "worker invocations").inc()
        self._stats.histogram(
            "batch_requests", "requests coalesced per worker invocation",
        ).record(batch.requests)
        self._stats.histogram(
            "batch_sims", "unique simulations per worker invocation",
        ).record(len(batch.groups))
        self._stats.counter(
            "unique_simulations", "simulations actually executed",
        ).inc(len(batch.groups))
        self._stats.counter(
            "requests_served", "requests answered from batch results",
        ).inc(batch.requests)

        rows: list[dict] | None = None
        failure = ""
        for attempt in range(self.max_retries + 1):
            try:
                rows = await self.pool.run_group(batch.specs)
                break
            except RETRYABLE_POOL_ERRORS as exc:
                failure = f"{type(exc).__name__}: {exc}"
                log.warning("serve: batch failed (%s), attempt %d/%d",
                            failure, attempt + 1, self.max_retries + 1)
                self.pool.reset()
                if attempt < self.max_retries:
                    self._stats.counter(
                        "retries", "batches retried after a crash").inc()
                    await asyncio.sleep(
                        self.retry_backoff_s * (2 ** attempt))
        if rows is None:
            self._stats.counter("errors", "batches abandoned").inc()
            for group in batch.groups:
                for waiter in group.waiters:
                    waiter.resolve(protocol.error_response(
                        waiter.request,
                        f"worker pool failed after "
                        f"{self.max_retries + 1} attempts: {failure}"))
            return

        trace = self._stats.group("trace", "functional-trace reuse")
        for group, row in zip(batch.groups, rows):
            if ROW_ERROR in row and len(row) == 1:
                for waiter in group.waiters:
                    waiter.resolve(protocol.error_response(
                        waiter.request, row[ROW_ERROR]))
                continue
            source = row.get("trace_source", "computed")
            trace.counter(f"{source}", f"evaluations with {source} trace",
                          ).inc()
            if source in ("memory", "disk"):
                trace.counter("hits", "trace-cache hits (memory+disk)").inc()
            traffic = row.pop("trace_cache", None)
            if traffic:
                cache_group = trace.group(
                    "cache", "persistent trace-cache traffic")
                for key, value in traffic.items():
                    cache_group.counter(key).inc(value)
            for waiter in group.waiters:
                waiter.resolve(protocol.ok_response(waiter.request, row))

    # -- stats -------------------------------------------------------------

    async def _publish_loop(self) -> None:
        """Stream the stats tree as telemetry epochs every ``epoch_s``."""
        while True:
            await asyncio.sleep(self.epoch_s)
            self._refresh_stats()
            self.telemetry.publish(self.stats_root, label="serve")

    def _refresh_stats(self) -> None:
        queue = self._stats.group("queue", "admission control")
        queue.count("submitted", self.queue.submitted)
        queue.count("shed", self.queue.shed)
        queue.count("expired", self.queue.expired)
        queue.scalar("depth", float(len(self.queue)),
                     "entries currently queued")
        queue.scalar("depth_limit", float(self.queue.depth))
