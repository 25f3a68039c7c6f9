"""Clients for the evaluation service: blocking and asyncio flavours.

The sync :class:`EvalClient` is a plain socket wrapper for scripts and
the ``paraverser eval`` CLI; :class:`AsyncEvalClient` multiplexes many
in-flight requests over one connection for asyncio callers, matching
responses to requests by ``request_id``; the shard router's links to
its backends are instances of it too.  :class:`RouterClient` discovers
a shard router's consistent-hash ring (the ``ring`` op) and then talks
straight to the owning backend per request — ring locality without the
extra front-door hop — falling back along the ring's failover order
when a shard is unreachable.
"""

from __future__ import annotations

import asyncio
import itertools
import socket

from repro.serve import protocol
from repro.serve.protocol import (
    CampaignRequest,
    EvalRequest,
    EvalResponse,
    ProtocolError,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8347


class EvalClient:
    """Blocking newline-JSON client; one request at a time."""

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 connect_timeout_s: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self._sock: socket.socket | None = None
        self._file = None

    def connect(self) -> "EvalClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s)
            # Response waits are governed by the request deadline, not
            # the connect timeout.
            self._sock.settimeout(None)
            self._file = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "EvalClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    def _round_trip(self, payload: dict) -> dict:
        # Any failure tears the connection down before propagating:
        # retry loops (RouterClient failover, flapping servers) must
        # never accumulate half-dead sockets across attempts, and the
        # next call must reconnect instead of reusing a broken fd.
        try:
            self.connect()
        except OSError:
            self.close()
            raise
        assert self._sock is not None and self._file is not None
        try:
            self._sock.sendall(protocol.encode_message(payload))
            line = self._file.readline()
        except OSError:
            self.close()
            raise
        if not line:
            self.close()
            raise ConnectionError("server closed the connection")
        return protocol.decode_message(line)

    def evaluate(self, request: EvalRequest) -> EvalResponse:
        """Send one eval request and wait for its response."""
        request.validate()
        return protocol.response_from_wire(
            self._round_trip(protocol.request_to_wire(request)))

    def campaign(self, request: CampaignRequest) -> EvalResponse:
        """Send one fault-injection campaign and wait for its row."""
        request.validate()
        return protocol.response_from_wire(
            self._round_trip(protocol.campaign_to_wire(request)))

    def stats(self, since: int | None = None) -> dict:
        """Fetch the service's stats tree (``serve.*`` telemetry).

        Plain call returns the bare tree.  With ``since=<epoch>`` the
        server publishes a telemetry epoch and returns ``{"epoch",
        "stats", "delta"}`` — pass the returned ``epoch`` back as the
        next ``since`` to stream counter changes incrementally
        (``since=0`` starts a stream).
        """
        payload: dict = {"op": protocol.OP_STATS}
        if since is not None:
            payload["since"] = since
        response = protocol.response_from_wire(self._round_trip(payload))
        if not response.ok or response.result is None:
            raise ProtocolError(f"stats query failed: {response.error}")
        return response.result

    def ping(self) -> bool:
        try:
            response = protocol.response_from_wire(
                self._round_trip({"op": protocol.OP_PING}))
        except (OSError, ProtocolError):
            return False
        return response.ok


class BackendDown(ConnectionError):
    """The connection failed or was closed with a request outstanding."""


class AsyncEvalClient:
    """Asyncio client multiplexing pipelined requests over one connection.

    Responses are matched to requests by ``request_id``; a request sent
    without one gets ``<id_prefix><n>``.  Concurrent first requests
    share one connect, bounded by ``connect_timeout_s``.  On EOF, a
    connection error or :meth:`close`, every outstanding waiter raises
    :class:`BackendDown` instead of hanging, and the next request
    reconnects — which is what the shard router's failover needs:
    marking a shard down closes its client, the pending forwards raise,
    and the dispatch loop re-sends them to the next ring replica.
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 connect_timeout_s: float = 5.0,
                 id_prefix: str = "r") -> None:
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self._writer: asyncio.StreamWriter | None = None
        self._read_task: asyncio.Task | None = None
        self._connect_lock = asyncio.Lock()
        self._waiters: dict[str, asyncio.Future] = {}
        self._ids = (f"{id_prefix}{n}" for n in itertools.count(1))

    async def connect(self) -> "AsyncEvalClient":
        # Serialised: concurrent first requests must share one
        # connection, not each open their own and replace the reader.
        async with self._connect_lock:
            if self._writer is not None:
                return self
            try:
                reader, self._writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port,
                                            limit=protocol.MAX_LINE_BYTES),
                    timeout=self.connect_timeout_s)
            except (OSError, asyncio.TimeoutError) as exc:
                raise BackendDown(
                    f"connect to {self.host}:{self.port} failed: {exc}"
                ) from exc
            self._read_task = asyncio.create_task(
                self._read_loop(reader),
                name=f"client-{self.host}:{self.port}")
        return self

    async def close(self) -> None:
        """Drop the connection; outstanding waiters raise BackendDown."""
        task, self._read_task = self._read_task, None
        writer, self._writer = self._writer, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._fail_waiters(BackendDown(
            f"connection to {self.host}:{self.port} closed"))

    async def __aenter__(self) -> "AsyncEvalClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        exc: Exception = BackendDown(
            f"{self.host}:{self.port} closed the connection")
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                payload = protocol.decode_message(line)
                waiter = self._waiters.pop(
                    payload.get("request_id", ""), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(payload)
        except (OSError, ValueError) as caught:
            # ValueError: a garbage line (ProtocolError) or one longer
            # than the stream limit.
            exc = BackendDown(
                f"connection to {self.host}:{self.port} failed: {caught}")
        except asyncio.CancelledError:
            exc = BackendDown(
                f"connection to {self.host}:{self.port} closed")
        self._fail_waiters(exc)
        # Reset so the next request reconnects (and fails fast on a
        # dead server) rather than writing into a half-closed socket
        # and waiting forever for a response that cannot come.
        writer, self._writer = self._writer, None
        if asyncio.current_task() is self._read_task:
            self._read_task = None
        if writer is not None:
            writer.close()

    def _fail_waiters(self, exc: Exception) -> None:
        waiters, self._waiters = self._waiters, {}
        for waiter in waiters.values():
            if not waiter.done():
                waiter.set_exception(exc)

    async def request(self, payload: dict) -> dict:
        """One raw round trip; raises :class:`BackendDown` on link loss."""
        if not payload.get("request_id"):
            payload = {**payload, "request_id": next(self._ids)}
        await self.connect()
        assert self._writer is not None
        request_id = payload["request_id"]
        future = asyncio.get_running_loop().create_future()
        self._waiters[request_id] = future
        try:
            self._writer.write(protocol.encode_message(payload))
            await self._writer.drain()
        except OSError as exc:
            self._waiters.pop(request_id, None)
            await self.close()
            raise BackendDown(
                f"send to {self.host}:{self.port} failed: {exc}") from exc
        try:
            return await future
        finally:
            self._waiters.pop(request_id, None)

    async def evaluate(self, request: EvalRequest) -> EvalResponse:
        request.validate()
        return protocol.response_from_wire(
            await self.request(protocol.request_to_wire(request)))

    async def campaign(self, request: CampaignRequest) -> EvalResponse:
        request.validate()
        return protocol.response_from_wire(
            await self.request(protocol.campaign_to_wire(request)))

    async def stats(self, since: int | None = None) -> dict:
        """Stats tree, or epoch view with ``since`` (see
        :meth:`EvalClient.stats`)."""
        payload: dict = {"op": protocol.OP_STATS}
        if since is not None:
            payload["since"] = since
        response = protocol.response_from_wire(await self.request(payload))
        if not response.ok or response.result is None:
            raise ProtocolError(f"stats query failed: {response.error}")
        return response.result

    async def ping(self) -> bool:
        """True when the server answers ``ping`` with ``ok``."""
        return protocol.response_from_wire(
            await self.request({"op": protocol.OP_PING})).ok


class RouterClient:
    """Sync client that follows a shard router's ring to the backends.

    On first use it asks the router (``host``/``port``) for its ring —
    shard names, addresses, virtual-node count — then sends each
    request directly to the shard owning its trace key, exactly where
    the router itself would have forwarded it.  A shard that cannot be
    reached is skipped in favour of the next ring replica, mirroring
    the router's failover order, and its connection is closed so retry
    loops never leak sockets.  ``refresh()`` re-reads the ring after
    fleet changes.
    """

    def __init__(self, host: str = DEFAULT_HOST,
                 port: int = DEFAULT_PORT,
                 connect_timeout_s: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self._ring = None
        self._addresses: dict[str, tuple[str, int]] = {}
        self._clients: dict[str, EvalClient] = {}

    # -- ring discovery ----------------------------------------------------

    def refresh(self) -> None:
        """(Re-)fetch the ring description from the router."""
        from repro.router.ring import HashRing

        with EvalClient(self.host, self.port,
                        connect_timeout_s=self.connect_timeout_s) as probe:
            payload = probe._round_trip({"op": protocol.OP_RING})
        response = protocol.response_from_wire(payload)
        if not response.ok or response.result is None:
            raise ProtocolError(f"ring query failed: {response.error}")
        ring = response.result
        self._addresses = {
            backend["name"]: (backend["host"], backend["port"])
            for backend in ring.get("backends", [])
        }
        if not self._addresses:
            raise ProtocolError("router reported an empty ring")
        self._ring = HashRing(sorted(self._addresses),
                              replicas=int(ring.get("replicas", 1)))

    def _ensure_ring(self):
        if self._ring is None:
            self.refresh()
        return self._ring

    def _client(self, name: str) -> EvalClient:
        client = self._clients.get(name)
        if client is None:
            host, port = self._addresses[name]
            client = EvalClient(host, port,
                                connect_timeout_s=self.connect_timeout_s)
            self._clients[name] = client
        return client

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    def __enter__(self) -> "RouterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request routing ---------------------------------------------------

    def _route(self, request, send) -> EvalResponse:
        ring = self._ensure_ring()
        last_exc: Exception | None = None
        for name in ring.preference(request.trace_key()):
            client = self._client(name)
            try:
                return send(client)
            except (OSError, ConnectionError) as exc:
                # EvalClient closed its socket already; drop the handle
                # so the next attempt reconnects from scratch.
                client.close()
                last_exc = exc
        raise ConnectionError(
            f"no shard reachable for {request.workload!r}: {last_exc}")

    def evaluate(self, request: EvalRequest) -> EvalResponse:
        request.validate()
        return self._route(request,
                           lambda client: client.evaluate(request))

    def campaign(self, request: CampaignRequest) -> EvalResponse:
        """Send one campaign to the shard owning its trace key.

        Whole-campaign placement (no fan-out): fan-out with failover
        bookkeeping is the router's job; this path is for clients that
        want ring locality without the front-door hop.
        """
        request.validate()
        return self._route(request,
                           lambda client: client.campaign(request))

    def stats(self) -> dict:
        """The *router's* stats tree (``router.*`` telemetry)."""
        with EvalClient(self.host, self.port,
                        connect_timeout_s=self.connect_timeout_s) as probe:
            return probe.stats()

    def shard_stats(self, since: dict[str, int] | None = None,
                    ) -> dict[str, dict]:
        """Live stats from every backend shard, keyed by shard name.

        Walks the discovered ring and issues the ``stats`` op directly
        to each backend — the per-shard view the router's own tree
        cannot give (it only sees what it forwarded).  ``since`` maps
        shard name to the last seen epoch id, switching that shard to
        the incremental ``{"epoch", "stats", "delta"}`` shape.  An
        unreachable shard reports ``{"error": ...}`` instead of taking
        the sweep down.
        """
        self._ensure_ring()
        since = since or {}
        report: dict[str, dict] = {}
        for name in sorted(self._addresses):
            client = self._client(name)
            try:
                report[name] = client.stats(since.get(name))
            except (OSError, ConnectionError, ProtocolError) as exc:
                client.close()
                report[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return report
