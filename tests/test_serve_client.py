"""Client-side connection hygiene under flaky servers.

The failure mode these tests pin: a retry loop (RouterClient failover,
scripts polling a restarting service) calling into a client whose
``_round_trip`` lost a socket on the way.  Every failed attempt must
fully tear the connection down — no fd creep across retries, and the
next call reconnects from scratch instead of reusing a broken socket.

The asyncio client must never hang: concurrent first requests share
one connection, and a request after the server dropped the connection
reconnects (or raises) instead of waiting on a dead socket.
"""

import asyncio
import os
import socket
import threading

import pytest

from repro.serve import protocol
from repro.serve.client import AsyncEvalClient, BackendDown, EvalClient
from repro.serve.protocol import EvalRequest, STATUS_OK


def _req(**kwargs):
    kwargs.setdefault("backend", "paraverser-full")
    kwargs.setdefault("instructions", 4000)
    kwargs.setdefault("seed", 7)
    return EvalRequest(workload="exchange2", **kwargs)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class FlappingListener:
    """Accepts connections and immediately closes them, forever."""

    def __init__(self):
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(16)
        self.port = self._sock.getsockname()[1]
        self.accepted = 0
        self._running = True
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while self._running:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.accepted += 1
            conn.close()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._running = False
        self._sock.close()
        self._thread.join(timeout=5)


requires_procfs = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"),
    reason="fd accounting needs procfs")


class TestRetryHygiene:
    def test_flapping_listener_leaves_no_socket_behind(self):
        with FlappingListener() as listener:
            client = EvalClient("127.0.0.1", listener.port)
            with pytest.raises(ConnectionError):
                client.evaluate(_req(timeout_s=5.0))
            # The failed round trip tore the connection down entirely.
            assert client._sock is None
            assert client._file is None
            assert listener.accepted >= 1

    @requires_procfs
    def test_no_fd_creep_across_many_retries(self):
        with FlappingListener() as listener:
            client = EvalClient("127.0.0.1", listener.port)
            # Warm-up covers lazily-created fds (epoll, resolver).
            for _ in range(3):
                with pytest.raises((ConnectionError, OSError)):
                    client.evaluate(_req())
            before = _open_fds()
            for _ in range(50):
                with pytest.raises((ConnectionError, OSError)):
                    client.evaluate(_req())
            assert _open_fds() <= before

    @requires_procfs
    def test_refused_connection_leaks_nothing(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nothing listens here now
        client = EvalClient("127.0.0.1", dead_port)
        with pytest.raises(OSError):
            client.evaluate(_req())
        assert client._sock is None
        before = _open_fds()
        for _ in range(20):
            with pytest.raises(OSError):
                client.evaluate(_req())
        assert _open_fds() <= before

    def test_next_call_reconnects_after_failure(self):
        """After a flap, the same client object works against a healthy
        server — no stale state survives the teardown."""
        with FlappingListener() as listener:
            client = EvalClient("127.0.0.1", listener.port)
            with pytest.raises(ConnectionError):
                client.evaluate(_req())
        # Point the same client at a one-shot healthy responder.
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        client.port = server.getsockname()[1]

        def answer_ping():
            conn, _ = server.accept()
            line = conn.makefile("rb").readline()
            payload = protocol.decode_message(line)
            conn.sendall(protocol.encode_message(
                {"v": protocol.PROTOCOL_VERSION, "status": "ok",
                 "request_id": payload.get("request_id", ""),
                 "result": {"protocol": 1}}))
            conn.close()

        responder = threading.Thread(target=answer_ping, daemon=True)
        responder.start()
        try:
            assert client.ping() is True
        finally:
            responder.join(timeout=5)
            server.close()
            client.close()


class AnsweringServer:
    """Answers every line with ``ok``; optionally closes a connection
    after ``close_after`` answers.  Records each accepted connection."""

    def __init__(self, close_after=0):
        self.close_after = close_after
        self.connections = 0
        self.server = None

    async def __aenter__(self):
        self.server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc):
        self.server.close()
        await self.server.wait_closed()

    async def _handle(self, reader, writer):
        self.connections += 1
        answered = 0
        try:
            while line := await reader.readline():
                payload = protocol.decode_message(line)
                writer.write(protocol.encode_message(
                    {"v": protocol.PROTOCOL_VERSION, "status": STATUS_OK,
                     "request_id": payload.get("request_id", ""),
                     "result": {"workload": payload.get("workload")}}))
                await writer.drain()
                answered += 1
                if answered == self.close_after:
                    break
        finally:
            writer.close()
            await writer.wait_closed()


class TestAsyncClientNeverHangs:
    def test_concurrent_first_evaluates_share_one_connection(self):
        async def scenario():
            async with AnsweringServer() as server:
                client = AsyncEvalClient("127.0.0.1", server.port)
                try:
                    responses = await asyncio.wait_for(asyncio.gather(*[
                        client.evaluate(_req(request_id=f"c{i}"))
                        for i in range(4)]), timeout=3.0)
                finally:
                    await client.close()
                return responses, server.connections

        responses, connections = asyncio.run(scenario())
        assert [r.request_id for r in responses] == ["c0", "c1", "c2", "c3"]
        assert all(r.status == STATUS_OK for r in responses)
        assert connections == 1

    def test_request_after_server_closed_reconnects_or_raises(self):
        async def scenario():
            async with AnsweringServer(close_after=1) as server:
                client = AsyncEvalClient("127.0.0.1", server.port)
                try:
                    first = await client.evaluate(_req())
                    await asyncio.sleep(0.1)  # the server's close lands
                    try:
                        second = await asyncio.wait_for(
                            client.evaluate(_req()), timeout=3.0)
                    except BackendDown:
                        second = None
                    # Whatever the second request saw, the client is
                    # usable again: the next request reconnects.
                    third = await asyncio.wait_for(
                        client.evaluate(_req()), timeout=3.0)
                finally:
                    await client.close()
                return first, second, third, server.connections

        first, second, third, connections = asyncio.run(scenario())
        assert first.status == STATUS_OK and third.status == STATUS_OK
        assert second is None or second.status == STATUS_OK
        assert connections >= 2

    def test_close_fails_outstanding_requests(self):
        async def scenario():
            async with AnsweringServer() as server:
                client = AsyncEvalClient("127.0.0.1", server.port)
                await client.connect()
                # A request whose answer never comes: the server only
                # answers complete lines.
                future = asyncio.get_running_loop().create_future()
                client._waiters["never"] = future
                await client.close()
                with pytest.raises(BackendDown):
                    await asyncio.wait_for(future, timeout=3.0)

        asyncio.run(scenario())
