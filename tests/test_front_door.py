"""One failure table for both newline-JSON front doors.

``EvalService`` and ``RouterService`` share one line server, so a
malformed line must get the same answer from either: the same status,
echoed ``request_id`` and error text, and one ``protocol_errors``
increment.  After an ordinary malformed line the connection keeps
serving; an oversized line gets an error envelope and closes it.

The router runs over one in-process ``EvalService`` backend, so a
request it wrongly forwarded would still get an answer — from the
backend, with no router-side protocol error counted.
"""

import asyncio
import contextlib
import functools
import json

import pytest

from repro.router.backends import Backend, BackendManager
from repro.router.service import RouterService
from repro.serve import protocol
from repro.serve.service import EvalService

#: A small line limit keeps the oversized line in one socket write, so
#: the server consumes all of it before closing (no reset races).
LINE_LIMIT = 4096

#: (row id, wire line, echoed request_id, error text fragment)
ROWS = [
    ("not-json", b"{nope\n", "", "bad JSON on the wire"),
    ("json-array", b"[1,2]\n", "", "must be a JSON object"),
    ("json-number", b"42\n", "", "must be a JSON object"),
    ("json-string", b'"str"\n', "", "must be a JSON object"),
    ("empty-object", b"{}\n", "", "bad eval request"),
    ("unknown-op", b'{"op":"nope","request_id":"u1"}\n', "u1",
     "unknown op 'nope'"),
    ("non-string-op", b'{"op":5,"request_id":"u2"}\n', "u2",
     "unknown op 5"),
    ("non-string-request-id", b'{"op":"ping","request_id":7}\n', "",
     "request_id must be a string"),
    ("eval-missing-fields",
     b'{"op":"eval","request_id":"e1","workload":"exchange2"}\n', "e1",
     "exactly one of backend/checkers"),
    ("since-negative", b'{"op":"stats","request_id":"s1","since":-1}\n',
     "s1", "non-negative epoch id, got -1"),
    ("since-string", b'{"op":"stats","request_id":"s2","since":"x"}\n',
     "s2", "non-negative epoch id, got 'x'"),
    ("campaign-unknown-workload",
     b'{"op":"campaign","request_id":"c1","workload":"doom"}\n', "c1",
     "unknown workload 'doom'"),
    ("eval-bad-pool-spec",
     b'{"op":"eval","request_id":"e2","workload":"exchange2",'
     b'"checkers":"bogus"}\n', "e2", "bad checker spec 'bogus'"),
    ("eval-unknown-core",
     b'{"op":"eval","request_id":"e3","workload":"exchange2",'
     b'"checkers":"1xM1@3.0"}\n', "e3", "unknown core class 'M1'"),
    ("eval-unknown-mode",
     b'{"op":"eval","request_id":"e4","workload":"exchange2",'
     b'"checkers":"1xA510@2.0","mode":"sometimes"}\n', "e4",
     "'sometimes' is not a valid CheckMode"),
    ("eval-non-string-pool-spec",
     b'{"op":"eval","request_id":"e5","workload":"exchange2",'
     b'"checkers":4}\n', "e5", "checkers must be a pool spec string"),
    ("campaign-bad-pool-spec",
     b'{"op":"campaign","request_id":"c2","workload":"exchange2",'
     b'"checkers":"bogus"}\n', "c2", "bad checker spec 'bogus'"),
    ("campaign-unknown-core",
     b'{"op":"campaign","request_id":"c3","workload":"exchange2",'
     b'"checkers":"1xM1@3.0"}\n', "c3", "unknown core class 'M1'"),
    ("campaign-unknown-mode",
     b'{"op":"campaign","request_id":"c4","workload":"exchange2",'
     b'"mode":"sometimes"}\n', "c4",
     "'sometimes' is not a valid CheckMode"),
    ("non-utf8", b"\xff\xfe\n", "", "non-UTF-8 wire message"),
    ("empty-line", b"\n", "", "bad JSON on the wire"),
]


class IdlePool:
    """A pool nothing should reach: every row fails at admission."""

    calls = 0

    async def run_group(self, specs):
        IdlePool.calls += 1
        return [{"error": "reached the pool"} for _ in specs]

    def reset(self):
        pass

    def shutdown(self, wait=True):
        pass


@contextlib.asynccontextmanager
async def front_door(kind):
    """A running EvalService, or a RouterService over one."""
    backend = EvalService(IdlePool(), batch_window_s=0.001)
    await backend.start()
    service = backend
    if kind == "router":
        manager = BackendManager()
        manager.backends["shard0"] = Backend(
            name="shard0", host=backend.host, port=backend.port)
        service = RouterService(manager, health_interval_s=0.0)
        await service.start()
    try:
        yield service
    finally:
        if service is not backend:
            await service.stop()
        await backend.stop()


async def _exchange(reader, writer, line):
    writer.write(line)
    await writer.drain()
    answer = await asyncio.wait_for(reader.readline(), timeout=10.0)
    return json.loads(answer) if answer else None


async def _run_table(kind):
    """Per row: the answer, the protocol_errors increment, and whether
    the connection still answers a ping afterwards."""
    results = {}
    async with front_door(kind) as service:
        errors = service._stats.counter("protocol_errors")
        reader, writer = await asyncio.open_connection(
            service.host, service.port, limit=LINE_LIMIT * 4)
        try:
            for row_id, line, _, _ in ROWS:
                before = errors.value
                answer = await _exchange(reader, writer, line)
                increment = errors.value - before
                ping = await _exchange(
                    reader, writer,
                    b'{"op":"ping","request_id":"after"}\n')
                results[row_id] = (answer, increment,
                                   ping is not None and ping["status"] == "ok")
        finally:
            writer.close()
            await writer.wait_closed()

        before = errors.value
        reader, writer = await asyncio.open_connection(
            service.host, service.port, limit=LINE_LIMIT * 4)
        try:
            answer = await _exchange(
                reader, writer, b"x" * (LINE_LIMIT + 100) + b"\n")
            closed = await asyncio.wait_for(reader.read(), timeout=10.0)
        finally:
            writer.close()
            await writer.wait_closed()
        results["oversized"] = (answer, errors.value - before, closed != b"")
    return results


@functools.cache
def _table(kind):
    limit = protocol.MAX_LINE_BYTES
    protocol.MAX_LINE_BYTES = LINE_LIMIT
    try:
        return asyncio.run(_run_table(kind))
    finally:
        protocol.MAX_LINE_BYTES = limit


@pytest.mark.parametrize("kind", ["serve", "router"])
@pytest.mark.parametrize("row_id,line,request_id,error", ROWS,
                         ids=[row[0] for row in ROWS])
def test_malformed_line_is_an_error_and_the_connection_keeps_serving(
        kind, row_id, line, request_id, error):
    answer, increment, still_serving = _table(kind)[row_id]
    assert answer["status"] == protocol.STATUS_ERROR
    assert answer["request_id"] == request_id
    assert error in answer["error"]
    assert increment == 1
    assert still_serving
    assert IdlePool.calls == 0


@pytest.mark.parametrize("kind", ["serve", "router"])
def test_oversized_line_gets_an_envelope_and_closes(kind):
    answer, increment, left_open = _table(kind)["oversized"]
    assert answer == {"v": protocol.PROTOCOL_VERSION,
                      "status": protocol.STATUS_ERROR, "request_id": "",
                      "error": "oversized wire message"}
    assert increment == 1
    assert not left_open


def test_both_front_doors_answer_every_row_identically():
    assert _table("serve") == _table("router")
