"""Router end-to-end: real spawned serve backends, real simulations.

Three ``paraverser serve`` subprocesses behind one RouterService; the
acceptance properties from the issue are checked directly: routed
results are bit-identical to a single backend answering the same
request, for evals and campaigns, including when one backend is
SIGKILLed mid-campaign (the chaos leg — its windows re-dispatch and
the merged row must not change).  Single-shard tests at the end check,
through Linux ``/proc``, that no forked pool worker outlives its shard,
whether the shard is stopped with SIGTERM or killed with SIGKILL.
"""

import asyncio
import os
import signal
import threading
import time

import pytest

from repro.router.backends import BackendManager
from repro.router.service import RUNTIME_ROW_KEYS, RouterService
from repro.serve.client import EvalClient, RouterClient
from repro.serve.protocol import (
    CampaignRequest,
    EvalRequest,
    STATUS_OK,
)

BUDGET = 4000
SEED = 7
TIMEOUT = 300.0


def _eval_req(workload="exchange2", **kwargs):
    kwargs.setdefault("backend", "paraverser-full")
    kwargs.setdefault("instructions", BUDGET)
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault("timeout_s", TIMEOUT)
    return EvalRequest(workload=workload, **kwargs)


def _campaign_req(workload="exchange2", trials=9, **kwargs):
    kwargs.setdefault("instructions", BUDGET)
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault("timeout_s", TIMEOUT)
    return CampaignRequest(workload=workload, trials=trials, **kwargs)


def _sim_row(row):
    return {k: v for k, v in row.items() if k not in RUNTIME_ROW_KEYS}


class RouterThread:
    """Runs the router in a daemon thread for sync-client tests."""

    def __init__(self, manager):
        self.manager = manager
        self.host = None
        self.port = None
        self.service = None
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        # A fast health loop: a SIGKILLed serve parent leaves its
        # sockets open through forked worker fds, so link EOF never
        # fires — mark-down-on-timeout is what detects the death and
        # re-dispatches the in-flight windows.
        self.service = RouterService(self.manager, health_interval_s=0.5,
                                     health_timeout_s=0.5)
        self.host, self.port = await self.service.start()
        self._ready.set()
        await self._stop.wait()
        await self.service.stop()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30), "router did not start"
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)

    def counter(self, name):
        return self.service._stats.counter(name).value


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("router-trace-cache")
    manager = BackendManager()
    manager.spawn_local(3, workers=1, trace_dir=str(trace_dir),
                        batch_window_ms=20.0)
    try:
        with RouterThread(manager) as router:
            yield router
    finally:
        manager.stop_processes()


def _backend_client(stack, name):
    backend = stack.manager.backends[name]
    return EvalClient(backend.host, backend.port)


class TestBitIdentity:
    def test_routed_eval_equals_single_backend(self, stack):
        request = _eval_req()
        with EvalClient(stack.host, stack.port) as client:
            routed = client.evaluate(request)
        assert routed.status == STATUS_OK
        with _backend_client(stack, "shard0") as direct_client:
            direct = direct_client.evaluate(request)
        assert direct.status == STATUS_OK
        for row in (routed.result, direct.result):
            for key in RUNTIME_ROW_KEYS + ("trace_source",):
                row.pop(key, None)
        assert routed.result == direct.result

    def test_routed_campaign_equals_single_backend(self, stack):
        request = _campaign_req()
        with EvalClient(stack.host, stack.port) as client:
            routed = client.campaign(request)
        assert routed.status == STATUS_OK
        with _backend_client(stack, "shard1") as direct_client:
            direct = direct_client.campaign(request)
        assert direct.status == STATUS_OK
        assert _sim_row(routed.result) == _sim_row(direct.result)
        # The fan-out really happened: trials were split across shards.
        stats = stack.service.stats_root.to_dict()
        assert stats["router"]["campaign"]["trials_forwarded"] \
            == request.trials

    def test_router_client_follows_the_ring(self, stack):
        request = _eval_req(workload="mcf")
        with RouterClient(stack.host, stack.port) as rc:
            via_ring = rc.evaluate(request)
            names = rc._ring.nodes
        assert via_ring.status == STATUS_OK
        assert names == ["shard0", "shard1", "shard2"]
        with _backend_client(stack, "shard2") as direct_client:
            direct = direct_client.evaluate(request)
        for row in (via_ring.result, direct.result):
            for key in RUNTIME_ROW_KEYS + ("trace_source",):
                row.pop(key, None)
        assert via_ring.result == direct.result


class TestChaos:
    def test_sigkill_mid_campaign_preserves_the_row(self, stack):
        """Kill one backend while its campaign window is in flight:
        every trial must still complete, bit-identically."""
        request = _campaign_req(workload="xz", trials=9)
        victim_name = stack.service.ring.preference(
            request.trace_key())[0]
        victim = stack.manager.backends[victim_name]

        result = {}

        def send():
            with EvalClient(stack.host, stack.port) as client:
                result["response"] = client.campaign(request)

        sender = threading.Thread(target=send)
        sender.start()
        # Kill as soon as the victim's window is forwarded and not yet
        # answered: its first trial needs a trace build, so the kill
        # lands while the window is in flight however fast shards are.
        deadline = time.monotonic() + TIMEOUT
        while not victim.inflight and time.monotonic() < deadline:
            time.sleep(0.001)
        assert sender.is_alive(), "campaign finished before the kill"
        victim.process.kill()
        victim.process.wait()
        sender.join(timeout=TIMEOUT)
        assert not sender.is_alive()

        response = result["response"]
        assert response.status == STATUS_OK
        assert response.result["trials"] == 9
        assert stack.counter("re_dispatches") >= 1
        assert stack.counter("mark_downs") >= 1
        assert not stack.manager.backends[victim_name].healthy

        # Reference from a survivor: the merged chaos row is the
        # single-backend row, exactly.
        survivor = next(n for n in stack.manager.names
                        if n != victim_name)
        with _backend_client(stack, survivor) as direct_client:
            direct = direct_client.campaign(request)
        assert direct.status == STATUS_OK
        assert _sim_row(response.result) == _sim_row(direct.result)

    def test_surviving_shards_keep_serving(self, stack):
        with EvalClient(stack.host, stack.port) as client:
            response = client.evaluate(_eval_req(workload="xz"))
            stats = client.stats()
        assert response.status == STATUS_OK
        shard_stats = stats["router"]["shards"]
        assert sum(s["healthy"] for s in shard_stats.values()) == 2


def _live_children(pid):
    """Pids whose parent is ``pid`` and that are not zombies (Linux)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            children.append(int(entry))
    return children


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _wait_gone(pids, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    return [pid for pid in pids if _alive(pid)]


@pytest.fixture()
def one_shard():
    """One spawned shard that has run an eval, and its pool workers."""
    manager = BackendManager()
    (backend,) = manager.spawn_local(1, workers=1)
    try:
        with EvalClient(backend.host, backend.port) as client:
            assert client.evaluate(_eval_req()).status == STATUS_OK
        workers = _live_children(backend.process.pid)
        assert workers, "the eval ran without a pool worker"
        yield manager, backend, workers
    finally:
        manager.stop_processes()


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="needs Linux /proc")


@needs_proc
def test_sigterm_stops_the_shard_pool(one_shard):
    """``stop_processes`` sends SIGTERM; the shard must leave through its
    graceful path, so its forked pool workers exit with it."""
    manager, _, workers = one_shard
    manager.stop_processes()
    assert _wait_gone(workers) == []


@needs_proc
def test_sigkilled_shard_leaves_no_pool_worker(one_shard):
    _, backend, workers = one_shard
    backend.process.kill()
    backend.process.wait()
    assert _wait_gone(workers) == []


@needs_proc
def test_sigterm_to_a_pool_worker_spares_the_shard(one_shard):
    """A worker must not inherit the server's SIGTERM routing: the signal
    stops that worker only, and the shard serves on a fresh pool."""
    _, backend, workers = one_shard
    os.kill(workers[0], signal.SIGTERM)
    assert _wait_gone(workers) == []
    assert backend.process.poll() is None
    with EvalClient(backend.host, backend.port) as client:
        assert client.evaluate(_eval_req(seed=SEED + 1)).status == STATUS_OK
