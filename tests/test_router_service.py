"""Router dispatch semantics against scripted in-process shards.

The FakeShard speaks the serve wire protocol but computes campaign
rows from a pure function of ``(seed, trial)`` — the same contract the
real engine honours — so fan-out, failover and the exact-integer merge
can be tested deterministically and fast.  Bit-identity against the
*real* engine is covered by the window-merge test at the bottom and by
the spawned-backend end-to-end tests in ``test_router_e2e.py``.
"""

import asyncio
import dataclasses

from repro.faults.engine import CampaignSpec, run_campaign
from repro.router.backends import Backend, BackendManager
from repro.router.service import (
    RUNTIME_ROW_KEYS,
    RouterService,
    merge_campaign_rows,
)
from repro.serve import protocol
from repro.serve.client import AsyncEvalClient
from repro.serve.protocol import CampaignRequest, EvalRequest, STATUS_OK

KINDS = ("lsl_corrupt", "alu_wrong")


def fake_campaign_row(workload="exchange2", checkers="1xA510@1.0",
                      mode="opportunistic", seed=7, trials=10,
                      trial_offset=0):
    """Deterministic per-trial outcomes over one trial window.

    Trial ``t`` is masked when ``t % 5 == 0``, missed when ``t % 3 ==
    0``, detected otherwise with latency ``(seed + t) * 10`` — a pure
    function of global trial ids, like the real engine's sha256 seeds.
    """
    by_kind = {k: {"injected": 0, "detected": 0, "masked": 0}
               for k in KINDS}
    detected = masked = latency_sum = 0
    latency_max = 0
    for t in range(trial_offset, trial_offset + trials):
        counts = by_kind[KINDS[t % len(KINDS)]]
        counts["injected"] += 1
        if t % 5 == 0:
            masked += 1
            counts["masked"] += 1
        elif t % 3 != 0:
            detected += 1
            latency_sum += (seed + t) * 10
            latency_max = max(latency_max, (seed + t) * 10)
            counts["detected"] += 1
    effective = trials - masked
    return {
        "workload": workload, "checkers": checkers, "mode": mode,
        "scheme": "paraverser",
        "trials": trials, "detected": detected, "masked": masked,
        "missed": trials - detected - masked,
        "detection_rate_all": detected / trials if trials else 0.0,
        "detection_rate_effective": (detected / effective
                                     if effective else 0.0),
        "sdc_escape_rate": ((trials - detected - masked) / trials
                            if trials else 0.0),
        "detection_latency_sum": latency_sum,
        "mean_detection_latency": (latency_sum / detected
                                   if detected else None),
        "detection_latency_max": latency_max,
        "by_kind": by_kind,
        "elapsed_s": 0.0, "jobs": 1, "resumed_trials": 0,
    }


class FakeShard:
    """Scripted serve shard: wire-compatible, instantly deterministic."""

    def __init__(self, name, delay_s=0.0):
        self.name = name
        self.delay_s = delay_s
        self.evals = []       # payloads of eval requests seen
        self.campaigns = []   # payloads of campaign requests seen
        self.drop_next = 0    # close the connection instead of answering
        self.server = None
        self.host = None
        self.port = None

    async def start(self):
        self.server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0)
        self.host, self.port = self.server.sockets[0].getsockname()[:2]
        return self

    async def stop(self):
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None

    async def _handle(self, reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                payload = protocol.decode_message(line)
                op = payload.get("op", protocol.OP_EVAL)
                if op != protocol.OP_PING and self.drop_next > 0:
                    self.drop_next -= 1
                    break  # simulate a crash mid-request
                if self.delay_s:
                    await asyncio.sleep(self.delay_s)
                writer.write(protocol.encode_message(
                    self._respond(payload, op)))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _respond(self, payload, op):
        request_id = payload.get("request_id", "")
        if op == protocol.OP_PING:
            result = {"protocol": protocol.PROTOCOL_VERSION}
        elif op == protocol.OP_CAMPAIGN:
            self.campaigns.append(payload)
            result = fake_campaign_row(
                workload=payload["workload"],
                checkers=payload.get("checkers", "1xA510@1.0"),
                mode=payload.get("mode", "opportunistic"),
                seed=payload.get("seed", 7),
                trials=payload.get("trials", 20),
                trial_offset=payload.get("trial_offset", 0))
        else:
            self.evals.append(payload)
            result = {"workload": payload["workload"],
                      "backend": payload.get("backend"),
                      "shard": self.name}
        return {"v": protocol.PROTOCOL_VERSION,
                "status": protocol.STATUS_OK,
                "request_id": request_id, "result": result}


def _manager(shards):
    manager = BackendManager()
    for shard in shards:
        backend = Backend(name=shard.name, host=shard.host,
                          port=shard.port)
        manager.backends[backend.name] = backend
    return manager


class RouterHarness:
    """Three fake shards behind one RouterService, in the test's loop."""

    def __init__(self, count=3, delay_s=0.0, **router_kwargs):
        self.count = count
        self.delay_s = delay_s
        self.router_kwargs = router_kwargs
        self.shards = []
        self.service = None
        self.client = None

    async def __aenter__(self):
        self.shards = [await FakeShard(f"shard{i}",
                                       delay_s=self.delay_s).start()
                       for i in range(self.count)]
        self.router_kwargs.setdefault("health_interval_s", 0.0)
        self.router_kwargs.setdefault("health_timeout_s", 2.0)
        self.service = RouterService(_manager(self.shards),
                                     **self.router_kwargs)
        host, port = await self.service.start()
        self.client = AsyncEvalClient(host, port)
        await self.client.connect()
        return self

    async def __aexit__(self, *exc):
        await self.client.close()
        await self.service.stop()
        for shard in self.shards:
            await shard.stop()

    def shard(self, name):
        return next(s for s in self.shards if s.name == name)

    def counter(self, name, group=None):
        stats = self.service._stats if group is None \
            else self.service._stats.group(group)
        return stats.counter(name).value


def _eval_req(workload="exchange2", **kwargs):
    kwargs.setdefault("backend", "paraverser-full")
    kwargs.setdefault("instructions", 4000)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("timeout_s", 10.0)
    return EvalRequest(workload=workload, **kwargs)


def _campaign_req(trials=10, **kwargs):
    kwargs.setdefault("workload", "exchange2")
    kwargs.setdefault("instructions", 4000)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("timeout_s", 10.0)
    return CampaignRequest(trials=trials, **kwargs)


def _sim_row(row):
    """Simulated-result slice of a campaign row (runtime keys off)."""
    return {k: v for k, v in row.items() if k not in RUNTIME_ROW_KEYS}


class TestBackendLink:
    def test_concurrent_first_requests_both_return(self):
        """Two first requests on a fresh link race to connect; both must
        get their reply instead of one hanging on a replaced reader."""
        async def scenario():
            shard = await FakeShard("shard0").start()
            link = AsyncEvalClient(shard.host, shard.port)
            try:
                replies = await asyncio.wait_for(asyncio.gather(
                    link.request({"op": protocol.OP_PING,
                                  "request_id": "a"}),
                    link.request({"op": protocol.OP_PING,
                                  "request_id": "b"})), timeout=10.0)
            finally:
                await link.close()
                await shard.stop()
            assert [r["request_id"] for r in replies] == ["a", "b"]
            assert all(r["status"] == STATUS_OK for r in replies)

        asyncio.run(scenario())


class TestRouting:
    def test_eval_lands_on_ring_owner(self):
        async def scenario():
            async with RouterHarness() as h:
                workloads = ["exchange2", "mcf", "xz", "omnetpp"]
                for workload in workloads:
                    request = _eval_req(workload=workload)
                    owner = h.service.ring.lookup(request.trace_key())
                    response = await h.client.evaluate(request)
                    assert response.status == STATUS_OK
                    assert response.result["shard"] == owner
                assert h.counter("primary", group="locality") \
                    == len(workloads)
                assert h.counter("failover", group="locality") == 0
                assert h.counter("evals") == len(workloads)

        asyncio.run(scenario())

    def test_response_keeps_caller_request_id(self):
        async def scenario():
            async with RouterHarness() as h:
                response = await h.client.evaluate(
                    _eval_req(request_id="caller-7"))
                assert response.request_id == "caller-7"
                # The shard saw a router-generated forward id instead.
                seen = [p["request_id"] for s in h.shards
                        for p in s.evals]
                assert seen and all(i.startswith("fwd") for i in seen)

        asyncio.run(scenario())

    def test_failover_re_dispatches_and_marks_down(self):
        async def scenario():
            async with RouterHarness() as h:
                request = _eval_req()
                chain = h.service.ring.preference(request.trace_key())
                h.shard(chain[0]).drop_next = 1
                response = await h.client.evaluate(request)
                assert response.status == STATUS_OK
                assert response.result["shard"] == chain[1]
                assert h.counter("re_dispatches") == 1
                assert h.counter("mark_downs") == 1
                assert h.counter("failover", group="locality") == 1
                assert not h.service.manager.backends[chain[0]].healthy

                # The shard is still listening: the next health sweep
                # brings it back, and traffic goes home again.
                await h.service.check_health()
                assert h.service.manager.backends[chain[0]].healthy
                assert h.counter("mark_ups") == 1
                again = await h.client.evaluate(
                    _eval_req(request_id="after"))
                assert again.result["shard"] == chain[0]

        asyncio.run(scenario())

    def test_all_shards_dead_is_an_error_not_a_hang(self):
        async def scenario():
            async with RouterHarness() as h:
                for shard in h.shards:
                    await shard.stop()
                response = await asyncio.wait_for(
                    h.client.evaluate(_eval_req()), timeout=15.0)
                assert response.status == protocol.STATUS_ERROR
                assert "no reachable shard" in response.error
                assert h.counter("unroutable") == 1

        asyncio.run(scenario())

    def test_concurrent_twins_share_one_forward(self):
        async def scenario():
            async with RouterHarness(delay_s=0.2) as h:
                a, b = await asyncio.gather(
                    h.client.evaluate(_eval_req(request_id="twin-a")),
                    h.client.evaluate(_eval_req(request_id="twin-b")))
                assert a.status == b.status == STATUS_OK
                assert a.request_id == "twin-a"
                assert b.request_id == "twin-b"
                assert sum(len(s.evals) for s in h.shards) == 1
                assert h.counter("dedup_hits") == 1

        asyncio.run(scenario())

    def test_ring_op_describes_the_fleet(self):
        async def scenario():
            async with RouterHarness() as h:
                payload = await h.client.request(
                    {"op": protocol.OP_RING, "request_id": "r1"})
                ring = payload["result"]
                assert ring["replicas"] == h.service.ring.replicas
                names = [b["name"] for b in ring["backends"]]
                assert names == ["shard0", "shard1", "shard2"]
                assert all(b["healthy"] for b in ring["backends"])

        asyncio.run(scenario())


class TestCampaignFanOut:
    def test_fanout_partitions_trials_and_merges_exactly(self):
        async def scenario():
            async with RouterHarness() as h:
                request = _campaign_req(trials=10)
                response = await h.client.campaign(request)
                assert response.status == STATUS_OK
                # Windows partition [0, 10) contiguously across shards.
                seen = sorted(
                    ((p["trial_offset"], p["trials"]) for s in h.shards
                     for p in s.campaigns))
                assert sum(n for _, n in seen) == 10
                edges = [0]
                for offset, n in seen:
                    assert offset == edges[-1]
                    edges.append(offset + n)
                assert len(seen) == 3  # every healthy shard got one
                # The merged row is the unsplit row, bit for bit.
                assert _sim_row(response.result) \
                    == _sim_row(fake_campaign_row(trials=10))
                assert h.counter("trials_forwarded",
                                 group="campaign") == 10

        asyncio.run(scenario())

    def test_fanout_survives_a_shard_death_mid_campaign(self):
        async def scenario():
            async with RouterHarness() as h:
                request = _campaign_req(trials=9)
                chain = h.service.ring.preference(request.trace_key())
                # The window primary crashes on its first campaign
                # request; its window must re-dispatch and the merged
                # row must not change.
                h.shard(chain[0]).drop_next = 1
                response = await h.client.campaign(request)
                assert response.status == STATUS_OK
                assert _sim_row(response.result) \
                    == _sim_row(fake_campaign_row(trials=9))
                assert h.counter("re_dispatches") >= 1
                assert h.counter("mark_downs") == 1

        asyncio.run(scenario())

    def test_single_trial_campaign_is_not_split(self):
        async def scenario():
            async with RouterHarness() as h:
                response = await h.client.campaign(_campaign_req(trials=1))
                assert response.status == STATUS_OK
                assert sum(len(s.campaigns) for s in h.shards) == 1

        asyncio.run(scenario())

    def test_fanout_skips_unhealthy_shards(self):
        async def scenario():
            async with RouterHarness() as h:
                down = h.shards[1]
                await down.stop()
                await h.service.check_health()
                assert not h.service.manager.backends[down.name].healthy
                response = await h.client.campaign(_campaign_req(trials=8))
                assert response.status == STATUS_OK
                assert _sim_row(response.result) \
                    == _sim_row(fake_campaign_row(trials=8))
                assert len(down.campaigns) == 0
                assert h.counter("mark_downs") == 1

        asyncio.run(scenario())


class TestMerge:
    def test_merge_requires_rows_and_keeps_identity_fields(self):
        rows = [fake_campaign_row(trials=4, trial_offset=0),
                fake_campaign_row(trials=4, trial_offset=4)]
        merged = merge_campaign_rows(rows)
        assert merged["workload"] == "exchange2"
        assert merged["trials"] == 8
        assert _sim_row(merged) == _sim_row(fake_campaign_row(trials=8))

    def test_merge_sums_trace_cache_traffic(self):
        rows = [fake_campaign_row(trials=2),
                fake_campaign_row(trials=2, trial_offset=2)]
        rows[0]["trace_cache"] = {"hits": 1, "misses": 1}
        rows[1]["trace_cache"] = {"hits": 3, "misses": 0}
        merged = merge_campaign_rows(rows)
        assert merged["trace_cache"] == {"hits": 4, "misses": 1}

    def test_real_engine_windows_merge_bit_identically(self):
        """The acceptance property, against the real fault engine:
        offset windows merged == the unsplit campaign, exactly."""
        spec = CampaignSpec(workload="exchange2", instructions=4000,
                            seed=11, trials=7)
        full = run_campaign(spec, jobs=1).to_row()
        windows = [(0, 3), (3, 2), (5, 2)]
        rows = [run_campaign(
            dataclasses.replace(spec, trial_offset=off, trials=n),
            jobs=1).to_row() for off, n in windows]
        merged = merge_campaign_rows(rows)
        assert _sim_row(merged) == _sim_row(full)
        # Exact means exact: float equality, not approx.
        assert merged["detection_rate_effective"] \
            == full["detection_rate_effective"]
        assert merged["mean_detection_latency"] \
            == full["mean_detection_latency"]
