#!/usr/bin/env python
"""Router smoke check: 3 shards behind the consistent-hash front door.

Two legs, both against real ``paraverser`` subprocesses:

* **Golden leg** — ``paraverser route --shards 3`` spawns its own
  backends (deterministic ``shard<i>`` ring names); a fixed serial
  traffic script (5 evals + 1 fanned-out campaign) is checked
  bit-identical against in-process reference runs, then the ``router.*``
  stats tree is compared leaf-for-leaf against the committed golden
  (``tests/golden/router_smoke.json``) by the exact rule of
  ``paraverser stats-diff``, masking only the wall-clock
  ``router.runtime.*`` leaves.  ``--write-golden`` regenerates the
  golden from the same verified traffic (see
  scripts/gen_stats_baseline.sh).
* **Kill leg** — the router adopts 3 script-owned serve backends via
  ``--backends``; one backend is SIGKILLed while a campaign's windows
  are in flight, and the merged row must still equal the in-process
  reference exactly, with ``router.re_dispatches >= 1`` and the dead
  shard marked down.

Exits non-zero on any failure; the caller wraps it in a hard timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

LISTEN = re.compile(r"listening on ([\d.]+):(\d+)")
GOLDEN = os.path.join("tests", "golden", "router_smoke.json")
IGNORE = ("router.runtime.*",)
BUDGET = 4000
SEED = 7
EVALS = [
    ("exchange2", "paraverser-full"),
    ("mcf", "paraverser-full"),
    ("exchange2", "dual-lockstep"),
    ("mcf", "paraverser-sampling"),
    ("exchange2", "paraverser-full"),  # repeat: same row again
]


def _spawn(argv: list[str], tag: str) -> tuple[subprocess.Popen, str, int]:
    """Start a subprocess, parse its listen line, keep stdout drained."""
    process = subprocess.Popen(argv, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
    assert process.stdout is not None
    host = port = None
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit(f"{tag} exited before listening "
                             f"(code {process.poll()})")
        sys.stdout.write(f"{tag}: {line}")
        match = LISTEN.search(line)
        if match:
            host, port = match.group(1), int(match.group(2))
            break
    if port is None:
        raise SystemExit(f"{tag} never reported its port")

    def _drain() -> None:
        for extra in process.stdout:
            sys.stdout.write(f"{tag}: {extra}")

    threading.Thread(target=_drain, daemon=True).start()
    return process, host, port


def _stop(process: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
    if process.poll() is None:
        process.send_signal(sig)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def _direct_eval_row(workload: str, backend_name: str) -> dict:
    """Reference result: direct in-process pipeline evaluation."""
    from repro.detect import get_backend
    from repro.harness.runner import WorkloadCache

    cache = WorkloadCache(max_instructions=BUDGET, seed=SEED,
                          trace_cache=None)
    report = get_backend(backend_name).evaluate(cache, workload)
    return {
        "backend": report.backend,
        "workload": report.benchmark,
        "slowdown_percent": report.slowdown_percent,
        "coverage": report.coverage,
        "segments": report.segments,
        "verified_clean": report.verified_clean,
    }


def _direct_campaign_row(workload: str, trials: int) -> dict:
    from repro.faults.engine import CampaignSpec, run_campaign

    spec = CampaignSpec(workload=workload, instructions=BUDGET,
                        seed=SEED, trials=trials)
    return run_campaign(spec, jobs=1).to_row()


def _check_campaign_row(routed: dict, reference: dict, label: str) -> None:
    from repro.router import RUNTIME_ROW_KEYS

    for key, expected in reference.items():
        if key in RUNTIME_ROW_KEYS:
            continue
        if routed.get(key) != expected:
            raise SystemExit(
                f"{label}: campaign row diverges at {key!r}: "
                f"routed {routed.get(key)!r} != direct {expected!r}")


# -- golden leg --------------------------------------------------------------

def golden_leg(write_golden: bool) -> None:
    from repro.obs.diff import diff_stats
    from repro.serve.client import EvalClient
    from repro.serve.protocol import CampaignRequest, EvalRequest

    trace_dir = tempfile.mkdtemp(prefix="router-smoke-")
    stats_path = os.path.join(trace_dir, "route_shutdown_stats.json")
    router, host, port = _spawn(
        [sys.executable, "-m", "repro.cli", "route",
         "--shards", "3", "--port", "0", "--workers", "1",
         "--batch-window-ms", "20", "--health-interval", "0",
         "--trace-cache", trace_dir, "--stats-json", stats_path],
        "route")
    try:
        with EvalClient(host, port) as client:
            for workload, backend in EVALS:
                response = client.evaluate(EvalRequest(
                    workload=workload, backend=backend,
                    instructions=BUDGET, seed=SEED, timeout_s=240.0))
                if not response.ok:
                    raise SystemExit(f"eval failed: {response.error}")
                expected = _direct_eval_row(workload, backend)
                got = {key: response.result[key] for key in expected}
                if got != expected:
                    raise SystemExit(
                        f"routed eval diverges for {workload}/{backend}:"
                        f"\n  routed: {got}\n  direct: {expected}")
            print(f"{len(EVALS)} routed evals bit-identical to direct runs")

            response = client.campaign(CampaignRequest(
                workload="exchange2", instructions=BUDGET, seed=SEED,
                trials=9, timeout_s=240.0))
            if not response.ok:
                raise SystemExit(f"campaign failed: {response.error}")
            _check_campaign_row(response.result,
                                _direct_campaign_row("exchange2", 9),
                                "golden leg")
            print("fanned-out campaign row bit-identical to direct run")

            tree = client.stats()
        candidate = {"router": tree["router"]}

        if write_golden:
            os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
            with open(GOLDEN, "w") as handle:
                json.dump(candidate, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"golden written: {GOLDEN}")
        else:
            with open(GOLDEN) as handle:
                golden = json.load(handle)
            # The same exact rule as `paraverser stats-diff`.
            entries = diff_stats(golden, candidate, ignore=IGNORE)
            drift = [entry for entry in entries if entry.changed]
            if drift:
                raise SystemExit(
                    "router stats drifted from golden at: "
                    + ", ".join(f"{entry.key} ({entry.a} -> {entry.b})"
                                for entry in drift))
            print(f"router stats bit-exact vs golden "
                  f"({len(entries)} gated leaves)")
    finally:
        _stop(router, signal.SIGINT)

    # The shutdown dump is part of the CLI contract (--stats-json).
    with open(stats_path) as handle:
        dumped = json.load(handle)
    if "router" not in dumped:
        raise SystemExit("route --stats-json dump has no router group")
    print("route --stats-json shutdown dump written and well-formed")


# -- kill leg ----------------------------------------------------------------

def kill_leg() -> None:
    from repro.serve.client import EvalClient
    from repro.serve.protocol import CampaignRequest

    trace_dir = tempfile.mkdtemp(prefix="router-smoke-kill-")
    backends = []
    router = None
    try:
        for _ in range(3):
            backends.append(_spawn(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--port", "0", "--workers", "1",
                 "--batch-window-ms", "20", "--trace-cache", trace_dir],
                "serve"))
        addresses = ",".join(f"{host}:{port}"
                             for _, host, port in backends)
        router, host, port = _spawn(
            [sys.executable, "-m", "repro.cli", "route",
             "--port", "0", "--backends", addresses,
             "--health-interval", "1.0"],
            "route")

        request = CampaignRequest(workload="xz", instructions=BUDGET,
                                  seed=SEED, trials=9, timeout_s=240.0)
        result: dict = {}

        def send() -> None:
            with EvalClient(host, port) as client:
                result["response"] = client.campaign(request)

        sender = threading.Thread(target=send)
        sender.start()
        # Trial windows need a fresh xz trace build, so they are still
        # in flight when the kill lands.
        sender.join(timeout=0.4)
        if not sender.is_alive():
            raise SystemExit("campaign finished before the kill; "
                             "raise the trial count")
        victim = backends[0][0]
        victim.kill()
        victim.wait()
        print(f"SIGKILLed backend pid {victim.pid} mid-campaign")
        sender.join(timeout=240)
        if sender.is_alive():
            raise SystemExit("campaign never completed after the kill")

        response = result["response"]
        if not response.ok:
            raise SystemExit(
                f"campaign failed after the kill: {response.error}")
        _check_campaign_row(response.result,
                            _direct_campaign_row("xz", 9), "kill leg")
        print("post-kill campaign row bit-identical to direct run")

        with EvalClient(host, port) as client:
            router_stats = client.stats()["router"]
        if router_stats["re_dispatches"] < 1:
            raise SystemExit(f"no re-dispatch recorded: {router_stats}")
        healthy = sum(s["healthy"]
                      for s in router_stats["shards"].values())
        if healthy != 2:
            raise SystemExit(f"expected 2 healthy shards: {router_stats}")
        print(f"re-dispatches: {router_stats['re_dispatches']}, "
              f"mark-downs: {router_stats['mark_downs']}, "
              f"healthy shards: {healthy}/3")
    finally:
        if router is not None:
            _stop(router)
        for process, _, _ in backends:
            _stop(process)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"regenerate {GOLDEN} from verified traffic"
                             " instead of gating against it")
    parser.add_argument("--skip-kill-leg", action="store_true",
                        help="run only the golden leg")
    args = parser.parse_args()

    golden_leg(args.write_golden)
    if not args.skip_kill_leg:
        kill_leg()
    print("router smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
