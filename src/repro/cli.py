"""Command-line interface.

Installed as ``paraverser`` (see pyproject.toml)::

    paraverser workloads                         # list benchmark profiles
    paraverser run -w bwaves -c 4xA510@2.0       # check one workload
    paraverser run -w mcf -c 1xA510@1.0 -m opportunistic
    paraverser run -w mcf --stats-json stats.json  # dump the stats tree
    paraverser backends                          # list detection backends
    paraverser run -w mcf --backend dual-lockstep  # evaluate one backend
    paraverser campaign -w deepsjeng -t 30 --fault-kinds stuck_at  # stuck-at
    paraverser campaign -w deepsjeng -t 200 -j 4 # parallel campaign engine
    paraverser campaign -w mcf --campaign-dir /tmp/c --resume  # finish one
    paraverser campaign -w mcf --backend dme     # divergent multi-version
    paraverser scenarios -w mcf -t 12            # per-scheme campaign matrix
    paraverser fleet --loads 0.7,0.9 -j 4        # datacenter traffic matrix
    paraverser control --policy threshold -j 4   # closed loop vs static arms
    paraverser figures fig6 fig11                # regenerate paper figures
    paraverser serve --port 8347 --workers 4     # batched evaluation server
    paraverser route --shards 3 --port 8346      # consistent-hash router
    paraverser route --backends h1:8347,h2:8347  # route over running servers
    paraverser eval -w mcf --backend paraverser-full  # query a server
    paraverser stats-diff old.json new.json      # exact stats gate
    paraverser cache info --dir ~/.pvtraces      # trace-cache entry counts
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from typing import Sequence

from repro.core.system import CheckMode, ParaVerserConfig, ParaVerserSystem
from repro.cpu.config import CoreInstance
from repro.cpu.presets import (
    CORE_CLASSES,
    PoolSpecError,
    parse_pool,
    pool_instances,
)
from repro.noc.mesh import FAST_NOC, SLOW_NOC
from repro.power.energy import energy_report
from repro.workloads.generator import build_program
from repro.workloads.profiles import ALL_PROFILES, get_profile


def parse_checkers(spec: str) -> list[CoreInstance]:
    """Parse ``"4xA510@2.0,1xX2@3.0"`` into core instances (grammar
    errors as ``ArgumentTypeError``, a bad frequency as ``ValueError``)."""
    try:
        return pool_instances(spec)
    except PoolSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# -- argparse types ----------------------------------------------------------
# Every numeric and enumerated flag is typed here, so a bad value fails
# at parse time, before any work, with one line naming flag and value.

def _number(kind: type, rule: str, ok):
    """A finite ``kind`` (int or float) for which ``ok(value)`` holds."""
    noun = "an integer" if kind is int else "a number"

    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"{raw!r} is not {noun} {rule}")
        return value
    return parse


_COUNT = _number(int, ">= 1", lambda v: v >= 1)
_NATURAL = _number(int, ">= 0", lambda v: v >= 0)
_POSITIVE = _number(float, "> 0", lambda v: v > 0)
_NONNEGATIVE = _number(float, ">= 0", lambda v: v >= 0)
_FRACTION = _number(float, "in [0, 1]", lambda v: 0 <= v <= 1)
_PORT = _number(int, "in [0, 65535]", lambda v: 0 <= v <= 65535)
_BACKEND_PORT = _number(int, "in [1, 65535]", lambda v: 1 <= v <= 65535)


def _checked(check):
    """A string ``check(raw)`` accepts, kept as given; the library
    check's ``ValueError`` becomes the usage error."""
    def parse(raw: str) -> str:
        try:
            check(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return raw
    return parse


def _one_of(choices, what: str):
    def parse(raw: str) -> str:
        if raw not in choices:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {raw!r}; pick from {', '.join(choices)}")
        return raw
    return parse


def _csv(item):
    """A comma-separated list, each entry parsed by ``item``."""
    def parse(raw: str) -> list:
        values = [item(part.strip()) for part in raw.split(",")
                  if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(
                f"{raw!r} needs at least one entry")
        return values
    return parse


# These import on use: repro.fleet and repro.detect would add tens of
# milliseconds to every `paraverser` start.
def _fleet_mode(name: str) -> str:
    from repro.fleet.server import MODES

    return _one_of(MODES, "mode")(name)


def _dispatch_policy(name: str) -> None:
    from repro.fleet import make_policy

    make_policy(name)


def _detection_backend(name: str) -> str:
    from repro.detect import backend_names

    return _one_of(backend_names(), "detection backend")(name)


def _backend_address(raw: str) -> tuple[str, int]:
    """One ``--backends`` entry: ``host:port``."""
    host, sep, port = raw.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"entry {raw!r} is not host:port; use e.g. 127.0.0.1:8347")
    return host, _BACKEND_PORT(port)


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line (``prog: error: ...``), exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    from repro.faults.models import ALL_FAULT_KINDS
    from repro.faults.scenarios import CAMPAIGN_SCHEMES

    parser = _Parser(
        prog="paraverser",
        description="ParaVerser (DSN 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    modes = [m.value for m in CheckMode]

    def add_jobs(command: argparse.ArgumentParser, what: str) -> None:
        command.add_argument("-j", "--jobs", type=int, default=None,
                             help=f"{what} (default: REPRO_JOBS or 1; "
                                  "<= 0 = all CPUs)")

    run = sub.add_parser("run", help="check one workload and report overheads")
    run.add_argument("-w", "--workload", required=True,
                     help="benchmark name (see `paraverser workloads`)")
    run.add_argument("-c", "--checkers", type=_checked(pool_instances),
                     default="4xA510@2.0",
                     help="checker pool, e.g. 4xA510@2.0 or 2xX2@1.5")
    run.add_argument("-m", "--mode", choices=modes, default="full")
    run.add_argument("-n", "--instructions", type=_COUNT, default=100_000)
    run.add_argument("--hash", action="store_true", dest="hash_mode",
                     help="enable SHA-256 Hash Mode (section IV-I)")
    run.add_argument("--slow-noc", action="store_true",
                     help="use the 128-bit @ 1.5 GHz mesh (Fig. 11)")
    run.add_argument("--sampling-rate", type=_FRACTION, default=0.25)
    run.add_argument("--stats", action="store_true",
                     help="print a gem5-style statistics dump")
    run.add_argument("--stats-json", metavar="PATH",
                     help="write the run's full statistics tree as JSON")
    run.add_argument("--stage-jobs", type=int, default=None,
                     help="stage-graph worker threads for this run "
                          "(default: REPRO_STAGE_JOBS or 1 = serial; "
                          "0 = all CPUs)")
    run.add_argument("--profile", action="store_true",
                     help="print a per-stage wall-time table after the run")
    run.add_argument("--backend", metavar="NAME", type=_detection_backend,
                     help="evaluate a registered detection backend instead "
                          "of building a config from -c/-m "
                          "(see `paraverser backends`)")
    run.add_argument("--seed", type=int, default=7)

    campaign = sub.add_parser(
        "campaign",
        help="parallel fault-injection campaign (Fig. 8 at scale)")
    campaign.add_argument("-w", "--workload", required=True)
    campaign.add_argument("-c", "--checkers", metavar="SPEC",
                          type=_checked(pool_instances), default="1xA510@1.0",
                          help="checker pool spec, e.g. 1xA510@1.0")
    campaign.add_argument("-m", "--mode", choices=modes,
                          default="opportunistic")
    campaign.add_argument("--hash", action="store_true", dest="hash_mode")
    campaign.add_argument("-t", "--trials", type=_COUNT, default=None,
                          help="injection trials (default: REPRO_TRIALS)")
    campaign.add_argument("-n", "--instructions", type=_COUNT, default=40_000)
    campaign.add_argument("--seed", type=int, default=7)
    add_jobs(campaign, "worker processes fanning trials out")
    campaign.add_argument("--chunk", type=_COUNT, default=None,
                          help="trials per pool task (default: auto, "
                               "~trials/(jobs*4); results are identical "
                               "for any chunking)")
    campaign.add_argument("--backend", metavar="SCHEME", dest="scheme",
                          type=_one_of(CAMPAIGN_SCHEMES, "detection scheme"),
                          default="paraverser",
                          help="detection scheme the trials run under: "
                               "paraverser, dme, ithica-sdc or meek-ro "
                               "(default: paraverser)")
    campaign.add_argument("--fault-kinds", metavar="K1,K2,...",
                          type=_csv(_one_of(ALL_FAULT_KINDS, "fault kind")),
                          default=None,
                          help="fault-site mix: any of stuck_at, "
                               "transient_lsq, transient_reg, defect "
                               "(default: per scheme — defect for "
                               "ithica-sdc, the classic three otherwise)")
    campaign.add_argument("--campaign-dir", metavar="DIR", default=None,
                          help="directory for per-worker JSONL result "
                               "shards (enables --resume)")
    campaign.add_argument("--resume", action="store_true",
                          help="skip trials already recorded in the "
                               "--campaign-dir shards")
    campaign.add_argument("--stats-json", metavar="PATH",
                          help="write the campaign's faults.* stats tree")
    campaign.add_argument("--telemetry-jsonl", metavar="PATH",
                          default=None,
                          help="stream faults.* progress epochs (one "
                               "JSONL line per ~5%% of trials) while "
                               "the campaign runs")
    campaign.add_argument("--json", action="store_true",
                          help="print the raw campaign row as JSON")
    campaign.add_argument("--host", default=None,
                          help="run on an evaluation server instead of "
                               "locally")
    campaign.add_argument("--port", type=_PORT, default=8347)
    campaign.add_argument("--timeout", type=_POSITIVE, default=None,
                          help="per-request deadline in seconds "
                               "(server runs only)")

    scenarios = sub.add_parser(
        "scenarios",
        help="detection-scenario matrix: one campaign per scheme "
             "(paraverser, dme, ithica-sdc, meek-ro)")
    scenarios.add_argument("-w", "--workload", default="mcf")
    scenarios.add_argument("-c", "--checkers", metavar="SPEC",
                           type=_checked(pool_instances), default="1xA510@1.0")
    scenarios.add_argument("-m", "--mode", choices=modes,
                           default="opportunistic")
    scenarios.add_argument("-t", "--trials", type=_COUNT, default=12,
                           help="injection trials per scheme")
    scenarios.add_argument("-n", "--instructions", type=_COUNT, default=40_000)
    scenarios.add_argument("--seed", type=int, default=7)
    add_jobs(scenarios, "worker processes")
    scenarios.add_argument("--schemes", metavar="S1,S2,...",
                           type=_csv(_one_of(CAMPAIGN_SCHEMES, "scheme")),
                           default=list(CAMPAIGN_SCHEMES),
                           help="subset of schemes to run "
                                "(default: all four)")
    scenarios.add_argument("--stats-json", metavar="PATH",
                           help="write the faults.<scheme>.* stats tree")
    scenarios.add_argument("--json", action="store_true",
                           help="print the per-scheme rows as JSON")

    fleet = sub.add_parser(
        "fleet",
        help="event-driven datacenter traffic model (policy/load/mode "
             "matrix with tail-latency and coverage accounting)")
    fleet.add_argument("--policies", metavar="P1,P2,...",
                       type=_csv(_checked(_dispatch_policy)),
                       default="random,shortest,jbsq2",
                       help="dispatch policies: random, rr, shortest, "
                            "jbsq<d>, affinity")
    fleet.add_argument("--modes", metavar="M1,M2,...",
                       type=_csv(_fleet_mode), default="full,opportunistic",
                       help="checking modes per cell (full, "
                            "opportunistic, disabled)")
    fleet.add_argument("--loads", metavar="L1,L2,...", type=_csv(_POSITIVE),
                       default="0.7,0.9",
                       help="offered per-server utilisations")
    fleet.add_argument("--servers", type=_COUNT, default=8,
                       help="fleet size (default 8)")
    fleet.add_argument("--duration", type=_POSITIVE, default=2.0,
                       help="simulated seconds per cell (default 2.0)")
    fleet.add_argument("--reps", type=_COUNT, default=1,
                       help="replications per cell, merged in rep order")
    add_jobs(fleet, "worker processes fanning replications")
    fleet.add_argument("--seed", type=int, default=7)
    fleet.add_argument("-w", "--workload", default="mcf",
                       help="profile the bimodal service split derives "
                            "from ('exponential' = memoryless M/M/1)")
    fleet.add_argument("--checkers", metavar="SPEC", type=_checked(parse_pool),
                       default="4xA510@2.0",
                       help="per-server checker pool (sets the replay "
                            "rate relative to the main core)")
    fleet.add_argument("--lag-bound-ms", type=_NONNEGATIVE, default=4.0,
                       help="checker lag bound (LSL capacity) in ms of "
                            "main-core work")
    fleet.add_argument("--mean-service-ms", type=_POSITIVE, default=1.0,
                       help="mean request service demand in ms")
    fleet.add_argument("--closed", action="store_true",
                       help="closed-loop clients instead of an open "
                            "Poisson stream")
    fleet.add_argument("--clients", type=_COUNT, default=64,
                       help="closed-loop client population")
    fleet.add_argument("--think-ms", type=_POSITIVE, default=10.0,
                       help="closed-loop mean think time in ms")
    fleet.add_argument("--keys", type=_COUNT, default=1024,
                       help="distinct request keys (Zipf popularity)")
    fleet.add_argument("--zipf", type=_NONNEGATIVE, default=1.1,
                       help="Zipf popularity exponent")
    fleet.add_argument("--epoch-s", type=_NONNEGATIVE, default=0.0,
                       help="telemetry epoch length in simulated "
                            "seconds (0 = no epoch stream)")
    fleet.add_argument("--telemetry-jsonl", metavar="PATH",
                       help="write the per-epoch telemetry stream "
                            "(needs --epoch-s > 0); bit-identical at "
                            "any -j")
    fleet.add_argument("--stats-json", metavar="PATH",
                       help="write the fleet.* statistics tree as JSON")
    fleet.add_argument("--json", action="store_true",
                       help="print raw cell metrics as JSON lines")

    control = sub.add_parser(
        "control",
        help="closed-loop checking under a diurnal load curve "
             "(adaptive control plane vs the static endpoints)")
    control.add_argument("--policy", default="threshold",
                         choices=("threshold", "ed2p_budget", "scheduler",
                                  "static"),
                         help="controller policy (default threshold)")
    control.add_argument("--servers", type=_COUNT, default=8)
    control.add_argument("--load", type=_POSITIVE, default=0.7,
                         help="base offered utilisation the diurnal "
                              "curve multiplies")
    control.add_argument("--duration", type=_POSITIVE, default=2.0,
                         help="simulated seconds (one compressed day)")
    control.add_argument("--epoch-s", type=_POSITIVE, default=None,
                         help="control epoch length in simulated "
                              "seconds (default REPRO_CONTROL_EPOCH_S "
                              "or 0.1)")
    control.add_argument("--budget", type=_POSITIVE, default=None,
                         help="checker energy-overhead budget for "
                              "ed2p_budget (default "
                              "REPRO_CONTROL_BUDGET or 0.40)")
    control.add_argument("--dwell", type=_COUNT, default=2,
                         help="min epochs between applied switches "
                              "(hysteresis dwell)")
    control.add_argument("--stall-high", type=_FRACTION, default=0.05,
                         help="degrade watermark on the stall fraction")
    control.add_argument("--stall-low", type=_FRACTION, default=0.01,
                         help="restore watermark on the stall fraction")
    control.add_argument("--checkers", metavar="SPEC",
                         type=_checked(parse_pool), default=None,
                         help="per-server checker pool (default: the "
                              "bench's under-provisioned 3xA510@2.0)")
    control.add_argument("--reps", type=_COUNT, default=1)
    add_jobs(control, "worker processes")
    control.add_argument("--seed", type=int, default=7)
    control.add_argument("--telemetry-jsonl", metavar="PATH",
                         help="write the controlled arm's epoch stream "
                              "as JSONL (bit-identical at any -j)")
    control.add_argument("--stats-json", metavar="PATH",
                         help="write fleet.*/control.*/power.* stats")
    control.add_argument("--json", action="store_true",
                         help="print the frontier report as JSON")

    workloads = sub.add_parser("workloads", help="list benchmark profiles")
    workloads.add_argument("--suite", choices=["spec2017", "gap", "parsec"],
                           default=None)

    sub.add_parser("backends",
                   help="list the registered detection backends")

    figures = sub.add_parser("figures",
                             help="regenerate the paper's tables/figures")
    figures.add_argument("names", nargs="+",
                         choices=[*_ALL_FIGURES, "fleet", "all"])
    figures.add_argument("--chart", action="store_true",
                         help="render ASCII bar charts instead of tables")
    add_jobs(figures, "worker processes for config sweeps")
    figures.add_argument("--stage-jobs", type=int, default=None,
                         help="stage-graph threads inside each run "
                              "(default: REPRO_STAGE_JOBS or 1; "
                              "0 = all CPUs)")

    serve = sub.add_parser(
        "serve", help="run the async batched evaluation service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_PORT, default=8347,
                       help="TCP port (0 = OS-assigned, printed on start)")
    serve.add_argument("--workers", type=_NATURAL, default=2,
                       help="simulation worker processes (0 = all CPUs)")
    serve.add_argument("--queue-depth", type=_COUNT, default=64,
                       help="admission queue bound; beyond it requests "
                            "are load-shed")
    serve.add_argument("--batch-window-ms", type=_NONNEGATIVE, default=10.0,
                       help="how long a batch stays open for coalescing")
    serve.add_argument("--timeout", type=_POSITIVE, default=None,
                       help="default per-request deadline in seconds")
    serve.add_argument("--trace-cache", metavar="DIR", default=None,
                       help="persistent trace cache directory "
                            "(default: REPRO_TRACE_CACHE)")
    serve.add_argument("--prime", metavar="W1,W2,...", default=None,
                       type=_csv(_one_of(sorted(ALL_PROFILES), "workload")),
                       help="warm the trace cache for these workloads "
                            "before accepting traffic")
    serve.add_argument("-n", "--instructions", type=_COUNT, default=20_000,
                       help="instruction budget used for --prime")
    serve.add_argument("--seed", type=int, default=7,
                       help="seed used for --prime")
    serve.add_argument("--epoch-s", type=_NONNEGATIVE, default=0.0,
                       help="publish a telemetry epoch of the stats "
                            "tree every EPOCH_S seconds (0 = off)")
    serve.add_argument("--telemetry-jsonl", metavar="PATH", default=None,
                       help="mirror telemetry epochs to a JSONL file "
                            "(one line per epoch; tail -f friendly)")
    serve.add_argument("--stats-json", metavar="PATH",
                       help="write the service stats tree on shutdown")

    route = sub.add_parser(
        "route",
        help="consistent-hash shard router over N serve backends")
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument("--port", type=_PORT, default=8346,
                       help="router TCP port (0 = OS-assigned, printed "
                            "on start)")
    shards = route.add_mutually_exclusive_group()
    shards.add_argument("--shards", type=_COUNT, default=None,
                        help="spawn this many local serve backends on "
                             "OS-assigned ports (default 2)")
    shards.add_argument("--backends", metavar="H1:P1,H2:P2,...",
                        type=_csv(_backend_address), default=None,
                        help="adopt already-running serve backends "
                             "instead of spawning")
    route.add_argument("--replicas", type=_COUNT, default=64,
                       help="virtual nodes per shard on the hash ring")
    route.add_argument("--health-interval", type=_NONNEGATIVE, default=2.0,
                       help="seconds between backend health pings "
                            "(0 disables the health loop)")
    route.add_argument("--workers", type=_COUNT, default=1,
                       help="worker processes per spawned backend")
    route.add_argument("--batch-window-ms", type=_NONNEGATIVE, default=None,
                       help="batch window forwarded to spawned backends")
    route.add_argument("--trace-cache", metavar="DIR", default=None,
                       help="persistent trace cache shared by spawned "
                            "backends (default: REPRO_TRACE_CACHE)")
    route.add_argument("--stats-json", metavar="PATH",
                       help="write the router.* stats tree on shutdown")

    eval_cmd = sub.add_parser(
        "eval", help="evaluate a workload/backend pair on a running server")
    eval_cmd.add_argument("-w", "--workload", required=True)
    eval_cmd.add_argument("--backend", metavar="NAME", default=None,
                          type=_detection_backend,
                          help="registered detection backend "
                               "(see `paraverser backends`)")
    eval_cmd.add_argument("-c", "--checkers", metavar="SPEC",
                          type=_checked(pool_instances), default=None,
                          help="checker pool spec, e.g. 4xA510@2.0 "
                               "(alternative to --backend)")
    eval_cmd.add_argument("-m", "--mode", choices=modes, default="full")
    eval_cmd.add_argument("--hash", action="store_true", dest="hash_mode")
    eval_cmd.add_argument("-n", "--instructions", type=_COUNT, default=20_000)
    eval_cmd.add_argument("--seed", type=int, default=7)
    eval_cmd.add_argument("--fault-trials", type=_NATURAL, default=0,
                          help="also run a stuck-at injection campaign")
    eval_cmd.add_argument("--host", default="127.0.0.1")
    eval_cmd.add_argument("--port", type=_PORT, default=8347)
    eval_cmd.add_argument("--timeout", type=_POSITIVE, default=None,
                          help="per-request deadline in seconds")
    eval_cmd.add_argument("--json", action="store_true",
                          help="print the raw result row as JSON")

    cache = sub.add_parser(
        "cache", help="inspect or maintain the persistent trace cache")
    cache.add_argument("action", choices=["info", "purge"],
                       help="info: entry/byte counts; purge: delete all "
                            "entries")
    cache.add_argument("--dir", dest="directory", metavar="DIR",
                       default=None,
                       help="cache directory (default: REPRO_TRACE_CACHE)")

    diff = sub.add_parser(
        "stats-diff",
        help="compare two --stats-json dumps leaf for leaf; exit 1 on "
             "any changed, added or removed leaf")
    diff.add_argument("baseline", help="stats JSON of the reference run")
    diff.add_argument("candidate", help="stats JSON of the new run")
    diff.add_argument("--threshold", type=_NONNEGATIVE, default=0.10,
                      help="relative change that labels a directional "
                           "leaf a REGRESSION (default 0.10)")
    diff.add_argument("--all", action="store_true", dest="show_all",
                      help="show unchanged leaves too")
    diff.add_argument("--ignore", action="append", default=[],
                      metavar="GLOB",
                      help="exclude dotted leaves matching this fnmatch "
                           "glob (repeatable), e.g. --ignore 'pipeline.*' "
                           "to mask host-dependent stage wall times")
    return parser


def _print_stage_profile(stats) -> None:
    """``run --profile``: per-stage wall times + executor occupancy."""
    pipeline = stats.get("pipeline")
    if pipeline is None:
        print("stage profile:     n/a (no pipeline stats)")
        return
    print("\n-- stage profile --")
    print(f"{'stage':12s} {'wall ms':>10s}")
    executor = None
    for name, node in pipeline.items():
        if name == "executor":
            executor = node
            continue
        gauge = node.get("wall_time_ms")
        if gauge is not None:
            print(f"{name:12s} {gauge.to_value():10.2f}")
    if executor is not None:
        flat = executor.flatten()
        print(f"{'executor':12s} {flat.get('wall_time_ms', 0.0):10.2f}  "
              f"(stage-jobs={int(flat.get('stage_jobs', 1))}, "
              f"overlap={flat.get('overlap', 0.0):.2f}, "
              f"occupancy={flat.get('occupancy', 0.0):.2f}, "
              f"peak-ready={int(flat.get('queue_depth_max', 0))})")


def _write_stats_json(stats, path: str) -> None:
    """Dump a run's full observability tree to ``path``."""
    from pathlib import Path

    Path(path).write_text(stats.to_json() + "\n")
    print(f"stats tree:        {path}")


def _run_backend(args: argparse.Namespace) -> int:
    """``run --backend``: evaluate one registered detection backend."""
    from repro.detect import get_backend
    from repro.harness.runner import WorkloadCache

    backend = get_backend(args.backend)
    cache = WorkloadCache(max_instructions=args.instructions,
                          seed=args.seed)
    report = backend.evaluate(cache, args.workload)
    print(f"backend:           {report.backend}")
    print(f"workload:          {report.benchmark}")
    print(f"slowdown:          {report.slowdown_percent:+.2f}%")
    print(f"coverage:          {report.coverage * 100:.1f}%")
    print(f"energy overhead:   {report.energy_overhead_percent:+.1f}%")
    print(f"area overhead:     {report.area_overhead_percent:+.1f}%")
    if report.segments:
        print(f"segments:          {report.segments}")
        clean = "all clean" if report.verified_clean else "DIVERGED"
        print(f"verified segments: {clean}")
    if args.stats_json:
        if report.result is not None and report.result.stats is not None:
            _write_stats_json(report.result.stats, args.stats_json)
        else:
            print("stats tree:        n/a (analytic backend)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """`paraverser run`: check one workload and print the overhead report."""
    if args.backend:
        return _run_backend(args)
    program = build_program(get_profile(args.workload), seed=args.seed)
    config = ParaVerserConfig(
        main=CoreInstance(CORE_CLASSES["X2"], 3.0),
        checkers=pool_instances(args.checkers),
        mode=CheckMode(args.mode),
        hash_mode=args.hash_mode,
        noc=SLOW_NOC if args.slow_noc else FAST_NOC,
        sampling_rate=args.sampling_rate,
        seed=args.seed,
    )
    system = ParaVerserSystem(config, stage_jobs=args.stage_jobs)
    result = system.run(program, max_instructions=args.instructions)
    energy = energy_report(result, config.main)
    print(f"workload:          {result.workload}")
    print(f"configuration:     {result.config_label}")
    print(f"instructions:      {result.instructions}")
    print(f"segments:          {result.segments} ({result.cut_reasons})")
    print(f"slowdown:          {result.overhead_percent:+.2f}%")
    print(f"coverage:          {result.coverage * 100:.1f}%")
    print(f"main-core stalls:  {result.stall_ns:.0f} ns")
    print(f"LSL traffic:       {result.lsl_bytes / 1024:.1f} KiB")
    print(f"NoC extra latency: {result.noc_extra_llc_ns:.2f} ns/LLC access")
    print(f"energy overhead:   {energy.overhead_percent:+.1f}% "
          "(vs. power-gated checkers)")
    print(f"verified segments: {len(result.verify_results)} (all clean)")
    if args.stats_json:
        _write_stats_json(result.stats, args.stats_json)
    if args.profile:
        _print_stage_profile(result.stats)
    if args.stats:
        from repro.cpu.timing import format_stats

        print("\n-- main-core statistics (checked run) --")
        print(format_stats(result.main_timing, config.main.config))
    return 0


def _print_campaign_row(row: dict) -> None:
    print(f"workload:                {row['workload']}")
    print(f"checkers:                {row['checkers']} ({row['mode']})")
    if row.get("scheme", "paraverser") != "paraverser":
        print(f"scheme:                  {row['scheme']}")
    print(f"trials:                  {row['trials']}")
    print(f"detected:                {row['detected']}")
    print(f"masked:                  {row['masked']}")
    print(f"missed by coverage:      {row['missed']}")
    print(f"detection (all):         {row['detection_rate_all'] * 100:.0f}%")
    print("detection (effective):   "
          f"{row['detection_rate_effective'] * 100:.0f}%")
    latency = row.get("mean_detection_latency")
    if latency is not None:
        print(f"mean detection latency:  {latency:.0f} instructions")
    for kind, counts in sorted(row.get("by_kind", {}).items()):
        print(f"  {kind:15s} injected {counts['injected']:4d}  "
              f"detected {counts['detected']:4d}  "
              f"masked {counts['masked']:4d}")
    if row.get("resumed_trials"):
        print(f"resumed from shards:     {row['resumed_trials']} trials")
    print(f"wall time:               {row['elapsed_s']:.2f}s "
          f"(jobs={row['jobs']})")


_EVAL_EXIT_CODES = {"ok": 0, "timeout": 4, "shed": 3, "error": 2}


def _remote(args: argparse.Namespace, command: str, send, show) -> int:
    """One request to the server at ``--host``/``--port``.

    ``send(client)`` makes the request; an unreachable server exits 2,
    a failed response exits with its status code, and a good one prints
    its row (``show``, or JSON with ``--json``).
    """
    from repro.serve.client import EvalClient

    try:
        with EvalClient(args.host, args.port) as client:
            response = send(client)
    except (OSError, ConnectionError) as exc:
        print(f"{command}: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    if not response.ok:
        print(f"{command}: {response.status}: {response.error}",
              file=sys.stderr)
        return _EVAL_EXIT_CODES.get(response.status, 2)
    row = response.result or {}
    if args.json:
        print(json.dumps(row, sort_keys=True))
    else:
        show(row)
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """`paraverser campaign`: fan injection trials over worker processes."""
    from dataclasses import asdict

    from repro.faults.engine import (
        CampaignRunner,
        CampaignSpec,
        publish_campaign_stats,
    )
    from repro.faults.scenarios import default_fault_kinds
    from repro.harness.runner import env_trials
    from repro.obs import StatGroup

    fault_kinds = (tuple(args.fault_kinds) if args.fault_kinds
                   else default_fault_kinds(args.scheme))
    trials = args.trials if args.trials is not None else env_trials()
    spec = CampaignSpec(
        workload=args.workload,
        checkers=args.checkers,
        mode=args.mode,
        hash_mode=args.hash_mode,
        instructions=args.instructions,
        seed=args.seed,
        trials=trials,
        fault_kinds=fault_kinds,
        scheme=args.scheme,
    )
    if args.host:
        if args.resume or args.campaign_dir:
            print("campaign: --resume/--campaign-dir are local-only "
                  "(the server runs each request whole)", file=sys.stderr)
            return 2
        from repro.serve.protocol import CampaignRequest

        request = CampaignRequest(**asdict(spec), timeout_s=args.timeout)
        return _remote(args, "campaign",
                       lambda client: client.campaign(request),
                       _print_campaign_row)
    if args.resume and not args.campaign_dir:
        print("campaign: --resume requires --campaign-dir",
              file=sys.stderr)
        return 2
    # Live progress epochs on the telemetry bus: counts accumulate in
    # completion order (progress, not a golden surface — the final
    # faults.* tree in --stats-json stays the deterministic record).
    bus = None
    on_record = None
    if args.telemetry_jsonl:
        from repro.obs import TelemetryBus

        bus = TelemetryBus(history=1)
        bus.attach_jsonl(args.telemetry_jsonl)
        label = f"faults.{spec.workload}"
        every = max(1, trials // 20)
        progress = {"trials": 0, "detected": 0, "masked": 0}

        def on_record(record):
            progress["trials"] += 1
            progress["detected"] += 1 if record.detected else 0
            progress["masked"] += 1 if record.masked else 0
            if progress["trials"] % every == 0 \
                    or progress["trials"] == trials:
                bus.publish({"campaign": dict(progress)}, label=label)

    try:
        with CampaignRunner(jobs=args.jobs, campaign_dir=args.campaign_dir,
                            resume=args.resume,
                            chunk=args.chunk) as runner:
            outcome = runner.run(spec, on_record=on_record)
    finally:
        if bus is not None:
            bus.close()
    row = outcome.to_row()
    if args.json:
        print(json.dumps(row, sort_keys=True))
    else:
        _print_campaign_row(row)
    if args.stats_json:
        stats = StatGroup("root")
        publish_campaign_stats(stats, outcome)
        _write_stats_json(stats, args.stats_json)
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """`paraverser scenarios`: one campaign per detection scheme.

    Runs the same workload/trial budget under every scheme and prints
    the detection-latency/coverage comparison (the EXPERIMENTS.md
    table); ``--stats-json`` writes one ``faults.<scheme>.*`` subtree
    per scheme for the CI golden gate.
    """
    from repro.faults.engine import (
        CampaignSpec,
        publish_campaign_stats,
        run_campaign,
    )
    from repro.faults.scenarios import default_fault_kinds
    from repro.obs import StatGroup

    stats = StatGroup("root")
    faults_group = stats.group("faults", "detection-scenario campaigns")
    rows = []
    for scheme in args.schemes:
        spec = CampaignSpec(
            workload=args.workload,
            checkers=args.checkers,
            mode=args.mode,
            instructions=args.instructions,
            seed=args.seed,
            trials=args.trials,
            fault_kinds=default_fault_kinds(scheme),
            scheme=scheme,
        )
        outcome = run_campaign(spec, jobs=args.jobs)
        publish_campaign_stats(faults_group, outcome,
                               name=scheme.replace("-", "_"))
        rows.append(outcome.to_row())

    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        print(f"workload {args.workload}, {args.trials} trials/scheme, "
              f"{args.instructions} instructions "
              f"({args.checkers}, {args.mode})")
        header = (f"{'scheme':14s} {'inj':>4s} {'det':>4s} {'mask':>5s} "
                  f"{'miss':>5s} {'cov_eff':>8s} {'escape':>7s} "
                  f"{'lat_mean':>9s} {'lat_max':>8s}")
        print(header)
        for row in rows:
            latency = row.get("mean_detection_latency")
            print(f"{row['scheme']:14s} {row['trials']:4d} "
                  f"{row['detected']:4d} {row['masked']:5d} "
                  f"{row['missed']:5d} "
                  f"{row['detection_rate_effective'] * 100:7.0f}% "
                  f"{row['sdc_escape_rate'] * 100:6.0f}% "
                  f"{latency if latency is not None else 0:9.0f} "
                  f"{row['detection_latency_max']:8d}")
    if args.stats_json:
        _write_stats_json(stats, args.stats_json)
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """`paraverser fleet`: run the (policy, mode, load) traffic matrix."""
    import time

    from repro.fleet import (
        FleetTrafficConfig,
        matrix,
        publish_fleet_stats,
        run_cell,
        summarize,
    )
    from repro.obs import StatGroup

    if args.telemetry_jsonl and args.epoch_s <= 0:
        print("fleet: --telemetry-jsonl needs --epoch-s > 0",
              file=sys.stderr)
        return 2

    base = FleetTrafficConfig(
        servers=args.servers,
        checkers=args.checkers,
        lag_bound_s=args.lag_bound_ms / 1e3,
        traffic_kind="closed" if args.closed else "open",
        clients=args.clients,
        think_s=args.think_ms / 1e3,
        workload=args.workload,
        mean_service_s=args.mean_service_ms / 1e3,
        n_keys=args.keys,
        zipf_alpha=args.zipf,
        duration_s=args.duration,
        seed=args.seed,
        epoch_s=args.epoch_s,
    )
    configs = matrix(args.policies, args.modes, args.loads, base)
    started = time.perf_counter()
    results = [run_cell(config, reps=args.reps, jobs=args.jobs)
               for config in configs]
    elapsed = time.perf_counter() - started
    metrics = [summarize(result) for result in results]
    if args.telemetry_jsonl:
        from repro.obs import TelemetryBus

        # Worker processes collected the epoch records; replaying the
        # rep-order merge onto one bus here makes the file a pure
        # function of the configs — bit-identical at any -j.
        bus = TelemetryBus(history=1)
        bus.attach_jsonl(args.telemetry_jsonl)
        try:
            for config, result in zip(configs, results):
                for record in result.epochs:
                    bus.publish(record, label=f"fleet.{config.label}")
        finally:
            bus.close()

    if args.json:
        from dataclasses import asdict

        for cell in metrics:
            print(json.dumps(asdict(cell), sort_keys=True))
    else:
        print(f"fleet: {args.servers} servers x {args.duration:g}s x "
              f"{args.reps} rep(s), {args.checkers} checkers, "
              f"{'closed' if args.closed else 'open'} loop "
              f"({args.workload} service)")
        width = max(28, max(len(cell.label) for cell in metrics))
        print(f"{'cell':{width}s} {'p50':>8s} {'p95':>8s} {'p99':>8s} "
              f"{'p999':>8s} {'util':>6s} {'cover':>7s} {'stall':>7s} "
              f"{'SDC/yr':>8s}")
        for cell in metrics:
            print(f"{cell.label:{width}s} {cell.p50_ms:8.2f} "
                  f"{cell.p95_ms:8.2f} "
                  f"{cell.p99_ms:8.2f} {cell.p999_ms:8.2f} "
                  f"{cell.utilization * 100:5.1f}% "
                  f"{cell.coverage * 100:6.2f}% "
                  f"{cell.stall_fraction * 100:6.2f}% "
                  f"{cell.sdc_events:8.0f}")
        print(f"wall time:         {elapsed:.2f}s (jobs={args.jobs})")
    if args.stats_json:
        stats = StatGroup("root")
        publish_fleet_stats(stats, metrics, elapsed_s=elapsed)
        _write_stats_json(stats, args.stats_json)
    return 0


def cmd_control(args: argparse.Namespace) -> int:
    """`paraverser control`: diurnal bench of the adaptive control plane.

    Runs the same diurnal day three ways — always-full,
    always-opportunistic, and closed-loop — and reports the frontier:
    the controller should beat always-full on p99 while beating
    always-opportunistic on coverage.
    """
    from repro.control import publish_control_stats
    from repro.control.bench import BENCH_CHECKERS, run_diurnal_bench
    from repro.envutil import env_float
    from repro.fleet import publish_fleet_stats, summarize
    from repro.obs import StatGroup, write_epoch_jsonl

    epoch_s = args.epoch_s if args.epoch_s is not None \
        else env_float("REPRO_CONTROL_EPOCH_S", 0.1)
    if epoch_s <= 0:
        print("control: REPRO_CONTROL_EPOCH_S must be > 0", file=sys.stderr)
        return 2
    budget = args.budget if args.budget is not None \
        else env_float("REPRO_CONTROL_BUDGET", 0.40)
    checkers = args.checkers or BENCH_CHECKERS
    if args.policy == "threshold":
        spec = {"kind": "threshold", "checkers": checkers,
                "dwell": args.dwell, "stall_high": args.stall_high,
                "stall_low": args.stall_low}
    elif args.policy == "ed2p_budget":
        groups = parse_pool(checkers)
        if len(groups) != 1:
            print(f"control: ed2p_budget needs a single-group pool "
                  f"spec like 3xA510@2.0, got {checkers!r}",
                  file=sys.stderr)
            return 2
        count, config, _ = groups[0]
        spec = {"kind": "ed2p_budget", "budget": budget,
                "dwell": args.dwell, "pool": count, "core": config.name}
    elif args.policy == "scheduler":
        spec = {"kind": "scheduler", "dwell": args.dwell}
    else:
        spec = {"kind": "static", "checkers": checkers}
    try:
        out = run_diurnal_bench(servers=args.servers, load=args.load,
                                duration_s=args.duration, epoch_s=epoch_s,
                                reps=args.reps, jobs=args.jobs,
                                seed=args.seed, controller=spec)
    except ValueError as exc:
        print(f"control: {exc}", file=sys.stderr)
        return 2
    results = out.pop("results")

    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"control: {args.servers} servers x {args.duration:g}s day, "
              f"epoch {epoch_s:g}s, {args.policy} policy, "
              f"{checkers} checkers")
        print(f"{'arm':22s} {'p50':>8s} {'p99':>8s} {'cover':>7s} "
              f"{'SDC/yr':>7s} {'energy+':>8s} {'switch':>6s}  "
              f"residency")
        for name, row in out["arms"].items():
            residency = " ".join(
                f"{mode}:{frac * 100:.0f}%"
                for mode, frac in row["mode_residency"].items())
            print(f"{name:22s} {row['p50_ms']:8.2f} "
                  f"{row['p99_ms']:8.2f} {row['coverage'] * 100:6.2f}% "
                  f"{row['sdc_events']:7.0f} "
                  f"{row['energy_overhead'] * 100:7.1f}% "
                  f"{row['switches']:6d}  {residency}")
        won = out["dominates"]
        print(f"frontier: p99 vs always-full "
              f"{'WON' if won['p99_vs_full'] else 'lost'}, "
              f"coverage vs always-opportunistic "
              f"{'WON' if won['coverage_vs_opportunistic'] else 'lost'}")

    if args.telemetry_jsonl:
        controlled = results["controlled"]
        write_epoch_jsonl(args.telemetry_jsonl, controlled.epochs,
                          label=f"control.{controlled.config.label}")
    if args.stats_json:
        stats = StatGroup("root")
        publish_fleet_stats(stats,
                            [summarize(r) for r in results.values()])
        for result in results.values():
            publish_control_stats(stats, result,
                                  metrics=summarize(result))
        _write_stats_json(stats, args.stats_json)
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    """`paraverser workloads`: list the benchmark profiles."""
    print(f"{'name':12s} {'suite':9s} {'threads':>7s}  description")
    for name, profile in sorted(ALL_PROFILES.items()):
        if args.suite and profile.suite != args.suite:
            continue
        print(f"{name:12s} {profile.suite:9s} {profile.threads:7d}  "
              f"{profile.description}")
    return 0


def cmd_backends(args: argparse.Namespace) -> int:
    """`paraverser backends`: list the registered detection backends."""
    from repro.detect import all_backends

    print(f"{'name':24s} {'kind':10s} description")
    for backend in all_backends():
        kind = type(backend).__name__.removesuffix("Backend").lower()
        print(f"{backend.name:24s} {kind:10s} {backend.description}")
    return 0


#: What `figures all` regenerates (the fleet sweep is opt-in).
_ALL_FIGURES = ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "sec7e",
                "sec7f")


def cmd_figures(args: argparse.Namespace) -> int:
    """`paraverser figures`: regenerate the paper's tables/figures."""
    from repro.harness import experiments
    from repro.harness.plot import bar_chart
    from repro.harness.runner import WorkloadCache

    def show(table):
        print(bar_chart(table) if args.chart else table.render())

    names = list(_ALL_FIGURES) if "all" in args.names else args.names
    # Propagate so helper runners creating their own caches agree.
    os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.stage_jobs is not None:
        os.environ["REPRO_STAGE_JOBS"] = str(args.stage_jobs)
    cache = WorkloadCache()
    try:
        for name in names:
            print(f"\n===== {name} =====")
            if name == "fig6":
                show(experiments.run_fig6(cache))
            elif name == "fig7":
                result = experiments.run_fig7(cache)
                show(result.slowdown)
                show(result.coverage)
            elif name == "fig8":
                result = experiments.run_fig8(cache)
                show(result.coverage)
                tally = result.tally
                print(f"detected {tally.detection_rate_all * 100:.0f}% "
                      f"of {tally.injected} injections "
                      f"({tally.masked} masked)")
            elif name == "fig9":
                show(experiments.run_fig9_gap(cache=cache))
                show(experiments.run_fig9_parsec())
            elif name == "fig10":
                show(experiments.run_fig10())
            elif name == "fig11":
                show(experiments.run_fig11(cache))
            elif name == "sec7e":
                result = experiments.run_sec7e_energy(cache)
                show(result.energy)
                print(f"ED2P: {result.ed2p_energy_percent:.0f}% energy at "
                      f"{result.ed2p_slowdown_percent:.1f}% slowdown")
            elif name == "fleet":
                result = experiments.run_fleet_sweep()
                show(result.tail)
                show(result.coverage)
            elif name == "sec7f":
                for row in experiments.run_sec7f():
                    print(f"{row.workload:10s} "
                          f"hetero {row.hetero_speedup:.2f}x "
                          f"homo {row.homo_speedup:.2f}x "
                          f"checking {row.checking_overhead_percent:.2f}%")
    finally:
        cache.close()
    return 0


def _run_front_door(name: str, service, stats_json: str | None, *,
                    banner: str = "", prepare=None) -> None:
    """Run ``serve`` or ``route`` until SIGTERM or Ctrl-C.

    SIGTERM is routed into the running task's cancellation, so a
    terminated server leaves through the same graceful ``stop()`` as
    Ctrl-C.  ``prepare`` (a coroutine function) runs before the bind.
    The ``listening on HOST:PORT`` banner is what
    :class:`~repro.router.backends.BackendManager` parses off a spawned
    shard's stdout.
    """
    import asyncio
    import signal

    async def _main() -> None:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel)
        try:
            if prepare is not None:
                await prepare()
            host, port = await service.start()
            print(f"paraverser {name}: listening on {host}:{port}{banner}",
                  flush=True)
            await service.serve_forever()
        except (asyncio.CancelledError, KeyboardInterrupt):
            pass
        finally:
            await service.stop()
            if stats_json:
                _write_stats_json(service.stats_root, stats_json)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


def cmd_serve(args: argparse.Namespace) -> int:
    """`paraverser serve`: run the batched evaluation service.

    SIGTERM, like Ctrl-C, stops it gracefully: stop accepting, shed the
    queue, let in-flight batches finish, shut the worker pool down.
    """
    from repro.serve.service import EvalService
    from repro.serve.workers import WorkerPool

    pool = WorkerPool(workers=args.workers, trace_dir=args.trace_cache)
    service = EvalService(
        pool,
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        batch_window_s=args.batch_window_ms / 1e3,
        default_timeout_s=args.timeout,
        epoch_s=args.epoch_s,
        telemetry_jsonl=args.telemetry_jsonl,
    )

    async def _prime() -> None:
        primed = await pool.prime(args.prime, args.instructions, args.seed)
        print(f"primed traces:     {', '.join(primed)}", flush=True)

    _run_front_door("serve", service, args.stats_json,
                    prepare=_prime if args.prime else None)
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    """`paraverser route`: shard requests across N serve backends.

    SIGTERM, like Ctrl-C, stops the router gracefully and then stops
    every shard it spawned (each drains and shuts its own pool down).
    """
    from repro.router import BackendManager, RouterService

    manager = BackendManager()
    if args.backends is not None:
        manager.adopt(args.backends)
        print(f"adopted backends:  "
              f"{', '.join(b.address for b in manager.backends.values())}",
              flush=True)
    else:
        # Spawned shards inherit REPRO_TRACE_CACHE when no flag is given.
        spawned = manager.spawn_local(args.shards or 2,
                                      workers=args.workers,
                                      trace_dir=args.trace_cache,
                                      batch_window_ms=args.batch_window_ms)
        print(f"spawned backends:  "
              f"{', '.join(f'{b.name}={b.address}' for b in spawned)}",
              flush=True)

    service = RouterService(
        manager,
        host=args.host,
        port=args.port,
        replicas=args.replicas,
        health_interval_s=args.health_interval,
    )
    try:
        _run_front_door("route", service, args.stats_json,
                        banner=f" ({len(manager)} shards)")
    finally:
        manager.stop_processes()
    return 0


def _print_eval_row(row: dict) -> None:
    scheme = row.get("backend") or row.get("config_label", "")
    print(f"workload:          {row.get('workload')}")
    print(f"scheme:            {scheme}")
    print(f"slowdown:          {row.get('slowdown_percent', 0.0):+.2f}%")
    print(f"coverage:          {row.get('coverage', 0.0) * 100:.1f}%")
    print(f"energy overhead:   "
          f"{row.get('energy_overhead_percent', 0.0):+.1f}%")
    print(f"area overhead:     "
          f"{row.get('area_overhead_percent', 0.0):+.1f}%")
    if row.get("segments"):
        clean = "all clean" if row.get("verified_clean") else "DIVERGED"
        print(f"segments:          {row['segments']} ({clean})")
    print(f"trace source:      {row.get('trace_source', 'n/a')}")
    injection = row.get("injection")
    if injection:
        if "error" in injection:
            print(f"injection:         {injection['error']}")
        else:
            print(f"injected faults:   {injection['injected']} "
                  f"({injection['detected']} detected, "
                  f"{injection['masked']} masked)")


def cmd_eval(args: argparse.Namespace) -> int:
    """`paraverser eval`: one evaluation request against a server."""
    from repro.serve.protocol import EvalRequest

    checkers = args.checkers
    if args.backend is None and checkers is None:
        checkers = "4xA510@2.0"  # the `run` default pool
    request = EvalRequest(
        workload=args.workload,
        backend=args.backend,
        checkers=checkers,
        mode=args.mode,
        hash_mode=args.hash_mode,
        instructions=args.instructions,
        seed=args.seed,
        fault_trials=args.fault_trials,
        timeout_s=args.timeout,
    )
    return _remote(args, "eval", lambda client: client.evaluate(request),
                   _print_eval_row)


def cmd_cache(args: argparse.Namespace) -> int:
    """`paraverser cache`: inspect or maintain the persistent trace cache."""
    from repro.cpu.tracecache import TraceCache, env_trace_cache

    tc = TraceCache(args.directory) if args.directory else env_trace_cache()
    if tc is None:
        print("cache: no directory (pass --dir or set REPRO_TRACE_CACHE)",
              file=sys.stderr)
        return 2
    if args.action == "purge":
        print(f"purged entries:    {tc.purge()}")
        return 0
    info = tc.info()
    print(f"directory:         {info['directory']}")
    print(f"entries:           {info['entries']} "
          f"({info['total_bytes'] / 1024:.1f} KiB)")
    return 0


def cmd_stats_diff(args: argparse.Namespace) -> int:
    """`paraverser stats-diff`: exact leaf-for-leaf gate between dumps."""
    from repro.obs.diff import diff_stats, load_tree, render_diff

    entries = diff_stats(load_tree(args.baseline),
                         load_tree(args.candidate),
                         threshold=args.threshold,
                         ignore=args.ignore)
    print(render_diff(entries, show_all=args.show_all))
    return 1 if any(entry.changed for entry in entries) else 0


_COMMANDS = {
    "run": cmd_run,
    "campaign": cmd_campaign,
    "scenarios": cmd_scenarios,
    "fleet": cmd_fleet,
    "control": cmd_control,
    "workloads": cmd_workloads,
    "backends": cmd_backends,
    "figures": cmd_figures,
    "serve": cmd_serve,
    "route": cmd_route,
    "eval": cmd_eval,
    "cache": cmd_cache,
    "stats-diff": cmd_stats_diff,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "jobs" in args and (args.jobs is None or args.jobs <= 0):
        # One -j rule: unset reads REPRO_JOBS, <= 0 means all CPUs.
        from repro.harness.runner import env_jobs

        args.jobs = env_jobs() if args.jobs is None else os.cpu_count() or 1
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
