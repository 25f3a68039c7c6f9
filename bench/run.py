#!/usr/bin/env python3
"""The ParaVerser reproduction's benchmark: one command, three workloads.

    python3 bench/run.py --workload run-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, fresh process each
    python3 bench/run.py --write-expected    # refresh bench/expected.json

One run of one workload sets it up ``SETUP_REPS`` times, repeats its
pass of operations for ``--seconds`` of wall time, checks every
simulated result and prints, as the last line of standard output,
``{"correct", "attempted", "failed", "metrics"}``.  Times are CPU
seconds of the benchmark process, and each operation counts with its
fastest repeat.  With ``--trace 0`` the metrics are the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` they are its per-layer
metrics: the run measures half the time untraced, installs the layer
tracer, sets up again and measures the other half traced.
``--out FILE`` also writes the full record (sample counts, digests,
host metadata) for ``bench/compare.py``.  Run from the checkout root;
the benchmark uses the sources under ``src/`` and writes only under
``.bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from common import (
    EXPECTED,
    PINNED_SEEDS,
    ROOT,
    SRC,
    WORK,
    cpu_now,
    hermetic_env,
    host_metadata,
    load_expected,
    make_hermetic,
    peak_rss_mb,
)


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def workload_names() -> list[str]:
    return [workload["name"] for workload in declared()["workloads"]]


# -- one workload ------------------------------------------------------------

def _timed_setup(workload) -> float:
    start = cpu_now()
    workload.setup()
    return cpu_now() - start


def _outcome(workload, phases, values: dict, samples: dict) -> dict:
    return {
        "values": values,
        "samples": samples,
        "work_unit": workload.work_unit,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "problems": [problem for p in phases for problem in p.problems],
        "digests": phases[-1].digests,
    }


def measure_workload(name: str, seed: int, seconds: float, trace: bool,
                     expected: dict | None) -> dict:
    from workloads import SETUP_REPS, WORKLOADS, measure

    workload = WORKLOADS[name](seed)
    if not trace:
        setups = [_timed_setup(workload) for _ in range(SETUP_REPS)]
        phase = measure(workload, seconds, expected)
        return _outcome(workload, [phase], {
            "setup_s": statistics.median(setups),
            "work_per_s": phase.rate,
            "op_p50_ms": phase.op_p50_ms,
            "peak_rss_mb": peak_rss_mb(),
        }, {"setup_s": len(setups), "operations": len(phase.best_s),
            "repeats": phase.runs})

    from tracer import Tracer, attributed_seconds, install, layer_metrics, \
        layer_totals

    workload.setup()
    untraced = measure(workload, seconds / 2, expected)
    tracer = Tracer()
    install(tracer)
    setup_s = _timed_setup(workload)
    traced = measure(workload, seconds / 2, expected, tracer,
                     digests=untraced.digests)
    tracer.on = False
    totals = layer_totals(tracer.records(), tracer.hot)
    values = layer_metrics(totals)
    values.update(workload.per_layer(untraced))
    values["unattributed_share"] = max(
        0.0, 1.0 - attributed_seconds(totals) / (setup_s + traced.timed_s))
    values["trace_overhead"] = untraced.rate / traced.rate - 1.0
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"spans-{name}-{seed}.jsonl"), "w") as out:
        for record in tracer.records():
            out.write(json.dumps(record) + "\n")
    return _outcome(workload, [untraced, traced], values,
                    {"repeats": untraced.runs + traced.runs})


# -- one run -----------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; the full record of the run."""
    host = host_metadata()
    expected = load_expected().get(name, {}).get(str(seed))
    outcome = measure_workload(name, seed, seconds, trace, expected)
    spec = declared()
    group = spec["per_layer"] if trace else spec["end_to_end"]
    values = outcome["values"]
    missing = [m["name"] for m in group if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": outcome["failed"] == 0 and not outcome["problems"],
        "attempted": max(outcome["attempted"], 1),
        "failed": outcome["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in group},
        "work_unit": outcome["work_unit"],
        "samples": outcome["samples"],
        "checked_against": ("expected.json" if expected is not None
                            else "first digest in this run"),
        "problems": outcome["problems"][:50],
        "digests": outcome["digests"],
        "host": host,
    }


def emit_digests(name: str, seed: int) -> dict:
    """The digests ``expected.json`` pins for one workload and seed."""
    from workloads import WORKLOADS, measure

    workload = WORKLOADS[name](seed)
    workload.setup()
    phase = measure(workload, 0.0, None, passes=1)
    if phase.problems:
        raise RuntimeError("; ".join(phase.problems))
    return phase.digests


def write_expected() -> int:
    """Regenerate ``expected.json`` for the pinned seeds."""
    table: dict = {}
    for name in workload_names():
        for seed in PINNED_SEEDS:
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(seed), "--emit-digests"],
                cwd=ROOT, env=hermetic_env(), capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return out.returncode
            table.setdefault(name, {})[str(seed)] = json.loads(
                out.stdout.strip().splitlines()[-1])
            print(f"{name} seed {seed}: {len(table[name][str(seed)])} digests",
                  file=sys.stderr)
    with open(EXPECTED, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process; a table of every metric."""
    code = 0
    print(f"{'workload':20s} {'metric':36s} {'value':>14s} unit")
    for name in workload_names():
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", repr(seconds),
             "--trace", str(int(trace)), "--out", "-"],
            cwd=ROOT, env=hermetic_env(), capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or len(lines) < 2:
            sys.stderr.write(out.stderr)
            print(f"{name:20s} FAILED (exit {out.returncode})")
            code = 1
            continue
        record = json.loads(lines[-2])
        for metric, value in record["metrics"].items():
            print(f"{name:20s} {metric:36s} {value['value']:14.6g} "
                  f"{value['unit']}")
        print(f"{name:20s} {'samples':36s} {json.dumps(record['samples'])}")
        print(f"{name:20s} {'correct':36s} {str(record['correct']):>14s}"
              f"       {record['failed']}/{record['attempted']} failed")
        code = code or (0 if record["correct"] else 1)
    return code


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are >= 0")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=workload_names(), default=None,
                        help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=_seed, default=1,
                        help="workload seed (>= 0); 1 is the development "
                             "seed, 2 the held-out one")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured wall time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="write the full record here ('-' = stdout, "
                             "on the line before the result)")
    parser.add_argument("--emit-digests", action="store_true",
                        help="print the digests expected.json pins for "
                             "--workload and --seed")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate bench/expected.json")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("bench: no sources under src/repro; run from a checkout root",
              file=sys.stderr)
        return 2
    make_hermetic()
    if args.write_expected:
        return write_expected()
    seconds = args.seconds if args.seconds is not None \
        else float(declared()["run_seconds"])
    if args.workload is None:
        return run_all(args.seed, seconds, bool(args.trace))
    if args.emit_digests:
        print(json.dumps(emit_digests(args.workload, args.seed)))
        return 0

    record = run_one(args.workload, args.seed, seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"bench: {args.workload}: {problem}", file=sys.stderr)
    if args.out == "-":
        print(json.dumps(record))
    elif args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
