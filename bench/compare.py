#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py BASE CANDIDATE

BASE and CANDIDATE are each a directory of (or a list of comma-joined)
result records written by ``bench/run.py --out FILE``.  For every
(workload, metric) it prints each side's median and quartiles, the
fraction of seed-matched pairs the candidate wins, and a verdict:

* ``better`` -- the candidate wins at least 9 in 10 pairs (ties count
  for neither) and the medians differ by more than the base's spread
  (the distance between its quartiles);
* ``worse`` -- the candidate's median is worse than the base's by more
  than the metric's bound in BENCHMARK.json (for per-layer metrics,
  which have no bound: the mirror image of ``better``);
* ``unresolved`` -- the base's own spread is wider than the bound, and
  the candidate neither beats nor loses to every base run outright;
* ``unchanged`` -- none of the above.

Exits 1 when any end-to-end metric is ``worse`` or any run was wrong.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(spec: str) -> list[dict]:
    paths: list[str] = []
    for part in spec.split(","):
        if os.path.isdir(part):
            paths += sorted(glob.glob(os.path.join(part, "*.json")))
        else:
            paths.append(part)
    records = []
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        if "workload" in record and "metrics" in record:
            records.append(record)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], cand: list[float], pairs, better: str,
            bound: float | None) -> tuple[str, float]:
    sign = 1.0 if better == "higher" else -1.0
    q1, median, q3 = quartiles(base)
    _, cand_median, _ = quartiles(cand)
    spread = q3 - q1
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    gain = sign * (cand_median - median)
    beats_all = sign * (min(cand, key=lambda v: sign * v)
                        - max(base, key=lambda v: sign * v)) > 0
    loses_all = sign * (max(cand, key=lambda v: sign * v)
                        - min(base, key=lambda v: sign * v)) < 0
    if bound is None:
        if win_share >= 0.9 and gain > spread:
            return "better", win_share
        if pairs and losses / len(pairs) >= 0.9 and -gain > spread:
            return "worse", win_share
        return "unchanged", win_share
    relative_spread = spread / abs(median) if median else float("inf")
    if -gain > bound * abs(median):
        if relative_spread > bound and not loses_all:
            return "unresolved", win_share
        return "worse", win_share
    if win_share >= 0.9 and gain > spread:
        return "better", win_share
    if relative_spread > bound and not beats_all:
        return "unresolved", win_share
    return "unchanged", win_share


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("candidate")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load(args.base), load(args.candidate)]
    code = 0
    for label, records in zip(("base", "candidate"), sides):
        wrong = [r for r in records if not r["correct"]]
        for record in wrong:
            print(f"{label}: {record['workload']} seed {record['seed']} "
                  f"was wrong: {record.get('problems', [])[:3]}")
        code = code or (1 if wrong else 0)

    keys = sorted({(r["workload"], m) for r in sides[0]
                   for m in r["metrics"]}
                  & {(r["workload"], m) for r in sides[1]
                     for m in r["metrics"]})
    print(f"{'workload':19s} {'metric':34s} {'base median [q1, q3]':>30s} "
          f"{'candidate median [q1, q3]':>30s} {'change':>8s} "
          f"{'wins':>5s}  verdict")
    for workload, metric in keys:
        runs = [{r["seed"]: r["metrics"][metric]["value"] for r in side
                 if r["workload"] == workload and metric in r["metrics"]}
                for side in sides]
        base, cand = list(runs[0].values()), list(runs[1].values())
        pairs = [(runs[0][s], runs[1][s]) for s in runs[0] if s in runs[1]]
        better, bound = rules.get(metric, ("lower", None))
        result, share = verdict(base, cand, pairs, better, bound)
        if result == "worse" and bound is not None:
            code = 1
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(cand)
        change = (cm - bm) / abs(bm) * 100 if bm else 0.0
        base_col = f"{bm:.5g} [{b1:.4g}, {b3:.4g}]"
        cand_col = f"{cm:.5g} [{c1:.4g}, {c3:.4g}]"
        print(f"{workload:19s} {metric:34s} {base_col:>30s} "
              f"{cand_col:>30s} {change:+7.1f}% {share:5.2f}  {result}")
    return code


if __name__ == "__main__":
    sys.exit(main())
