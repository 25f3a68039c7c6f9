#!/usr/bin/env bash
# Same-runner benchmark gate: measure a base commit and the checked-out
# tree on this machine with one copy of the benchmark, and fail when
# bench/compare.py finds a wrong run or an end-to-end metric worse than
# its BENCHMARK.json bound.
#
#   scripts/bench_gate.sh BASE_REV [OUT_DIR]
#
# BASE_REV is checked out in a temporary git worktree, and this tree's
# bench/ and BENCHMARK.json replace the worktree's copies, so only src/
# differs between the two sides.  Every workload runs for 10 s at seeds
# 3-7, alternating which side runs first.  Those seeds have no digests
# in bench/expected.json, so a run's correctness is its repeats agreeing
# with each other.  Records go to OUT_DIR/{base,head} (default: a fresh
# temporary directory) and the comparison table to standard output.
set -euo pipefail

base_rev=${1:?usage: scripts/bench_gate.sh BASE_REV [OUT_DIR]}
root=$(cd "$(dirname "$0")/.." && pwd)
out=${2:-$(mktemp -d)}
base_tree=$(mktemp -d)

git -C "$root" worktree add --detach --quiet "$base_tree" "$base_rev"
trap 'git -C "$root" worktree remove --force "$base_tree"' EXIT
rm -rf "$base_tree/bench"
cp -R "$root/bench" "$base_tree/bench"
cp "$root/BENCHMARK.json" "$base_tree/BENCHMARK.json"
mkdir -p "$out/base" "$out/head"

pair=0
for seed in 3 4 5 6 7; do
  for workload in run-sweep campaign fleet-control; do
    sides="base head"
    if (( pair % 2 )); then sides="head base"; fi
    for side in $sides; do
      tree=$root
      if [[ $side == base ]]; then tree=$base_tree; fi
      echo "bench-gate: $side $workload seed $seed" >&2
      (cd "$tree" && python3 bench/run.py --workload "$workload" \
        --seed "$seed" --seconds 10 \
        --out "$out/$side/$workload-$seed.json" > /dev/null)
    done
    pair=$((pair + 1))
  done
done

python3 "$root/bench/compare.py" "$out/base" "$out/head"
