#!/usr/bin/env bash
# A/B comparison of the solver at a base revision (A) against the
# working tree (B), both measured by this tree's benchmark so that only
# the solver differs.
#
#   benchmark/ab.sh <base-rev> [pairs=10] [first-seed=0]
#
# Exports both solver trees under target/ab/, builds each once, then runs
# every workload for `pairs` seeds, alternating which side runs first,
# and prints `benchmark compare`. Exits 1 when a metric regressed beyond
# its bound in BENCHMARK.json.
set -euo pipefail

base=${1:?usage: benchmark/ab.sh <base-rev> [pairs=10] [first-seed=0]}
pairs=${2:-10}
first_seed=${3:-0}
root=$(git rev-parse --show-toplevel)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
ab=$root/target/ab

rm -rf "$ab"
mkdir -p "$ab/a" "$ab/b" "$ab/results-a" "$ab/results-b"
git -C "$root" archive "$base" Cargo.toml crates | tar -x -C "$ab/a"
tar -c -C "$root" Cargo.toml crates | tar -x -C "$ab/b"
for side in a b; do
    tar -c -C "$root" --exclude=target benchmark | tar -x -C "$ab/$side"
    CARGO_TARGET_DIR="$ab/$side-target" cargo build --quiet --release --offline \
        --manifest-path "$ab/$side/benchmark/Cargo.toml"
done

run() { # side workload seed
    "$ab/$1-target/release/benchmark" --workload "$2" --seed "$3" \
        --seconds "$seconds" --trace 0 --out "$ab/results-$1/$2-s$3.json" \
        > "$ab/results-$1/$2-s$3.log"
}

for ((k = 0; k < pairs; k++)); do
    seed=$((first_seed + k))
    for workload in table1-ci pec-graded certify; do
        if ((k % 2 == 0)); then
            run a "$workload" "$seed"
            run b "$workload" "$seed"
        else
            run b "$workload" "$seed"
            run a "$workload" "$seed"
        fi
    done
done

"$ab/b-target/release/benchmark" compare "$ab/results-a" "$ab/results-b" \
    --bounds "$root/BENCHMARK.json"
