#!/usr/bin/env bash
# A/A: measure this checkout twice with one seed and compare the two
# result sets against the bounds of BENCHMARK.json.
#
#   perf/aa.sh [SEED [ROUNDS]]     (default: seed 1, 3 rounds, about 9 min)
#
# Like the driver, every workload runs in a process of its own. The two
# sets alternate (A, B, A, B, ...) so that a slow or fast epoch of the box
# falls on both, and --compare reads the median of each set's rounds.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
rounds="${2:-3}"
manifest=perf/Cargo.toml
out=perf/out
mkdir -p "$out"
rm -f "$out/aa_a_$seed.jsonl" "$out/aa_b_$seed.jsonl"
cargo build --release --quiet --offline --manifest-path "$manifest"
run() { cargo run --release --quiet --offline --manifest-path "$manifest" -- "$@"; }
for _ in $(seq "$rounds"); do
    for set in a b; do
        for workload in droplet_l9 cluster_r8_l9 service_zipf restart_l9; do
            run --workload "$workload" --seed "$seed" --trace 0 \
                --out "$out/aa_${set}_$seed.jsonl" >/dev/null
        done
    done
done
run --compare "$out/aa_a_$seed.jsonl" "$out/aa_b_$seed.jsonl"
