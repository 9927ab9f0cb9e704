#!/usr/bin/env bash
# Build, unit tests, and the --quick self-checks: the deterministic
# metrics of two runs of one seed are byte-equal, every workload exits 0,
# and (in the unit tests) the metric and workload names the harness emits
# are exactly the names in BENCHMARK.json. Takes about a minute.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=perf/Cargo.toml
out=perf/out/check
rm -rf "$out"
mkdir -p "$out"

cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"

run() { cargo run --release --quiet --offline --manifest-path "$manifest" -- "$@"; }
run --quick --seed 1 --trace 0 >"$out/a.txt"
run --quick --seed 1 --trace 0 >"$out/b.txt"
deterministic() { grep -E '^[a-z0-9_]+ +(virt_s|nvbm_bytes_per_unit|fail_ratio) ' "$1"; }
diff <(deterministic "$out/a.txt") <(deterministic "$out/b.txt")
test "$(deterministic "$out/a.txt" | wc -l)" -eq 12

# The traced run prints every per-layer metric and keeps the residual low.
run --quick --seed 1 --trace 1 >"$out/traced.txt"
test "$(grep -c ' harness.residual_share ' "$out/traced.txt")" -eq 4
ls "$out/../trace_droplet_l9.json" "$out/../trace_cluster_r8_l9.json" \
    "$out/../trace_service_zipf.json" "$out/../trace_restart_l9.json" >/dev/null
echo "perf/check.sh: OK"
