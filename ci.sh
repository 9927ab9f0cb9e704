#!/usr/bin/env bash
# Local CI gate: build, full test suite, lints, formatting.
# Run from the repo root; fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# --no-fail-fast: one failing test target must not hide the ones after it.
cargo test --workspace -q --no-fail-fast
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# Rustdoc clean: no dead intra-doc link, no public doc linking a private
# item (about 5 s warm).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
# Benchmark-package gate: perf/ is a workspace of its own that
# path-depends on the crates above, so nothing else here compiles it and
# a changed public signature would break it unnoticed. Build, harness
# unit tests, and the --quick determinism self-check (about a minute).
perf/check.sh
# Every crate's tests in optimized builds, where the wrapping arithmetic
# of the hashes and probe loops is what ships. Among them the executable
# specifications: the octree model (pm-octree's tests/model.rs: random
# refine / coarsen / set-data / sweep / persist / crash streams under every
# crash mode) and the pm-rt model (tests/model.rs: stage / commit / pin /
# collect / service batch / crash streams); the leaf index and the
# dirty-line table against their models; the mesh routines' exact read
# counts on all three backends; worker-count invariance of cluster runs;
# whole-application reattach against a file checkpoint; and the repro CLI.
cargo test --release --workspace -q --no-fail-fast
# no_fork <pattern> <file…>: fail if <pattern> occurs in a file's code
# above its `#[cfg(test)]` module (the models live below it).
no_fork() {
    local pattern=$1 f
    shift
    for f in "$@"; do
        if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n "$pattern"; then
            echo "$f: the replaced structure ($pattern) is back outside the tests" >&2
            exit 1
        fi
    done
}
# The dirty-line table and the leaf index's edit delta replaced a BTreeMap
# of lines and a per-octant splice.
no_fork 'BTreeMap<u64, \[u8; CACHELINE\]>' crates/nvbm/src/*.rs
no_fork '\.splice(' crates/morton/src/index.rs
# The octree model replaced verbatim-copy oracles and domains.rs.
if grep -rn 'fn model_cow_path\|fn model_update_leaves\|fn model_locate\|trait Probes' crates/ ||
    [ -e crates/pm-octree/src/domains.rs ]; then
    echo "a replaced-code oracle or domains.rs is back (the octree model in tests/model.rs checks that code)" >&2
    exit 1
fi
# The pm-rt model replaced the shadow-map oracles, the caller-less log
# scan and the caller-less rank resurrection.
if [ -e crates/pm-rt/tests/prop_prefix.rs ] ||
    grep -rn 'fn log_compaction_preserves_byte_identity\|resurrect_from_replica' crates/ ||
    grep -n 'pub fn scan' crates/pm-rt/src/log.rs; then
    echo "a replaced pm-rt oracle, the log scan or rank resurrection is back (the pm-rt model in tests/model.rs checks that code)" >&2
    exit 1
fi
# pm-rt stands on the device alone: the octree is a test-only dependency.
if cargo tree --offline -e normal -p pm-rt | grep -n 'pm-octree'; then
    echo "pm-rt depends on pm-octree again (PmError lives in pmoctree-nvbm)" >&2
    exit 1
fi
# pm-rt keeps one of each: one error type (`PmError`), one record index in
# the log heap, batched commands as the one way into a tenant, and
# `PmStore` as the one octant store.
if grep -rn 'RtError\|RegionManager\|trait OctAccess\|TenantLease\|TenantBusy\|RecMeta\|advance_tail' crates/*/src; then
    echo "a deleted pm-rt bridge, heap index, lease door, region manager or octant-store trait is back" >&2
    exit 1
fi
# A pm-rt commit stores what its window staged, once: a staged record
# waits in DRAM until the commit, so no stage stores over a staged slot,
# and commit records front-code their names instead of length-prefixing
# each one whole.
no_fork 'arena.write(cur.off' crates/pm-rt/src/rt.rs
no_fork 'w.bytes(name.as_bytes())' crates/pm-rt/src/rt.rs
# Each run of pending records in adjacent slots is one store, not one
# store per record, and a commit record codes its entries' offsets and
# lengths as varints, not as fixed-width fields.
no_fork 'arena.write(off, &rec)' crates/pm-rt/src/rt.rs
no_fork 'w.u64(e.off)' crates/pm-rt/src/rt.rs
# Sparse media: the device holds the chunks some commit or load reached.
# The capacity-sized media vector, the second media trait and its
# flat-slice impl, the second recovery entry and the replica's
# whole-device byte count stay deleted, and neither crash captures nor
# replicas go through a flat export.
no_fork 'vec!\[0; capacity\]\|media: Vec<u8>' crates/nvbm/src/arena.rs
no_fork 'trait Media\|impl Media for\|fn recover_from\|live_octant_bytes' \
    crates/nvbm/src/*.rs crates/pm-octree/src/replica.rs
no_fork 'to_image()' crates/nvbm/src/failplan.rs crates/pm-octree/src/replica.rs
# One commit record publishes the octree and the runtime: the staged
# header fields, the second root slot and the separate rt root store stay
# deleted.
if grep -rn 'stage_epoch\|stage_bump_hint\|set_rt_root\|root_swap_half\|ROOT_SLOTS' crates/; then
    echo "a staged header field, the second root slot or the separate rt root store is back (one commit record publishes both)" >&2
    exit 1
fi
# One walker over both tiers: no second descent in c1.rs or api.rs, and
# update_leaves does not re-enter from the root per updated leaf.
no_fork 'fn deepest\|fn traverse' crates/pm-octree/src/c1.rs crates/pm-octree/src/api.rs
if sed -n '/pub fn update_leaves/,/^    }/p' crates/pm-octree/src/api.rs | grep -n 'update_data('; then
    echo "api.rs: update_leaves re-enters from the root per updated leaf again" >&2
    exit 1
fi
# A cold restart does not hash: the recovery scan checks each child against
# the key its slot implies instead of keeping a visited set or a key map,
# and extract keys its vertex map on one packed u64, not a coordinate array.
if sed -n '/^pub fn scan_tree(/,/^}/p' crates/pm-octree/src/verify.rs | grep -n 'HashSet\|HashMap'; then
    echo "verify.rs: scan_tree hashes the octants it visits again" >&2
    exit 1
fi
no_fork 'HashMap<VCoord' crates/amr/src/extract.rs
# Batched coarsen legality does not probe per key.
if sed -n '/^pub fn can_coarsen_many(/,/^}/p' crates/amr/src/balance.rs |
    grep -n 'containing_leaf(\|is_leaf('; then
    echo "balance.rs: coarsen legality probes per key again" >&2
    exit 1
fi
# The per-leaf neighbor kernel stays deleted.
no_fork 'neighbor_leaves_many' crates/amr/src/*.rs
# The cluster's 2:1 exchange reads sorted leaf slices: the gather takes
# each rank's owned keys off its leaf index instead of walking its tree,
# the rank-order table is not re-sorted, and the family kernel folds its
# parents on a stack instead of sorting them.
no_fork 'table.sort_unstable()' crates/cluster/src/scaling.rs
no_fork 'owned_leaves().into_iter().map(|(k, _)| k)' crates/cluster/src/scaling.rs
no_fork 'parents.sort_unstable' crates/amr/src/balance.rs
# Pressure relaxation is one leaf walk: its iterations run per leaf
# inside a single `update_leaves`, so no sweep calls `update_leaves`
# from inside a loop (rustfmt puts such a call 8 columns in).
no_fork '^        b\.update_leaves(' crates/solver/src/sweeps.rs
# Write every driver once: the Criterion layer `perf/` superseded stays
# deleted, the index-batch protocol is `LeafIndex::resolve_batch`'s, not
# re-typed per backend, and a rank's time step calls
# `Simulation::step_core` rather than copying its phases.
if [ -e crates/bench/benches ] || [ -e compat/criterion ] ||
    grep -ln criterion Cargo.toml crates/*/Cargo.toml compat/*/Cargo.toml perf/Cargo.toml; then
    echo "the Criterion benches/shim are back (the perf/ ladder measures those kernels)" >&2
    exit 1
fi
no_fork 'zorder_argsort' crates/pm-octree/src/api.rs crates/baselines/src/incore.rs crates/baselines/src/etree.rs
no_fork 'balance_subset(' crates/cluster/src/rank.rs
# A refine/coarsen/set-data meets the walker in exactly one place in
# api.rs (`PmOctree::apply_op`); the replaced copies and the two
# caller-less subsystems stay deleted.
for call in 'walk::apply('; do
    sites=$(sed '/^#\[cfg(test)\]/,$d' crates/pm-octree/src/api.rs | grep -c "$call" || true)
    if [ "$sites" != 1 ]; then
        echo "$call has $sites call sites in api.rs, want exactly one (PmOctree::apply_op)" >&2
        exit 1
    fi
done
no_fork 'fn count_shared\|fn apply_serial\|fn replay_serial' crates/pm-octree/src/c1.rs
if [ -e crates/cluster/src/replica_sched.rs ]; then
    echo "crates/cluster/src/replica_sched.rs is back (it had no non-test caller)" >&2
    exit 1
fi
# No whole-tree mark in persist or GC: persist frees what the step retired.
no_fork 'gc::mark' crates/pm-octree/src/api.rs crates/pm-octree/src/c1.rs
# One Morton path and zero unsafe: nothing under crates/ or compat/, nor
# the recipes that describe them, forks on CPU features, reads a knob to
# pick a path, or says `unsafe`; every crate root forbids it.
if grep -rn 'unsafe\|target_feature\|is_x86_feature_detected\|FORCE_SCALAR' \
    crates/ compat/ README.md DESIGN.md .claude/ | grep -v ':#!\[forbid(unsafe_code)\]$'; then
    echo "a second Morton path, its knob, or unsafe code is back" >&2
    exit 1
fi
for root in crates/*/src/lib.rs compat/*/src/lib.rs; do
    if ! grep -qx '#!\[forbid(unsafe_code)\]' "$root"; then
        echo "$root does not carry #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done
# Crash-consistency gate: every crash opportunity x every injection mode
# must recover to exactly V_i or V_{i-1} (exits non-zero on violation).
# The opportunity space is every store of every op the sweep's batches
# apply, every write-back and every labelled protocol point. Its two
# counts are pinned: a change that adds, drops or moves a store restates
# them here.
sweep=$(cargo run --release -p pmoctree-bench --bin repro -- crash-sweep --smoke)
printf '%s\n' "$sweep"
for want in 'Crash-point sweep: 1151 opportunities' 'Service crash sweep: 107 opportunities'; do
    if ! grep -qF "$want" <<<"$sweep"; then
        echo "crash-sweep --smoke no longer reports '$want'" >&2
        exit 1
    fi
done
# Artifact gate: the stdout of `repro all` at the default scale must be
# the committed repro_results.txt byte for byte, so a change that moves a
# §5 number regenerates the artifact that records it (about 6 s warm).
# It runs in a temporary directory: the BENCH_*.json files it writes stay
# out of the repo root.
repro_tmp=$(mktemp -d)
trap 'rm -rf "$repro_tmp"' EXIT
(cd "$repro_tmp" && cargo run --release -q --manifest-path "$OLDPWD/Cargo.toml" \
    -p pmoctree-bench --bin repro -- all) >"$repro_tmp/repro_all.txt"
if ! diff -u repro_results.txt "$repro_tmp/repro_all.txt"; then
    echo "repro all drifted from repro_results.txt: regenerate it with the change" >&2
    exit 1
fi
# Observability gate: a traced smoke workload must export a Chrome trace
# that the JSON-level validator accepts.
cargo run --release -p pmoctree-bench --bin repro -- droplet --quick --trace trace_smoke.json
cargo run --release -p pmoctree-bench --bin repro -- trace-check trace_smoke.json
rm -f trace_smoke.json
# One counter registry (`MemStats`): the second registry, its Prometheus
# exporter, the trace's counter events and the copies that fed them stay
# deleted.
if [ -e crates/obsv/src/metrics.rs ] || [ -e crates/obsv/src/prom.rs ]; then
    echo "crates/obsv/src/metrics.rs or prom.rs is back (MemStats is the one counter registry)" >&2
    exit 1
fi
no_fork 'counter_add\|counter_set\|gauge_set\|observe_labeled\|observe_ns\|publish_metrics\|trace_json_with_metrics' crates/*/src/*.rs
# Wear-telemetry gate: write_fraction writes BENCH_wear.json whole, so a
# valid entry an earlier run left behind (planted here as driver "stale")
# must not survive it, and the droplet driver's per-region/per-phase
# attribution must be there (the shape is checked by trace-check below).
stale='{"driver":"stale","wear":{"bytes_by_region":[{"name":"root_table","bytes":0},{"name":"octree","bytes":0},{"name":"rt_heap","bytes":0},{"name":"recorder","bytes":0}],"bytes_by_phase":[{"name":"mutate","bytes":0}],"wear_hist":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"max_wear":0,"max_wear_offset":0,"bytes_committed":0}}'
printf '{"experiment":"wear","drivers":[\n%s\n]}\n' "$stale" >BENCH_wear.json
cargo run --release -p pmoctree-bench --bin repro -- trace-check BENCH_wear.json
cargo run --release -p pmoctree-bench --bin repro -- write_fraction --quick
if grep -q '"driver":"stale"' BENCH_wear.json; then
    echo "BENCH_wear.json kept the stale driver entry of an earlier run" >&2
    exit 1
fi
if ! grep -q '"driver":"droplet"' BENCH_wear.json; then
    echo "BENCH_wear.json is missing the droplet driver" >&2
    exit 1
fi
# BENCH-document shape gate: trace-check validates every emitted
# BENCH_*.json (wear docs need all four regions + the 16-bucket
# histogram).
for f in BENCH_*.json; do
    cargo run --release -p pmoctree-bench --bin repro -- trace-check "$f"
done
