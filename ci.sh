#!/usr/bin/env bash
# Local CI gate: build, full test suite, lints, formatting.
# Run from the repo root; fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

# diff_gate <label> <subcommand…> -- <file…>: run the repro subcommand
# with `--workers 1`, keep a copy of each named document, run it again
# with `--workers 4`, and fail unless every document is byte-identical
# (only wall-clock may differ between worker counts).
diff_gate() {
    local label=$1 cmd=() f
    shift
    while [ "$1" != "--" ]; do
        cmd+=("$1")
        shift
    done
    shift
    cargo run --release -p pmoctree-bench --bin repro -- "${cmd[@]}" --workers 1
    for f in "$@"; do cp "$f" "${f%.json}.w1.json"; done
    cargo run --release -p pmoctree-bench --bin repro -- "${cmd[@]}" --workers 4
    for f in "$@"; do
        if ! diff -q "${f%.json}.w1.json" "$f"; then
            echo "$label diverged between 1 and 4 workers" >&2
            exit 1
        fi
        rm -f "${f%.json}.w1.json"
    done
}

cargo build --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# Benchmark-package gate: perf/ is a workspace of its own that
# path-depends on the crates above, so nothing else here compiles it and
# a changed public signature would break it unnoticed. Build, harness
# unit tests, and the --quick determinism self-check (about a minute).
perf/check.sh
# Host-bookkeeping gates: the two structures that carry the uncharged
# host work of the mesh write path are checked against executable models
# in optimized builds (where the wrapping arithmetic of the hash and the
# probe loops is what ships) — the leaf index's edit delta against the
# per-octant splice it replaced, the dirty-line table against a BTreeMap
# under forced collisions, growth and deletion chains. The replaced
# structures must be gone, not kept beside the new ones.
cargo test --release -p pmoctree-morton --lib index::tests::model_parity -q
cargo test --release -p pmoctree-nvbm --lib lines::tests -q
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
no_fork 'BTreeMap<u64, \[u8; CACHELINE\]>' crates/nvbm/src/*.rs
no_fork '\.splice(' crates/morton/src/index.rs
# The executable specification: one octree model (a map from every octant
# of V_i to its payload, plus the V_{i-1} copy taken at each persist) held
# to the public API after every step of random refine / coarsen /
# set-data / sweep / persist / crash streams, over three tier
# configurations and a filling device — outcomes, every read per key and
# batched, the persist census, and crashes between ops or at any crash
# opportunity of a persist under every crash mode — in optimized builds.
# A refusal stores nothing. The oracles it replaced (verbatim copies of
# replaced code) must stay deleted.
cargo test --release -p pm-octree --test model -q
if grep -rn 'fn model_cow_path\|fn model_update_leaves\|fn model_locate\|trait Probes' crates/ ||
    [ -e crates/pm-octree/src/domains.rs ]; then
    echo "a replaced-code oracle or domains.rs is back (the octree model in tests/model.rs checks that code)" >&2
    exit 1
fi
# Descent-free time-step gates, by exact count: batched coarsen legality
# against the per-key rule on all three backends, in optimized builds.
# One whole-tree NVBM walker (`c1::sweep_leaves`) and one root-to-key
# walker (the cursor — an op descends its path once, a batch reads a
# shared prefix once, a merge reads each shadow octant once), no per-leaf
# root re-entry in `update_leaves`, no per-key probe loop in `can_coarsen`.
cargo test --release -p pm-octree --lib c1::tests::an_op_walks_its_path_once -q
cargo test --release -p pm-octree --lib c1::tests::a_cursor_reads_a_shared_prefix_once -q
cargo test --release -p pm-octree --lib c1::tests::merge_reads_each_shadow_octant_once -q
cargo test --release -p pm-octree --lib c1::tests::descend_outside_the_root_is_not_found -q
# A COW walk stores each copy once: d record writes — one line for a leaf,
# two for an interior octant — and one link store (or a new root), counted
# in write lines and in crash opportunities. A leaf is one line: its
# payload sits in the link bytes it has no use for, so a sweep reads one
# line per octant, a rewritten shared leaf is one one-line copy carrying
# its new payload plus the link store, and the link store leaves the
# presence mask as the recovery scan wants it. Refine and coarsen move the
# payload between the two places and keep it; any 64 bytes decode to a
# navigation line or to `Corrupt`.
cargo test --release -p pm-octree --lib c1::tests::cow_stores_each_copy_once -q
cargo test --release -p pm-octree --lib c1::tests::updating_a_shared_leaf_costs_one_copy_and_one_link -q
cargo test --release -p pm-octree --lib c1::tests::a_sweep_reads_one_line_per_octant -q
cargo test --release -p pm-octree --lib octant::tests::a_leaf_is_one_line -q
cargo test --release -p pm-octree --lib octant::tests::any_navigation_line_decodes_or_is_corrupt -q
cargo test --release -p pm-octree --lib api::tests::a_leaf_keeps_its_payload_across_refine_and_coarsen -q
cargo test --release -p pm-octree --lib octant::tests::set_link_leaves_the_mask_coherent -q
cargo test --release -p pmoctree-amr --test prop_backends batched_coarsen_legality -q
no_fork 'fn deepest\|fn traverse' crates/pm-octree/src/c1.rs crates/pm-octree/src/api.rs
if sed -n '/pub fn update_leaves/,/^    }/p' crates/pm-octree/src/api.rs | grep -n 'update_data('; then
    echo "api.rs: update_leaves re-enters from the root per updated leaf again" >&2
    exit 1
fi
if sed -n '/^pub fn can_coarsen_many(/,/^pub fn coarsen_balanced(/p' crates/amr/src/balance.rs |
    grep -n 'containing_leaf(\|is_leaf('; then
    echo "balance.rs: coarsen legality probes per key again" >&2
    exit 1
fi
# Write-every-driver-once gates: the Criterion layer `perf/` superseded
# must stay deleted, the index-batch protocol (argsort, gather,
# merge-scan, scatter) is called from `LeafIndex::resolve_batch`, not
# re-typed per backend, and a rank's time step is a call to
# `Simulation::step_core`, not a copy of its six phases.
if [ -e crates/bench/benches ] || [ -e compat/criterion ] ||
    grep -ln criterion Cargo.toml crates/*/Cargo.toml compat/*/Cargo.toml perf/Cargo.toml; then
    echo "the Criterion benches/shim are back (the perf/ ladder measures those kernels)" >&2
    exit 1
fi
no_fork 'zorder_argsort' crates/pm-octree/src/api.rs crates/baselines/src/incore.rs crates/baselines/src/etree.rs
no_fork 'balance_subset(' crates/cluster/src/rank.rs
cargo test --release -p pmoctree-morton --lib index::tests::resolve_batch -q
cargo test --release -p pmoctree-cluster --lib rank::tests::full_range_rank_step -q
# One-kernel / one-census gates: a refine/coarsen/set-data meets the c1
# COW routines in exactly one place outside c1.rs (`PmOctree::apply_op`,
# the per-op API's body; a batch is that API in a loop, seeding and all),
# and the Fig. 3 overlap and the replica delta are read off the GC mark
# walk (the model checks the census), a seeding refine against the
# eviction line, in optimized builds. The replaced copies and the two
# caller-less subsystems must be gone, not kept beside them.
cargo test --release -p pm-octree --lib api::tests::seeding_stays_under_the_eviction_line -q
for call in 'c1::refine(' 'c1::coarsen(' 'c1::update_data('; do
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
# One-Morton-path / zero-unsafe gate: the batch entry points are loops
# over the per-key calculus (held to it in optimized builds, where the
# shifts and asserts are what ships), and nothing under crates/ or compat/
# — nor the recipes that describe them — forks on CPU features, reads a
# knob to pick a path, or says `unsafe`; every crate root forbids it.
cargo test --release -p pmoctree-morton --test prop_batch -q
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
# apply, every write-back and every labelled protocol point.
cargo run --release -p pmoctree-bench --bin repro -- crash-sweep --smoke
# Worker-pool determinism gate: cluster runs (ranks on the pool, each with
# its own tree and device) must report and trace byte-identically whether
# 1, 2 or 4 workers execute the ranks.
cargo test --release -p pmoctree-cluster --test thread_invariance -q
# Orthogonal-persistence gate: runs crashed at sampled FailPlan
# opportunities (including rt::commit) must resume to a report — and
# hence a BENCH JSON — byte-identical to the uncrashed run, and
# whole-application PM restart must beat the fsync-charged
# file-checkpoint baseline >=10x (exits non-zero on either failure).
cargo run --release -p pmoctree-bench --bin repro -- recovery-rt --smoke
# Observability gate: a traced smoke workload must export a Chrome trace
# that the independent JSON-level validator accepts.
cargo run --release -p pmoctree-bench --bin repro -- droplet --quick --trace trace_smoke.json
cargo run --release -p pmoctree-bench --bin repro -- trace-check trace_smoke.json
rm -f trace_smoke.json
# Worker-pool determinism gate: the cluster smoke must emit byte-identical
# JSON whether the pool runs 1 worker or 4 (only wall-clock may differ).
diff_gate "cluster smoke" cluster-smoke -- BENCH_cluster_smoke.json
# Flight-recorder gate: the blackbox run (recorder on, recovered from the
# arena's own media, overhead measured against a recorder-off run) must
# pass its internal gates — well-formed dump, <=5% virtual-clock
# inflation — and emit byte-identical JSON under 1 and 4 workers.
diff_gate "blackbox run" blackbox --quick -- BENCH_blackbox.json
# Wear-telemetry gate: write_fraction writes BENCH_wear.json whole, so a
# valid entry an earlier run left behind (planted here as driver "stale")
# must not survive it, and the droplet driver's per-region/per-phase
# attribution must be there (the shape is checked by trace-check below).
# The service workload's checks (snapshot rereads, quota rejections,
# relocations, bytes per commit) run in perf/check.sh's service_zipf.
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
# histogram; blackbox needs a well-formed recovered dump).
for f in BENCH_*.json; do
    cargo run --release -p pmoctree-bench --bin repro -- trace-check "$f"
done
