#!/usr/bin/env bash
# Local CI gate: build, full test suite, lints, formatting.
# Run from the repo root; fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

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
# per-octant splice it replaced (and its galloping scan against `find`),
# the dirty-line table against a BTreeMap under forced collisions, growth
# and deletion chains. The replaced structures must be gone. The nvbm run
# also holds the sparse media and the chunked wear map (below).
cargo test --release -p pmoctree-morton -q
cargo test --release -p pmoctree-nvbm -q
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
# opportunity of a persist or of a sweep (whose stores a walk defers
# until it leaves an octant) under every crash mode — in optimized builds.
# A refusal stores nothing. The oracles it replaced (verbatim copies of
# replaced code) must stay deleted. The same run, all of pm-octree and the
# baselines in optimized builds, holds the walker (below) to its claims.
cargo test --release -p pm-octree -p pmoctree-baselines -q
if grep -rn 'fn model_cow_path\|fn model_update_leaves\|fn model_locate\|trait Probes' crates/ ||
    [ -e crates/pm-octree/src/domains.rs ]; then
    echo "a replaced-code oracle or domains.rs is back (the octree model in tests/model.rs checks that code)" >&2
    exit 1
fi
# The runtime's executable specification: one pm-rt model (the staged and
# committed root maps, and the view every live snapshot pinned) held to
# the public API after every step of random stage / unregister / revert /
# commit / pin / collect / service batch / crash streams — raw and
# through tenant handles, on a roomy and a filling device — with crashes
# between steps and at any opportunity or label of a commit or flush,
# under every crash mode, in optimized builds. The shadow-map oracles it
# replaced, the caller-less log scan and the caller-less rank
# resurrection must stay deleted. The same run holds the heap and the
# commit record (below) to their claims.
cargo test --release -p pm-rt -q
if [ -e crates/pm-rt/tests/prop_prefix.rs ] ||
    grep -rn 'fn log_compaction_preserves_byte_identity\|resurrect_from_replica' crates/ ||
    grep -n 'pub fn scan' crates/pm-rt/src/log.rs; then
    echo "a replaced pm-rt oracle, the log scan or rank resurrection is back (the pm-rt model in tests/model.rs checks that code)" >&2
    exit 1
fi
# pm-rt keeps one of each: one error type (`PmError`, from the byte codec
# up), one record index in the log heap (the live records by offset and by
# append stamp, so the ring yields each live record once, oldest first,
# and an emptied ring appends at its base — in optimized builds, the
# pm-rt run above), and batched commands as the one way into a tenant.
# The arena holds its two live edges itself and `PmStore` is the one
# octant store. The 1:1 bridges, the second index and the lease door must
# stay deleted.
if grep -rn 'RtError\|RegionManager\|trait OctAccess\|TenantLease\|TenantBusy\|RecMeta\|advance_tail' crates/*/src; then
    echo "a deleted pm-rt bridge, heap index, lease door, region manager or octant-store trait is back" >&2
    exit 1
fi
# One commit record: the octree and the runtime publish through one sealed
# header line, written to the slot the committed record does not hold;
# recovery takes the valid slot with the higher seq. Every publication
# (create, persist, persist with an rt commit, service flush) commits
# exactly 64 header bytes; a torn or flipped slot leaves the other slot's
# version, and a record naming nonsense is refused or its hints clamped —
# in optimized builds (the pm-rt run above). The staged header fields, the
# second root slot and the separate rt root store must stay deleted.
# Sparse media: the device holds the chunks some commit or load reached.
# Stores, write-backs, evictions and every crash mode across a chunk
# boundary act as on flat memory, and the live crash and a crash view
# commit the same bytes; untouched ranges and all-zero files materialise
# nothing; the saved file round-trips byte-equal; the chunked wear map
# answers like the flat one (the nvbm run above); §5.6's new-node restore
# beats the in-core re-read (the cluster run below) — in optimized builds.
# The capacity-sized media vector must not come back.
# The chunk set is the one media value: the second media trait and its
# flat-slice impl, the second recovery entry and the replica's
# whole-device byte count must stay deleted, and neither crash captures
# nor replicas may go through a flat export.
no_fork 'vec!\[0; capacity\]\|media: Vec<u8>' crates/nvbm/src/arena.rs
no_fork 'trait Media\|impl Media for\|fn recover_from\|live_octant_bytes' \
    crates/nvbm/src/*.rs crates/pm-octree/src/replica.rs
no_fork 'to_image()' crates/nvbm/src/failplan.rs crates/pm-octree/src/replica.rs
if grep -rn 'stage_epoch\|stage_bump_hint\|set_rt_root\|root_swap_half\|ROOT_SLOTS' crates/; then
    echo "a staged header field, the second root slot or the separate rt root store is back (one commit record publishes both)" >&2
    exit 1
fi
# One walker over both tiers' line stores, in optimized builds: an op reads
# its path once, and a batch of lookups or links a shared prefix once; a
# sweep reads one line per octant and a copy stores each copy once,
# publishing no link of a leaf that ran out of room; a C0 node is its
# record image (a leaf one line), and refine, coarsen, point reads,
# samples (each walked line once), the in-core baseline and the
# tier-to-tier copy charge the lines they touch, alike in both tiers op
# for op; any 64 bytes decode or are `Corrupt`. The same run holds
# persist to what the step changed (no read for an untouched leaf, a
# common link path once per walk; GC frees only what V_{i-1} cannot
# reach; out of room, the partial image is retired), the transform scan
# to the octants above L_sub and the impure ones, a seeding refine to the
# eviction line, a restore to refusing an octant stamped past the
# record's epoch, and a 64 GiB nominal octree, its replica and a crash
# view to its bump plus two chunks (an unusable replica is an error) —
# the pm-octree run above.
# The mesh routines read what the answer depends on — all of the amr
# crate, by exact count, in optimized builds: batched coarsen legality
# matches the per-key rule on all three backends; 2:1 balance asks one
# lookup per outward face of a parent family (≤ 6, no root descent),
# reaches the per-key `refine_balanced` fixed point on all three backends
# with checks naming the per-leaf scan's pair, and ends when the device
# refuses a round whole; `adapt` takes both votes in one leaf sweep (a
# quiet pass reads one sweep's lines; no family refined in a pass is
# coarsened in it); `extract`'s corner count matches the definition (a
# corner of every incident leaf) on random unbalanced trees and reads one
# index sweep and no NVBM line.
cargo test --release -p pmoctree-amr -q
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
# A cluster's global balance returns when the devices are full (the
# cluster run below; the amr run above holds one rank's balance to the
# same). The per-leaf neighbor kernel must stay deleted.
no_fork 'neighbor_leaves_many' crates/amr/src/*.rs
# Write-every-driver-once gates: the Criterion layer `perf/` superseded
# must stay deleted, the index-batch protocol (argsort, gather,
# merge-scan, scatter) is called from `LeafIndex::resolve_batch`, not
# re-typed per backend, and a rank's time step is a call to
# `Simulation::step_core`, not a copy of its six phases (the cluster run
# below holds a full-range rank to the single-rank step).
if [ -e crates/bench/benches ] || [ -e compat/criterion ] ||
    grep -ln criterion Cargo.toml crates/*/Cargo.toml compat/*/Cargo.toml perf/Cargo.toml; then
    echo "the Criterion benches/shim are back (the perf/ ladder measures those kernels)" >&2
    exit 1
fi
no_fork 'zorder_argsort' crates/pm-octree/src/api.rs crates/baselines/src/incore.rs crates/baselines/src/etree.rs
no_fork 'balance_subset(' crates/cluster/src/rank.rs
# One-kernel / one-census gates: a refine/coarsen/set-data meets the
# walker in exactly one place in api.rs (`PmOctree::apply_op`, the per-op
# API's body; a batch is that API in a loop, seeding and all),
# and the Fig. 3 overlap and the replica delta are read off the
# collection's counters (the model holds them to a mark walk of the
# published version). The replaced copies and the two caller-less
# subsystems must be gone, not kept beside them.
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
# A time step does not re-walk the tree: `adapt` takes both votes in one
# leaf sweep (the amr run above), and persist frees what the step retired
# (the `--lib` run above), with the registry held to a mark walk after
# every model step. The owned leaves of 2- and 4-rank PM clusters on 1
# and 2 workers tile the domain 2:1 after every step (the cluster run
# below). No whole-tree mark in persist or GC.
no_fork 'gc::mark' crates/pm-octree/src/api.rs crates/pm-octree/src/c1.rs
# One-Morton-path / zero-unsafe gate: the batch entry points are loops
# over the per-key calculus (the morton crate's tests, above), and nothing
# under crates/ or compat/ — nor the recipes that describe them — forks
# on CPU features, reads a knob to pick a path, or says `unsafe`; every
# crate root forbids it.
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
# Worker-pool determinism gate: cluster runs (ranks on the pool, each with
# its own tree and device) must report and trace byte-identically whether
# 1, 2 or 4 workers execute the ranks. The same run, all of the cluster
# crate in optimized builds, holds the cluster claims named above.
cargo test --release -p pmoctree-cluster -q
# Orthogonal-persistence gates: a run crashed at every labelled
# opportunity of one step (rt::commit among them) and at evenly spaced
# opportunities of the whole run resumes to the uncrashed run's report,
# and whole-application reattach beats the restart from an fsync-charged
# file checkpoint >=10x on the virtual clock (the whole solver crate).
cargo test --release -p pmoctree-solver -q
# Observability gates: traces validate, tracing costs the virtual clock
# nothing and the flight recorder at most 5%; and a traced smoke workload
# must export a Chrome trace that the JSON-level validator accepts. The
# same run (the whole bench crate) holds the repro CLI (below) to usage.
cargo test --release -p pmoctree-bench -q
cargo run --release -p pmoctree-bench --bin repro -- droplet --quick --trace trace_smoke.json
cargo run --release -p pmoctree-bench --bin repro -- trace-check trace_smoke.json
rm -f trace_smoke.json
# An unknown repro subcommand or option exits 2 with the usage text, so a
# script naming one repro does not run fails instead of passing silently
# (the bench run above).
# One counter registry: the tracer journals spans and instants, and the
# device's counters live in `MemStats` (with `Events`, `ReplicaSet` and
# `ServiceStats` beside it). The second registry, its Prometheus exporter,
# the trace's counter events and the copies that fed them must stay
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
# histogram).
for f in BENCH_*.json; do
    cargo run --release -p pmoctree-bench --bin repro -- trace-check "$f"
done
