//! Concurrent write domains: domain-parallel batched mutation of one
//! [`PmOctree`].
//!
//! A batch of refine/coarsen/set-data operations is partitioned by each
//! key's ancestor at `DOMAIN_LEVEL` — a fixed shallow cut through the
//! key space — into disjoint *write domains*. Each domain gets its own
//! [`ShardStore`]: a read view of the arena's fork-point snapshot, a
//! private write overlay, and a pre-carved allocator lease, so N worker
//! threads mutate one tree with no shared mutable state. The protocol:
//!
//! 1. **Serial pre-pass.** Every domain root is made epoch-exclusive with
//!    one COW path walk. After this, the spine above the domain cut
//!    belongs to `V_i` alone, and each domain root offset is *final*: no
//!    shard operation can move it (COW inside a shard terminates at the
//!    exclusive domain root). Shards therefore never write outside their
//!    own subtree or lease.
//! 2. **Parallel execution.** Domains run on the worker pool
//!    (`rayon::par_iter_mut`), each applying its operations in batch
//!    input order against its `ShardStore`. Buffered shard stores fire
//!    **no** crash opportunities — a domain's writes are invisible to the
//!    device until publication.
//! 3. **Serial join.** In fixed (sorted) domain order, each shard's
//!    overlay is absorbed into the arena
//!    ([`NvbmArena::absorb_shard`](pmoctree_nvbm::NvbmArena::absorb_shard)),
//!    firing one `sweep::interleave` crash opportunity per domain whose
//!    oracle view is the base image plus a deterministic *prefix* of the
//!    domain overlays — exactly the per-thread interleaving schedules the
//!    crash sweep enumerates. Lease tails are released, registries
//!    appended, and leaf/depth/index bookkeeping replayed in input order.
//!
//! Why any interleaving of domain publication recovers cleanly (the
//! NVTraverse flush-at-destination argument): the pre-pass made every
//! octant a shard writes in place epoch-exclusive, i.e. unreachable from
//! the durable `V_{i-1}` roots; newly allocated octants live in lease
//! regions no durable pointer names. So the dirty image after *any*
//! prefix of domain absorptions differs from the base only in lines the
//! persisted version never reads — only the publication edges (the
//! persist protocol's root swap) need ordering, and those remain serial.
//!
//! The batch always runs through this sharded path, whatever the worker
//! count; the rayon shim's worker-count-independent chunk grid plus the
//! fixed-order join make reports, media, clock and trace byte-identical
//! for 1, 2, 4 or N workers.
//!
//! Batch semantics differ from the per-op API in two documented ways:
//! batched refines never seed DRAM (C0) subtrees, and a batched coarsen
//! whose children still live in DRAM reports `false` instead of absorbing
//! them. Operations on C0-owned or above-the-cut keys fall out of the
//! sharded path and run serially with full per-op semantics.

use std::collections::BTreeMap;

use pmoctree_morton::OctKey;
use pmoctree_nvbm::{AllocLease, ArenaSnapshot, POffset, ShardDelta};
use rayon::prelude::*;

use crate::api::{PmError, PmOctree};
use crate::c1::{self, Locate};
use crate::octant::{CellData, OctAccess, ShardStore};

/// Tree level at which batched mutations shard into concurrent write
/// domains: every octant key at or below this level belongs to the
/// domain of its level-`DOMAIN_LEVEL` ancestor (up to 8 domains). Batches
/// always shard — for any worker count — so results are byte-identical
/// whether 1 or N workers execute the domains.
pub(crate) const DOMAIN_LEVEL: u8 = 1;

/// One batched mutation, routed to a write domain by its key.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DomainOp {
    /// Refine the leaf at this key into 8 children.
    Refine(OctKey),
    /// Coarsen the octant at this key (children must be NVBM leaves).
    Coarsen(OctKey),
    /// Overwrite the payload of the octant at this key.
    SetData(OctKey, CellData),
}

impl DomainOp {
    fn key(&self) -> OctKey {
        match *self {
            DomainOp::Refine(k) | DomainOp::Coarsen(k) | DomainOp::SetData(k, _) => k,
        }
    }

    /// Upper bound on octant allocations this op can make inside its
    /// shard: one COW copy per level below the (already exclusive)
    /// domain root, plus 8 children for a refine.
    fn lease_blocks(&self) -> usize {
        let path = self.key().level().saturating_sub(DOMAIN_LEVEL) as usize;
        match self {
            DomainOp::Refine(_) => path + 8,
            DomainOp::Coarsen(_) | DomainOp::SetData(..) => path,
        }
    }
}

/// A domain's work order: its exclusive root, its slice of the batch (in
/// input order), its allocator lease, and — after the parallel phase —
/// its outcome.
struct Task {
    root: POffset,
    ops: Vec<(usize, DomainOp)>,
    lease: AllocLease,
    out: Option<Result<ShardOut, PmError>>,
}

type ShardOut = (ShardDelta, AllocLease, Vec<POffset>, Vec<(usize, bool)>);

/// Execute `ops` against `t`, domain-parallel where possible. Returns one
/// success flag per op, in input order. Device-full inside a shard (lease
/// exhausted) or at lease carving falls back to replaying the whole
/// domain portion serially — the conditions are data-dependent, never
/// worker-count-dependent, so results stay deterministic.
pub fn run_batch(t: &mut PmOctree, ops: &[DomainOp]) -> Vec<bool> {
    let mut results = vec![false; ops.len()];
    if ops.is_empty() {
        return results;
    }
    // Partition: C0-owned or above-the-cut keys run serially with full
    // per-op semantics; everything else shards by domain ancestor.
    let mut residual: Vec<(usize, DomainOp)> = Vec::new();
    let mut domains: BTreeMap<OctKey, Vec<(usize, DomainOp)>> = BTreeMap::new();
    for (i, &op) in ops.iter().enumerate() {
        let k = op.key();
        // A coarsen whose children are DRAM-resident needs the serial
        // path too: the per-op API absorbs those C0 subtrees first, and a
        // shard (NVBM-only view) cannot.
        let c0_children = matches!(op, DomainOp::Coarsen(_))
            && k.level() < pmoctree_morton::OctKey::MAX_LEVEL
            && (0..8).any(|c| t.forest.owner_of(&k.child(c)).is_some());
        if k.level() < DOMAIN_LEVEL || t.forest.owner_of(&k).is_some() || c0_children {
            residual.push((i, op));
        } else {
            domains.entry(k.ancestor_at(DOMAIN_LEVEL)).or_default().push((i, op));
        }
    }
    for (i, op) in residual {
        results[i] = apply_serial(t, op);
    }
    // Serial pre-pass: materialize each domain root as epoch-exclusive.
    // Domains whose root is absent (or un-COW-able) run serially late.
    let mut pending: Vec<(POffset, Vec<(usize, DomainOp)>)> = Vec::new();
    let mut late: Vec<(usize, DomainOp)> = Vec::new();
    for (dk, dops) in domains {
        match c1::locate(&mut t.store, t.current_root, dk) {
            Locate::Nvbm(_) => match c1::cow_path(&mut t.store, t.current_root, dk, t.epoch) {
                Ok((root, off)) => {
                    t.current_root = root;
                    pending.push((off, dops));
                }
                Err(_) => late.extend(dops),
            },
            _ => late.extend(dops),
        }
    }
    // Carve one bump-region lease per domain. Carving failure means the
    // device cannot promise every domain its worst case up front: release
    // everything and replay the whole domain portion serially.
    t.store.alloc.set_limit(t.store.arena.live_rt_floor());
    let mut tasks: Vec<Task> = Vec::new();
    let mut carve_failed = false;
    for (root, dops) in pending {
        let blocks: usize = dops.iter().map(|(_, op)| op.lease_blocks()).sum::<usize>().max(1);
        match t.store.alloc.carve_lease(blocks) {
            Some(lease) => tasks.push(Task { root, ops: dops, lease, out: None }),
            None => {
                late.extend(dops);
                carve_failed = true;
            }
        }
    }
    t.store.arena.publish_bump(t.store.alloc.bump());
    if carve_failed {
        for task in &tasks {
            t.store.alloc.release_lease(task.lease, task.lease.start());
        }
        replay_serial(t, tasks, &mut results);
        late.sort_unstable_by_key(|&(i, _)| i);
        for (i, op) in late {
            results[i] = apply_serial(t, op);
        }
        return results;
    }
    // Parallel phase: one ShardStore per domain over a shared fork-point
    // snapshot. Buffered stores fire no crash opportunities; each shard
    // is single-threaded and deterministic.
    let epoch = t.epoch;
    {
        let snap = t.store.arena.snapshot();
        tasks.par_iter_mut().for_each(|task| {
            task.out = Some(run_shard(&snap, epoch, task.root, &task.ops, task.lease));
        });
    }
    if tasks.iter().any(|task| matches!(task.out, Some(Err(_)))) {
        // A shard over-ran its lease (device effectively full). Discard
        // every overlay — nothing was published — and replay serially.
        for task in &tasks {
            t.store.alloc.release_lease(task.lease, task.lease.start());
        }
        replay_serial(t, tasks, &mut results);
        for (i, op) in late {
            results[i] = apply_serial(t, op);
        }
        return results;
    }
    // Serial join, in fixed (sorted-domain) order: publish each overlay —
    // one `sweep::interleave` crash opportunity per domain — release the
    // unused lease tail, and append the domain's allocations.
    let mut flags: Vec<(usize, bool)> = Vec::new();
    for task in tasks {
        let (delta, lease, regs, shard_flags) =
            task.out.expect("joined task").expect("checked above");
        t.store.arena.absorb_shard("sweep::interleave", delta);
        t.store.alloc.release_lease(lease, lease.cursor());
        t.store.registry.extend(regs);
        flags.extend(shard_flags);
    }
    // Bookkeeping replays in batch input order.
    flags.sort_unstable_by_key(|&(i, _)| i);
    let mut mutated = false;
    for (i, ok) in flags {
        results[i] = ok;
        if !ok {
            continue;
        }
        match ops[i] {
            DomainOp::Refine(k) => {
                t.leaves += 7;
                t.depth = t.depth.max(k.level() + 1);
                t.index.on_refine_uniform(k, 0);
                mutated = true;
            }
            DomainOp::Coarsen(k) => {
                t.leaves -= 7;
                t.index.on_coarsen(k, 0);
                mutated = true;
            }
            DomainOp::SetData(..) => {}
        }
    }
    if mutated {
        t.after_mutation();
    }
    for (i, op) in late {
        results[i] = apply_serial(t, op);
    }
    results
}

/// One domain's worker body: apply its ops in input order against a
/// private shard. Only lease exhaustion ([`PmError::Full`]) aborts the
/// shard (triggering the caller's serial fallback); per-op refusals —
/// missing key, non-leaf refine, non-coarsenable node — report `false`
/// exactly like their serial counterparts.
fn run_shard(
    snap: &ArenaSnapshot<'_>,
    epoch: u32,
    root: POffset,
    ops: &[(usize, DomainOp)],
    lease: AllocLease,
) -> Result<ShardOut, PmError> {
    let mut shard = ShardStore::new(snap, lease);
    let mut flags = Vec::with_capacity(ops.len());
    for &(i, op) in ops {
        let ok = match op {
            DomainOp::Refine(k) => match c1::locate(&mut shard, root, k) {
                Locate::Nvbm(p) if shard.is_leaf_octant(p) => {
                    match c1::refine(&mut shard, root, k, epoch) {
                        Ok(r) => {
                            debug_assert_eq!(r, root, "shard mutation moved the domain root");
                            true
                        }
                        Err(e @ PmError::Full(_)) => return Err(e),
                        Err(_) => false,
                    }
                }
                _ => false,
            },
            DomainOp::Coarsen(k) => match c1::locate(&mut shard, root, k) {
                Locate::Nvbm(p) if !shard.is_leaf_octant(p) => {
                    match c1::coarsen(&mut shard, root, k, epoch) {
                        Ok(r) => {
                            debug_assert_eq!(r, root, "shard mutation moved the domain root");
                            true
                        }
                        Err(e @ PmError::Full(_)) => return Err(e),
                        Err(_) => false,
                    }
                }
                _ => false,
            },
            DomainOp::SetData(k, d) => match c1::locate(&mut shard, root, k) {
                Locate::Nvbm(_) => match c1::update_data(&mut shard, root, k, &d, epoch) {
                    Ok(r) => {
                        debug_assert_eq!(r, root, "shard mutation moved the domain root");
                        true
                    }
                    Err(e @ PmError::Full(_)) => return Err(e),
                    Err(_) => false,
                },
                _ => false,
            },
        };
        flags.push((i, ok));
    }
    let (delta, lease, regs) = shard.into_parts();
    Ok((delta, lease, regs, flags))
}

/// Serial fallback: replay every domain op through the per-op API in
/// batch input order (overlays were discarded; the tree is untouched
/// beyond content-identical pre-pass spine copies).
fn replay_serial(t: &mut PmOctree, tasks: Vec<Task>, results: &mut [bool]) {
    let mut all: Vec<(usize, DomainOp)> = tasks.into_iter().flat_map(|task| task.ops).collect();
    all.sort_unstable_by_key(|&(i, _)| i);
    for (i, op) in all {
        results[i] = apply_serial(t, op);
    }
}

/// Apply one op through the full per-op API (C0 routing, seeding, the
/// lot), folding any error to `false`.
fn apply_serial(t: &mut PmOctree, op: DomainOp) -> bool {
    match op {
        DomainOp::Refine(k) => t.refine(k).is_ok(),
        DomainOp::Coarsen(k) => t.coarsen(k).is_ok(),
        DomainOp::SetData(k, d) => t.set_data(k, d).is_ok(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::PmConfig;
    use pmoctree_nvbm::{CrashMode, DeviceModel, NvbmArena};

    fn tree_with(bytes: usize) -> PmOctree {
        let arena = NvbmArena::new(bytes, DeviceModel::default());
        let cfg = PmConfig { dynamic_transform: false, seed_c0: false, ..PmConfig::default() };
        PmOctree::create(arena, cfg)
    }

    fn tree() -> PmOctree {
        tree_with(16 << 20)
    }

    fn children_of_root() -> Vec<OctKey> {
        (0..8).map(|i| OctKey::root().child(i)).collect()
    }

    #[test]
    fn batch_refine_across_all_domains() {
        let mut t = tree();
        t.refine(OctKey::root()).unwrap();
        let ok = t.refine_many(&children_of_root());
        assert!(ok.iter().all(|&b| b), "{ok:?}");
        assert_eq!(t.leaf_count(), 64);
        // Refining the same keys again: every one is now internal.
        let again = t.refine_many(&children_of_root());
        assert!(again.iter().all(|&b| !b), "{again:?}");
        assert_eq!(t.leaf_count(), 64);
    }

    #[test]
    fn batch_set_data_then_coarsen_roundtrip() {
        let mut t = tree();
        t.refine(OctKey::root()).unwrap();
        assert!(t.refine_many(&children_of_root()).iter().all(|&b| b));
        let ops: Vec<(OctKey, CellData)> = (0..8)
            .map(|i| {
                (
                    OctKey::root().child(i).child(7 - i),
                    CellData { phi: i as f64 + 0.25, ..Default::default() },
                )
            })
            .collect();
        assert!(t.set_data_many(&ops).iter().all(|&b| b));
        for (k, d) in &ops {
            assert_eq!(t.get_data(*k).unwrap().phi, d.phi);
        }
        assert!(t.coarsen_many(&children_of_root()).iter().all(|&b| b));
        assert_eq!(t.leaf_count(), 8);
    }

    #[test]
    fn batch_reports_per_op_failures() {
        let mut t = tree();
        t.refine(OctKey::root()).unwrap();
        let good = OctKey::root().child(2);
        let missing = OctKey::root().child(5).child(1); // parent is a leaf
        let ok = t.refine_many(&[good, missing]);
        assert_eq!(ok, vec![true, false]);
        assert_eq!(t.leaf_count(), 15);
        // Coarsening a leaf reports false without touching it.
        let ok = t.coarsen_many(&[OctKey::root().child(6)]);
        assert_eq!(ok, vec![false]);
        assert_eq!(t.leaf_count(), 15);
    }

    #[test]
    fn same_domain_ops_run_in_input_order() {
        let mut t = tree();
        t.refine(OctKey::root()).unwrap();
        let k = OctKey::root().child(3);
        assert!(t.refine_many(&[k]).iter().all(|&b| b));
        let kk = k.child(0);
        // Refine then coarsen the same octant in one batch: both succeed
        // only if the shard applies them in input order.
        let r = run_batch(&mut t, &[DomainOp::Refine(kk), DomainOp::Coarsen(kk)]);
        assert_eq!(r, vec![true, true]);
        assert_eq!(t.is_leaf(kk), Some(true));
    }

    #[test]
    fn shallow_keys_take_the_serial_path() {
        let mut t = tree();
        // Root is above the domain cut (level 0 < DOMAIN_LEVEL).
        let ok = t.refine_many(&[OctKey::root()]);
        assert_eq!(ok, vec![true]);
        assert_eq!(t.leaf_count(), 8);
    }

    #[test]
    fn batched_mutations_persist_and_recover() {
        let mut t = tree();
        t.refine(OctKey::root()).unwrap();
        assert!(t.refine_many(&children_of_root()).iter().all(|&b| b));
        let ops: Vec<(OctKey, CellData)> = (0..8)
            .map(|i| {
                (OctKey::root().child(i).child(i), CellData { vof: 0.5, ..Default::default() })
            })
            .collect();
        assert!(t.set_data_many(&ops).iter().all(|&b| b));
        t.persist();
        let persisted = t.leaves_sorted();
        // Unpersisted batch must vanish on crash.
        t.refine_many(&[OctKey::root().child(0).child(0)]);
        let mut arena = {
            let PmOctree { store, .. } = t;
            store.arena
        };
        arena.crash(CrashMode::LoseDirty);
        let cfg = PmConfig { dynamic_transform: false, seed_c0: false, ..PmConfig::default() };
        let mut r = PmOctree::restore(arena, cfg).unwrap();
        assert_eq!(r.leaves_sorted(), persisted);
        assert_eq!(r.get_data(OctKey::root().child(3).child(3)).unwrap().vof, 0.5);
    }

    #[test]
    fn tight_device_falls_back_to_serial_and_stays_consistent() {
        // Arena too small to promise every domain its worst-case lease:
        // the batch must fall back and still produce correct per-op flags.
        let mut t = tree_with(96 << 10);
        t.refine(OctKey::root()).unwrap();
        let mut frontier = children_of_root();
        loop {
            let ok = t.refine_many(&frontier);
            let succeeded: Vec<OctKey> =
                frontier.iter().zip(&ok).filter(|&(_, &b)| b).map(|(&k, _)| k).collect();
            // Internal bookkeeping must agree with a full recount.
            assert_eq!(t.leaves_sorted().len(), t.leaf_count());
            if succeeded.is_empty() {
                break;
            }
            frontier = succeeded.iter().flat_map(|k| (0..8).map(|i| k.child(i))).collect();
        }
        assert!(t.leaf_count() >= 8, "nothing refined before the device filled");
    }

    #[test]
    fn batch_fires_interleave_opportunities_under_a_plan() {
        use pmoctree_nvbm::FailPlan;
        let mut t = tree();
        t.refine(OctKey::root()).unwrap();
        t.store.arena.set_fail_plan(FailPlan::count());
        assert!(t.refine_many(&children_of_root()).iter().all(|&b| b));
        let plan = t.store.arena.take_fail_plan().unwrap();
        assert_eq!(
            plan.interleavings(),
            8,
            "one publication-boundary crash opportunity per domain"
        );
    }
}
