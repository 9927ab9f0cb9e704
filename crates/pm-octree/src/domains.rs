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
//!    appended, and leaf/depth/index bookkeeping
//!    ([`PmOctree::account`]) replayed in input order.
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
//! Batch semantics: every route applies an op through the one kernel
//! ([`apply`]: one walk → precondition → COW), so a batched op succeeds,
//! fails and mutates exactly as its per-op call would. Ops a shard cannot
//! run go through [`PmOctree::apply_op`], the per-op API's own body, in
//! input order: C0-owned or above-the-cut keys and coarsens whose children
//! live in DRAM (absorbed first, which an NVBM-only shard view cannot do)
//! *before* the pre-pass; domains whose root is absent, and every domain
//! op when a lease cannot be carved or runs out, *after* the join. The
//! only per-op/batch difference left: a sharded refine never seeds a DRAM
//! (C0) subtree (a shard cannot touch the forest); a serial one may.

use std::collections::BTreeMap;

use pmoctree_morton::OctKey;
use pmoctree_nvbm::{AllocLease, ArenaSnapshot, POffset, ShardDelta};
use rayon::prelude::*;

use crate::api::{PmError, PmOctree};
use crate::c1;
use crate::octant::{CellData, OctAccess, ShardStore};

/// Tree level at which batched mutations shard into concurrent write
/// domains: every octant key at or below this level belongs to the
/// domain of its level-`DOMAIN_LEVEL` ancestor (up to 8 domains). Batches
/// always shard — for any worker count — so results are byte-identical
/// whether 1 or N workers execute the domains.
pub(crate) const DOMAIN_LEVEL: u8 = 1;

/// One mesh mutation: what the per-op API applies directly and a batch
/// routes to a write domain by its key.
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
    pub(crate) fn key(&self) -> OctKey {
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

/// The op kernel — the one place an op meets the `c1` COW routines, for
/// the serial [`PmStore`](crate::octant::PmStore) and a [`ShardStore`]
/// overlay alike (only the publication edge needs ordering, so the same
/// code is correct against both). Each routine walks from `root` to the
/// target once, checks the op's precondition on the navigation line the
/// walk ended on — refine: a leaf; coarsen: *not* a leaf; set-data:
/// exists — and applies the op copy-on-write through the frames it holds.
/// Returns the possibly-new root; a refusal ([`PmError::NotFound`],
/// [`PmError::NotALeaf`], [`PmError::NotCoarsenable`]) or
/// [`PmError::Full`] leaves the tree's content unchanged.
pub(crate) fn apply<S: OctAccess>(
    store: &mut S,
    root: POffset,
    op: DomainOp,
    epoch: u32,
) -> Result<POffset, PmError> {
    match op {
        DomainOp::Refine(key) => c1::refine(store, root, key, epoch),
        DomainOp::Coarsen(key) => c1::coarsen(store, root, key, epoch),
        DomainOp::SetData(key, d) => c1::update_data(store, root, key, &d, epoch),
    }
}

/// A domain's work order: its exclusive root, its slice of the batch (in
/// input order), its allocator lease, and — after the parallel phase —
/// its outcome (`None`: the lease ran out).
struct Task {
    root: POffset,
    ops: Vec<(usize, DomainOp)>,
    lease: AllocLease,
    out: Option<ShardOut>,
}

type ShardOut = (ShardDelta, AllocLease, Vec<POffset>, Vec<(usize, bool)>);

/// Execute `ops` against `t`, domain-parallel where possible. Returns one
/// success flag per op, in input order. Device-full inside a shard (lease
/// exhausted) or at lease carving sends the whole domain portion down the
/// serial route — the conditions are data-dependent, never
/// worker-count-dependent, so results stay deterministic.
pub fn run_batch(t: &mut PmOctree, ops: &[DomainOp]) -> Vec<bool> {
    let mut results = vec![false; ops.len()];
    if ops.is_empty() {
        return results;
    }
    // Partition: what a shard cannot run is applied serially, up front;
    // everything else shards by domain ancestor.
    let mut tail: Vec<(usize, DomainOp)> = Vec::new();
    let mut domains: BTreeMap<OctKey, Vec<(usize, DomainOp)>> = BTreeMap::new();
    for (i, &op) in ops.iter().enumerate() {
        let k = op.key();
        let c0_children = matches!(op, DomainOp::Coarsen(_)) && t.has_c0_children(k);
        if k.level() < DOMAIN_LEVEL || t.forest.owner_of(&k).is_some() || c0_children {
            tail.push((i, op));
        } else {
            domains.entry(k.ancestor_at(DOMAIN_LEVEL)).or_default().push((i, op));
        }
    }
    run_serial(t, std::mem::take(&mut tail), &mut results);
    // From here on `tail` collects the domain ops that fall out of the
    // sharded path; they run after the join.
    // Serial pre-pass: materialize each domain root as epoch-exclusive.
    let mut pending: Vec<(POffset, Vec<(usize, DomainOp)>)> = Vec::new();
    for (dk, dops) in domains {
        // An absent domain root (`NotFound`) and a full device alike send
        // the domain's ops down the serial route.
        match c1::cow_path(&mut t.store, t.current_root, dk, t.epoch) {
            Ok((root, off)) => {
                t.current_root = root;
                pending.push((off, dops));
            }
            Err(_) => tail.extend(dops),
        }
    }
    // Carve one bump-region lease per domain. Carving failure means the
    // device cannot promise every domain its worst case up front.
    t.store.alloc.set_limit(t.store.arena.live_rt_floor());
    let mut tasks: Vec<Task> = Vec::new();
    let mut carved = true;
    for (root, dops) in pending {
        let blocks: usize = dops.iter().map(|(_, op)| op.lease_blocks()).sum::<usize>().max(1);
        match t.store.alloc.carve_lease(blocks) {
            Some(lease) => tasks.push(Task { root, ops: dops, lease, out: None }),
            None => {
                tail.extend(dops);
                carved = false;
            }
        }
    }
    t.store.arena.publish_bump(t.store.alloc.bump());
    // Parallel phase: one ShardStore per domain over a shared fork-point
    // snapshot. Buffered stores fire no crash opportunities; each shard
    // is single-threaded and deterministic.
    if carved {
        let epoch = t.epoch;
        let snap = t.store.arena.snapshot();
        tasks.par_iter_mut().for_each(|task| {
            task.out = run_shard(&snap, epoch, task.root, &task.ops, task.lease);
        });
    }
    if tasks.iter().all(|task| task.out.is_some()) {
        // Serial join, in fixed (sorted-domain) order: publish each
        // overlay — one `sweep::interleave` crash opportunity per domain
        // — release the unused lease tail, and append the domain's
        // allocations; then bookkeeping in batch input order.
        let mut flags: Vec<(usize, bool)> = Vec::new();
        for (delta, lease, regs, shard_flags) in tasks.into_iter().filter_map(|task| task.out) {
            t.store.arena.absorb_shard("sweep::interleave", delta);
            t.store.alloc.release_lease(lease, lease.cursor());
            t.store.registry.extend(regs);
            flags.extend(shard_flags);
        }
        flags.sort_unstable_by_key(|&(i, _)| i);
        let mut mutated = false;
        for (i, ok) in flags {
            results[i] = ok;
            mutated |= ok && t.account(ops[i]);
        }
        if mutated {
            t.after_mutation();
        }
    } else {
        // No lease, or a shard over-ran its own (device effectively
        // full): nothing was published — discard every overlay (the tree
        // is untouched beyond content-identical pre-pass spine copies).
        for task in tasks {
            t.store.alloc.release_lease(task.lease, task.lease.start());
            tail.extend(task.ops);
        }
    }
    run_serial(t, tail, &mut results);
    results
}

/// Apply `ops` one by one, in batch input order, through the body of the
/// per-op API.
fn run_serial(t: &mut PmOctree, mut ops: Vec<(usize, DomainOp)>, results: &mut [bool]) {
    ops.sort_unstable_by_key(|&(i, _)| i);
    for (i, op) in ops {
        results[i] = t.apply_op(op).is_ok();
    }
}

/// One domain's worker body: apply its ops in input order against a
/// private shard. Only lease exhaustion ([`PmError::Full`]) aborts the
/// shard (`None`, sending the batch down the serial route); per-op
/// refusals report `false`.
fn run_shard(
    snap: &ArenaSnapshot<'_>,
    epoch: u32,
    root: POffset,
    ops: &[(usize, DomainOp)],
    lease: AllocLease,
) -> Option<ShardOut> {
    let mut shard = ShardStore::new(snap, lease);
    let mut flags = Vec::with_capacity(ops.len());
    for &(i, op) in ops {
        let ok = match apply(&mut shard, root, op, epoch) {
            Ok(r) => {
                debug_assert_eq!(r, root, "shard mutation moved the domain root");
                true
            }
            Err(PmError::Full(_)) => return None,
            Err(_) => false,
        };
        flags.push((i, ok));
    }
    let (delta, lease, regs) = shard.into_parts();
    Some((delta, lease, regs, flags))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::PmConfig;
    use pmoctree_nvbm::{CrashMode, DeviceModel, NvbmArena};
    use proptest::prelude::*;
    use routes::*;

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

    /// Counts what an op reads from the device before its first store.
    struct Watch<'a, S> {
        inner: &'a mut S,
        nav_reads: usize,
        payload_reads: usize,
        stored: bool,
    }

    impl<S: OctAccess> OctAccess for Watch<'_, S> {
        fn io_read(&mut self, offset: u64, buf: &mut [u8]) {
            if !self.stored {
                match buf.len() {
                    64 => self.nav_reads += 1,
                    32 => self.payload_reads += 1,
                    n => panic!("a {n}-byte read: neither a navigation line nor a payload"),
                }
            }
            self.inner.io_read(offset, buf);
        }

        fn io_write(&mut self, offset: u64, data: &[u8]) {
            self.stored = true;
            self.inner.io_write(offset, data);
        }

        fn alloc_block(&mut self) -> Result<POffset, PmError> {
            self.inner.alloc_block()
        }
    }

    #[test]
    fn an_op_walks_its_path_once() {
        use crate::octant::{Octant, PmStore};
        // A chain root → child 3 → … → level 5, built at epoch 1. Seen
        // from epoch 2 every octant is shared, so an op's first store is
        // the copy of its target, and what it read before that is its
        // walk. Copies never touch `root`'s tree: every op meets it whole.
        let at = |d: u8| (0..d).fold(OctKey::root(), |k, _| k.child(3));
        let mut s = PmStore::new(NvbmArena::new(1 << 20, DeviceModel::default()));
        let mut root =
            s.alloc_octant(&Octant::leaf(OctKey::root(), 1, CellData::default())).unwrap();
        for d in 0..5 {
            root = apply(&mut s, root, DomainOp::Refine(at(d)), 1).unwrap();
        }
        let walk = |store: &mut dyn FnMut(DomainOp) -> (usize, usize, bool), d: u8| {
            let data = CellData { phi: 2.5, ..Default::default() };
            let ops = [
                (d == 5).then_some(DomainOp::Refine(at(d))),
                (d == 4).then_some(DomainOp::Coarsen(at(d))),
                Some(DomainOp::SetData(at(d), data)),
            ];
            for op in ops.into_iter().flatten() {
                // d + 1 navigation lines, root to target; the target's
                // copy reads the payload line unless the op brings one.
                let payload = usize::from(!matches!(op, DomainOp::SetData(..)));
                assert_eq!(store(op), (d as usize + 1, payload, true), "{op:?} at level {d}");
            }
        };
        for d in 0..=5 {
            let serial = &mut |op| {
                let mut w = Watch { inner: &mut s, nav_reads: 0, payload_reads: 0, stored: false };
                let new_root = apply(&mut w, root, op, 2).unwrap();
                (w.nav_reads, w.payload_reads, new_root != root)
            };
            walk(serial, d);
            s.alloc.set_limit(s.arena.live_rt_floor());
            let lease = s.alloc.carve_lease(64).unwrap();
            let snap = s.arena.snapshot();
            let mut shard = ShardStore::new(&snap, lease);
            let sharded = &mut |op| {
                let mut w =
                    Watch { inner: &mut shard, nav_reads: 0, payload_reads: 0, stored: false };
                let new_root = apply(&mut w, root, op, 2).unwrap();
                (w.nav_reads, w.payload_reads, new_root != root)
            };
            walk(sharded, d);
        }
        // Refusals come off the same walk, before the first copy: nothing
        // is stored and nothing allocated.
        let (writes, allocated) = (s.arena.stats.nvbm.write_lines, s.registry.len());
        let d = CellData::default();
        for (op, epoch, want) in [
            (DomainOp::Refine(at(5).child(1)), 2, "not-found"),
            (DomainOp::SetData(at(2).child(0).child(0), d), 2, "not-found"),
            (DomainOp::Coarsen(at(4).child(6).child(6)), 2, "not-found"),
            (DomainOp::Refine(at(2)), 2, "not-a-leaf"),
            (DomainOp::Coarsen(at(5)), 2, "not-a-leaf"),
            // Children are probed once the target is exclusive, which at
            // their own epoch it already is.
            (DomainOp::Coarsen(at(3)), 1, "not-coarsenable"),
        ] {
            let mut w = Watch { inner: &mut s, nav_reads: 0, payload_reads: 0, stored: false };
            let got = match apply(&mut w, root, op, epoch) {
                Err(PmError::NotFound(_)) => "not-found",
                Err(PmError::NotALeaf(_)) => "not-a-leaf",
                Err(PmError::NotCoarsenable(_)) => "not-coarsenable",
                other => panic!("{op:?}: {other:?}"),
            };
            assert_eq!((got, w.stored), (want, false), "{op:?}");
            assert!(w.nav_reads <= op.key().level() as usize + 9 && w.payload_reads == 0);
        }
        assert_eq!((s.arena.stats.nvbm.write_lines, s.registry.len()), (writes, allocated));
    }

    /// Fixtures of `every_route_applies_an_op_the_same_way`.
    mod routes {
        use super::*;

        /// The octant reached from the root by these child indices.
        fn c(path: &[usize]) -> OctKey {
            path.iter().fold(OctKey::root(), |k, &i| k.child(i))
        }

        /// A tree with every tier situation an op can meet. Under the
        /// root: child 0 refined two levels in NVBM; child 1 with a
        /// *deep* DRAM child; child 2 with two single-leaf DRAM children
        /// (coarsenable after absorbing them); child 3 with one
        /// single-leaf DRAM child beside a refined NVBM one (not
        /// coarsenable); child 5 refined; child 7 refined and never
        /// offered to an op, so the root itself is never coarsenable.
        /// Deterministic: every call returns a clone of one device.
        pub(super) fn mixed_tier_tree() -> PmOctree {
            let mut t = tree();
            for path in [&[][..], &[0], &[1], &[2], &[3], &[5], &[7], &[0, 0], &[3, 1]] {
                t.refine(c(path)).unwrap();
            }
            // Seeding is the per-op refine's prelude; switched off again
            // below so all routes run under one config.
            t.cfg.seed_c0 = true;
            for path in [&[1, 1][..], &[2, 0], &[2, 6], &[3, 0]] {
                t.refine(c(path)).unwrap();
            }
            for path in [&[2, 0][..], &[2, 6], &[3, 0]] {
                t.coarsen(c(path)).unwrap();
            }
            t.cfg.seed_c0 = false;
            assert_eq!(t.c0_subtree_keys().len(), 4);
            assert_eq!(t.c0_octants(), 9 + 3);
            t.persist();
            t
        }

        /// Keys worth aiming an op at: every octant of the tree, the
        /// (missing) children of its leaves, and the root — minus the
        /// child-7 family.
        pub(super) fn pool(t: &mut PmOctree) -> Vec<OctKey> {
            let mut keys: Vec<OctKey> = t
                .leaf_keys_sorted()
                .into_iter()
                .flat_map(|k| k.path_from_root().into_iter().chain([k.child(3)]))
                .filter(|k| k.level() == 0 || k.ancestor_at(1) != OctKey::root().child(7))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        }

        /// The named cases, ahead of the random stream.
        pub(super) fn script() -> Vec<DomainOp> {
            let d = CellData { phi: 7.5, ..Default::default() };
            vec![
                DomainOp::Coarsen(c(&[4])),       // coarsen of a leaf
                DomainOp::Coarsen(c(&[0, 0, 2])), // ... a deep, sharded one
                DomainOp::Refine(c(&[0])),        // non-leaf refine
                DomainOp::Refine(c(&[4, 1])),     // missing key
                DomainOp::SetData(c(&[6, 6]), d), // missing key
                DomainOp::Refine(OctKey::root()), // above the cut
                DomainOp::SetData(OctKey::root(), d),
                DomainOp::Coarsen(OctKey::root()),
                DomainOp::Refine(c(&[1, 1, 4])), // C0-owned
                DomainOp::SetData(c(&[1, 1, 5]), d),
                DomainOp::Coarsen(c(&[1])), // deep DRAM child
                DomainOp::Coarsen(c(&[3])), // DRAM child beside a refined sibling
                DomainOp::Coarsen(c(&[2])), // DRAM children, absorbed
                DomainOp::SetData(c(&[2]), d),
                DomainOp::Refine(c(&[0, 0, 1])), // plain sharded ops
                DomainOp::Coarsen(c(&[5])),
            ]
        }

        pub(super) fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, f64)>> {
            prop::collection::vec((0u8..3, 0usize..4096, -9.0f64..9.0), 0..24)
        }

        fn outcome(r: &Result<(), PmError>) -> &'static str {
            match r {
                Ok(()) => "ok",
                Err(PmError::NotFound(_)) => "not-found",
                Err(PmError::NotALeaf(_)) => "not-a-leaf",
                Err(PmError::NotCoarsenable(_)) => "not-coarsenable",
                Err(_) => "other",
            }
        }

        /// The per-op API, each call checked against what the tree said
        /// about the key just before it.
        fn per_op(t: &mut PmOctree, ops: &[DomainOp]) -> Vec<&'static str> {
            ops.iter()
                .map(|&op| {
                    let key = op.key();
                    let (was_leaf, data, c0) = (t.is_leaf(key), t.get_data(key), t.c0_octants());
                    let r = match op {
                        DomainOp::Refine(k) => t.refine(k),
                        DomainOp::Coarsen(k) => t.coarsen(k),
                        DomainOp::SetData(k, d) => t.set_data(k, d),
                    };
                    let got = outcome(&r);
                    match (op, was_leaf) {
                        (_, None) => assert_eq!(got, "not-found", "{op:?}"),
                        (DomainOp::Refine(_), Some(false)) | (DomainOp::Coarsen(_), Some(true)) => {
                            assert_eq!(got, "not-a-leaf", "{op:?}")
                        }
                        (DomainOp::Coarsen(_), Some(false)) => {
                            assert!(got == "ok" || got == "not-coarsenable", "{op:?}: {got}")
                        }
                        _ => assert_eq!(got, "ok", "{op:?}"),
                    }
                    if r.is_err() {
                        // A refusal touches nothing: not the payload, not
                        // the structure, not the tier the children live in.
                        assert_eq!(t.get_data(key), data, "{op:?} refused but rewrote the payload");
                        assert_eq!(t.is_leaf(key), was_leaf, "{op:?}");
                        assert_eq!(t.c0_octants(), c0, "{op:?} refused but moved DRAM subtrees");
                    }
                    got
                })
                .collect()
        }

        /// Everything the routes must agree on.
        fn state(t: &mut PmOctree) -> (Vec<(OctKey, CellData)>, usize, u8, usize) {
            let leaves = t.leaves_sorted();
            assert_eq!(leaves.len(), t.leaf_count());
            assert!(leaves.iter().all(|(k, _)| k.level() <= t.depth()));
            (leaves, t.leaf_count(), t.depth(), t.c0_octants())
        }

        fn crash_and_restore(t: PmOctree) -> Vec<(OctKey, CellData)> {
            let (mut arena, cfg) = (t.store.arena, t.cfg);
            arena.crash(CrashMode::LoseDirty);
            PmOctree::restore(arena, cfg).unwrap().leaves_sorted()
        }

        /// Drive `halves` (a persist after the first, so ops meet
        /// exclusive and shared octants alike) down `route` on one tree
        /// and through the per-op API on its clone: same flags, same
        /// state, and after a crash both are back at the persist.
        /// `batch_order` calls the per-op API in the order a batch
        /// documents — the ops no shard can run, then the sharded ones
        /// (domains are disjoint, so input order) — instead of input order.
        pub(super) fn check_route(
            halves: [&[DomainOp]; 2],
            batch_order: bool,
            route: impl Fn(&mut PmOctree, &[DomainOp]) -> Vec<bool>,
        ) {
            let (mut r, mut m) = (mixed_tier_tree(), mixed_tier_tree());
            let mut persisted = None;
            for half in halves {
                let (mut order, sharded): (Vec<usize>, Vec<usize>) =
                    (0..half.len()).partition(|&i| {
                        let k = half[i].key();
                        !batch_order
                            || k.level() < DOMAIN_LEVEL
                            || m.forest.owner_of(&k).is_some()
                            || matches!(half[i], DomainOp::Coarsen(_)) && m.has_c0_children(k)
                    });
                order.extend(sharded);
                let reordered: Vec<DomainOp> = order.iter().map(|&i| half[i]).collect();
                let mut expect = vec![false; half.len()];
                for (&i, o) in order.iter().zip(per_op(&mut m, &reordered)) {
                    expect[i] = o == "ok";
                }
                assert_eq!(route(&mut r, half), expect);
                assert_eq!(state(&mut r), state(&mut m));
                if persisted.is_none() {
                    r.persist();
                    m.persist();
                    persisted = Some(r.leaves_sorted());
                }
            }
            assert_eq!(Some(crash_and_restore(r)), persisted);
            assert_eq!(Some(crash_and_restore(m)), persisted);
        }
    }

    // Every route an op can take — the per-op API, a batch of one, a mixed
    // batch (serial ops + shards) — against one oracle.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn every_route_applies_an_op_the_same_way(picks in arb_ops(), cut in 0usize..40) {
            let pool = pool(&mut mixed_tier_tree());
            let mut ops = script();
            ops.extend(picks.iter().map(|&(kind, i, v)| {
                let k = pool[i % pool.len()];
                match kind {
                    0 => DomainOp::Refine(k),
                    1 => DomainOp::Coarsen(k),
                    _ => DomainOp::SetData(k, CellData { phi: v, ..Default::default() }),
                }
            }));
            let (first, second) = ops.split_at(cut.min(ops.len()));
            check_route([first, second], false, |t, ops| {
                ops.iter().map(|&op| run_batch(t, &[op])[0]).collect()
            });
            check_route([first, second], true, run_batch);
        }
    }
}
