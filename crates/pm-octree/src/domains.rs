//! One mesh mutation and the kernel that applies it.
//!
//! [`DomainOp`] names a refine, coarsen or set-data; [`apply`] is the one
//! place an op meets the `c1` COW routines. Every route to it goes through
//! `PmOctree::apply_op`, the per-op API's body: a batch
//! ([`PmOctree::refine_many`](crate::PmOctree::refine_many) and its two
//! siblings) is that call in a loop, in input order, so a batched op
//! succeeds, fails, seeds a DRAM (C0) subtree and mutates exactly as its
//! per-op call would.
//!
//! One tree has one writer. The paper parallelises across MPI ranks, each
//! with its own octree and device (the `cluster` crate's worker pool runs
//! those); inside one tree the only edge that needs ordering is an op's
//! publication link store, and an op applied to the live arena already
//! has exactly that edge — the crash sweep checks every store of it.

use pmoctree_morton::OctKey;
use pmoctree_nvbm::POffset;

use crate::api::PmError;
use crate::c1;
use crate::octant::{CellData, OctAccess};

/// One mesh mutation, as the per-op API and a batch apply it.
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
}

/// The op kernel — the one place an op meets the `c1` COW routines. Each
/// routine walks from `root` to the target once, checks the op's
/// precondition on the navigation line the walk ended on — refine: a
/// leaf; coarsen: *not* a leaf; set-data: exists — and applies the op
/// copy-on-write through the frames it holds. Returns the possibly-new
/// root; a refusal ([`PmError::NotFound`], [`PmError::NotALeaf`],
/// [`PmError::NotCoarsenable`]) or [`PmError::Full`] leaves the tree's
/// content unchanged.
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::api::PmOctree;
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
    fn batch_refine_of_every_root_child() {
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
    fn a_batch_runs_in_input_order() {
        let mut t = tree();
        let k = OctKey::root().child(3);
        // Each key exists only once the one before it is refined.
        let r = t.refine_many(&[OctKey::root(), k, k.child(0)]);
        assert_eq!(r, vec![true, true, true]);
        let r = t.coarsen_many(&[k.child(0), k]);
        assert_eq!(r, vec![true, true]);
        assert_eq!(t.is_leaf(k), Some(true));
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
    fn a_batch_on_a_filling_device_stays_consistent() {
        // The device fills mid-batch: the ops it cannot hold report false
        // and the bookkeeping still matches the tree.
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
        for d in 0..=5 {
            let data = CellData { phi: 2.5, ..Default::default() };
            let ops = [
                (d == 5).then_some(DomainOp::Refine(at(d))),
                (d == 4).then_some(DomainOp::Coarsen(at(d))),
                Some(DomainOp::SetData(at(d), data)),
            ];
            for op in ops.into_iter().flatten() {
                let mut w = Watch { inner: &mut s, nav_reads: 0, payload_reads: 0, stored: false };
                let new_root = apply(&mut w, root, op, 2).unwrap();
                // d + 1 navigation lines, root to target; the target's
                // copy reads a payload line only if it is interior (a
                // leaf's came with its navigation line) and the op brings
                // none: the coarsen.
                let payload = usize::from(matches!(op, DomainOp::Coarsen(_)));
                let got = (w.nav_reads, w.payload_reads, w.stored, new_root != root);
                assert_eq!(got, (d as usize + 1, payload, true, true), "{op:?} at level {d}");
            }
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

    /// Fixtures of `every_route_applies_an_op_the_same_way` and
    /// `a_batch_is_the_per_op_loop`.
    mod routes {
        use super::*;

        /// The octant reached from the root by these child indices.
        pub(super) fn c(path: &[usize]) -> OctKey {
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
            // Seeding is the refine prelude that builds the DRAM tier;
            // off again below, so ops meet the tiers as built here.
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
                DomainOp::Coarsen(c(&[0, 0, 2])), // ... a deep one
                DomainOp::Refine(c(&[0])),        // non-leaf refine
                DomainOp::Refine(c(&[4, 1])),     // missing key
                DomainOp::SetData(c(&[6, 6]), d), // missing key
                DomainOp::Refine(OctKey::root()), // the root
                DomainOp::SetData(OctKey::root(), d),
                DomainOp::Coarsen(OctKey::root()),
                DomainOp::Refine(c(&[1, 1, 4])), // C0-owned
                DomainOp::SetData(c(&[1, 1, 5]), d),
                DomainOp::Coarsen(c(&[1])), // deep DRAM child
                DomainOp::Coarsen(c(&[3])), // DRAM child beside a refined sibling
                DomainOp::Coarsen(c(&[2])), // DRAM children, absorbed
                DomainOp::SetData(c(&[2]), d),
                DomainOp::Refine(c(&[0, 0, 1])), // plain NVBM ops
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
        pub(super) fn check_route(
            halves: [&[DomainOp]; 2],
            route: impl Fn(&mut PmOctree, &[DomainOp]) -> Vec<bool>,
        ) {
            let (mut r, mut m) = (mixed_tier_tree(), mixed_tier_tree());
            let mut persisted = None;
            for half in halves {
                let expect: Vec<bool> = per_op(&mut m, half).iter().map(|&o| o == "ok").collect();
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

        /// `ops` through the batch entry points: each run of one kind of op
        /// is one `*_many` call.
        pub(super) fn batched(t: &mut PmOctree, ops: &[DomainOp]) -> Vec<bool> {
            let mut flags = Vec::with_capacity(ops.len());
            for run in ops.chunk_by(|a, b| std::mem::discriminant(a) == std::mem::discriminant(b)) {
                let keys: Vec<OctKey> = run.iter().map(DomainOp::key).collect();
                flags.extend(match run[0] {
                    DomainOp::Refine(_) => t.refine_many(&keys),
                    DomainOp::Coarsen(_) => t.coarsen_many(&keys),
                    DomainOp::SetData(..) => t.set_data_many(
                        &run.iter()
                            .map(|op| match *op {
                                DomainOp::SetData(k, d) => (k, d),
                                _ => unreachable!("a run holds one kind of op"),
                            })
                            .collect::<Vec<_>>(),
                    ),
                });
            }
            flags
        }
    }

    #[test]
    fn a_batch_is_the_per_op_loop() {
        // Seeding on: a refine of an NVBM leaf outside every DRAM subtree
        // seeds one, so a batch that skipped the seeding prelude (or
        // applied the ops in another order) leaves a different forest,
        // different events and a different device.
        let (mut b, mut p) = (mixed_tier_tree(), mixed_tier_tree());
        b.cfg.seed_c0 = true;
        p.cfg.seed_c0 = true;
        let d = CellData { phi: -3.25, ..Default::default() };
        let ops = [
            DomainOp::Refine(c(&[4])),
            DomainOp::Refine(c(&[4, 1])), // inside the subtree just seeded
            DomainOp::Refine(c(&[6])),
            DomainOp::Refine(c(&[0, 0, 1])),
            DomainOp::Refine(c(&[5, 3])),
            DomainOp::Refine(c(&[0])),       // not a leaf
            DomainOp::Refine(c(&[7, 7, 7])), // missing
            DomainOp::SetData(c(&[4, 1, 2]), d),
            DomainOp::SetData(c(&[2]), d),
            DomainOp::SetData(c(&[6, 6, 6]), d), // missing
            DomainOp::Coarsen(c(&[4, 1])),
            DomainOp::Coarsen(c(&[2])), // absorbs its DRAM children
            DomainOp::Coarsen(c(&[5])), // a refined child: refused
            DomainOp::Coarsen(c(&[6])),
        ];
        let flags = batched(&mut b, &ops);
        let expect: Vec<bool> = ops
            .iter()
            .map(|&op| match op {
                DomainOp::Refine(k) => p.refine(k),
                DomainOp::Coarsen(k) => p.coarsen(k),
                DomainOp::SetData(k, d) => p.set_data(k, d),
            })
            .map(|r| r.is_ok())
            .collect();
        assert_eq!(flags, expect);
        assert_eq!(flags.iter().filter(|&&ok| ok).count(), 10, "{flags:?}");
        assert!(b.c0_subtree_keys().contains(&c(&[4])), "the batch seeded no DRAM subtree");
        for t in [&mut b, &mut p] {
            t.persist();
        }
        assert_eq!(b.leaves_sorted(), p.leaves_sorted());
        assert_eq!(b.c0_subtree_keys(), p.c0_subtree_keys());
        assert_eq!(format!("{:?}", b.events), format!("{:?}", p.events));
        assert_eq!(b.store.registry, p.store.registry);
        // The flight recorder stamps the clock into the media, so equal
        // media also says every op charged the same lines.
        assert_eq!(b.store.arena.clock.now_ns(), p.store.arena.clock.now_ns());
        assert!(b.store.arena.clone_media() == p.store.arena.clone_media(), "media differ");
    }

    // Every route an op can take — the per-op API, a batch of one, a
    // batch of runs through the `*_many` entry points — against one oracle.
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
            check_route([first, second], |t, ops| {
                ops.iter().flat_map(|op| batched(t, std::slice::from_ref(op))).collect()
            });
            check_route([first, second], batched);
        }
    }
}
