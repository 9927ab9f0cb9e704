//! Acceptance check for the family balance kernel: on a ~10^5 octant
//! tree, `balance_subset` over every leaf must locate neighbors through
//! the sorted leaf index (one merge-scan per worklist round) with no
//! per-key root descent, and ask at most one lookup per face direction of
//! each parent family rather than one per face neighbor of each leaf. And
//! the balance primitives' 2:1 fixed points on all three backends.

use std::collections::BTreeSet;

use pm_octree::{PmConfig, PmOctree};
use pmoctree_amr::gerris::ftt_cell_refine;
use pmoctree_amr::{
    balance_subset, can_coarsen_many, check_balance, construct_path, construct_uniform,
    OctreeBackend, PmBackend,
};
use pmoctree_baselines::{EtreeOctree, InCoreOctree};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{DeviceModel, NvbmArena};
use pmoctree_simfs::SimFs;

#[test]
fn balance_asks_per_family_not_per_leaf_at_1e5_octants() {
    let mut b = InCoreOctree::new();
    // Uniform refine to level 5 (32768 leaves), then deepen a Morton
    // prefix to level 6 to cross 10^5 leaves. A contiguous prefix keeps
    // every adjacent pair within one level, so the mesh is balanced and
    // the pass measures pure lookup traffic.
    for _ in 0..5 {
        for k in b.leaf_keys_sorted() {
            let _ = b.refine(k);
        }
    }
    for k in b.leaf_keys_sorted().into_iter().take(9728) {
        let _ = b.refine(k);
    }
    let leaves = b.leaf_keys_sorted();
    assert!(leaves.len() >= 100_000, "setup too small: {}", leaves.len());
    let families: BTreeSet<OctKey> = leaves.iter().filter_map(OctKey::parent).collect();
    // What the per-leaf kernel asked: every leaf's 6 face neighbors,
    // fewer on the domain boundary.
    let per_leaf: usize = leaves.iter().map(|k| k.face_neighbors().len()).sum();

    let before = b.mem_stats().trav;
    let refined = balance_subset(&mut b, &leaves);
    let after = b.mem_stats().trav;
    assert_eq!(refined, 0, "prefix-deepened mesh must already be balanced");

    let descents = after.root_descents - before.root_descents;
    let hits = after.index_hits - before.index_hits;
    assert_eq!(descents, 0, "balance descended from the root {descents} times");
    assert!(
        hits <= 6 * families.len() as u64,
        "{hits} lookups for {} families: more than 6 per family (the per-leaf kernel asked {per_leaf})",
        families.len()
    );
    assert!(hits > 0);
    assert!(check_balance(&mut b).is_none());
}

/// The leaf index answers a small batch by galloping, not by a pass over
/// the entries: on 2^15 leaves one family's coarsen legality (33 queries
/// in a few Z-order runs) reads O(log n) DRAM lines on every backend,
/// where the linear scan read 4 727 — every entry up to the family's last
/// neighbor. A dense batch, `balance_subset` over every leaf, still reads
/// exactly the lines the linear scan read.
#[test]
fn small_batches_gallop_dense_batches_scan_on_every_backend() {
    let backends: Vec<Box<dyn OctreeBackend>> = vec![
        Box::new(PmBackend::new(PmOctree::create(
            NvbmArena::new(64 << 20, DeviceModel::default()),
            PmConfig { dynamic_transform: false, ..PmConfig::default() },
        ))),
        Box::new(InCoreOctree::new()),
        Box::new(EtreeOctree::create(SimFs::on_nvbm())),
    ];
    for mut b in backends {
        construct_uniform(&mut *b, 5);
        let leaves = b.leaf_keys_sorted(); // also brings the index up to date
        let n = leaves.len();
        assert_eq!(n, 1 << 15);
        let lines = |b: &dyn OctreeBackend| b.mem_stats().dram.read_lines;

        let before = lines(&*b);
        let family = leaves[12_345].parent().unwrap();
        assert_eq!(can_coarsen_many(&mut *b, &[family]), [true]);
        let one = lines(&*b) - before;
        let log2n = u64::from(usize::BITS - (n - 1).leading_zeros());
        assert!(one <= 8 * log2n, "{}: one family's legality read {one} lines", b.name());

        let before = lines(&*b);
        assert_eq!(balance_subset(&mut *b, &leaves), 0);
        let dense = lines(&*b) - before;
        assert_eq!(
            dense,
            20_924,
            "{}: the dense batch must read what the linear scan read",
            b.name()
        );
    }
}

/// Balance the whole tree: every leaf seeds the worklist.
fn balance_all(b: &mut dyn OctreeBackend) -> usize {
    let leaves = b.leaf_keys_sorted();
    balance_subset(b, &leaves)
}

fn backends() -> Vec<Box<dyn OctreeBackend>> {
    vec![
        Box::new(PmBackend::new(PmOctree::create(
            NvbmArena::new(32 << 20, DeviceModel::default()),
            PmConfig { dynamic_transform: false, ..PmConfig::default() },
        ))),
        Box::new(InCoreOctree::new()),
        Box::new(EtreeOctree::create(SimFs::on_nvbm())),
    ]
}

#[test]
fn deep_path_then_balance_fixes_everything() {
    for mut b in backends() {
        // Deep block at the far corner of child 0: its finest leaves
        // are face-adjacent to the untouched level-1 leaves of
        // children 1/2/4, violating 2:1 by several levels.
        let deep = OctKey::root().child(0).child(7).child(7).child(7);
        construct_path(b.as_mut(), deep);
        // A straight path badly violates 2:1.
        assert!(check_balance(b.as_mut()).is_some(), "{}", b.name());
        let n = balance_all(b.as_mut());
        assert!(n > 0, "{}", b.name());
        assert!(check_balance(b.as_mut()).is_none(), "{} still unbalanced", b.name());
    }
}

#[test]
fn cell_refine_ripples() {
    for mut b in backends() {
        // Refine towards the domain's center, each split followed by the
        // ripple: the new children face the coarse leaves of the root's
        // other children, and at every step the tree stays 2:1.
        let mut k = OctKey::root();
        for i in [0, 7, 7, 7] {
            assert!(ftt_cell_refine(b.as_mut(), k), "{}", b.name());
            assert!(check_balance(b.as_mut()).is_none(), "{}", b.name());
            k = k.child(i);
        }
        assert!(b.leaf_count() > 1 + 7 * 4, "{}: the ripple split no neighbor", b.name());
    }
}

#[test]
fn can_coarsen_respects_neighbors() {
    for mut b in backends() {
        b.refine(OctKey::root()).unwrap();
        b.refine(OctKey::root().child(0)).unwrap();
        b.refine(OctKey::root().child(0).child(7)).unwrap(); // deep center
                                                             // Coarsening child 0 would leave a level-1 leaf next to
                                                             // level-3 leaves: forbidden.
        let (shallow, deep) = (OctKey::root().child(0), OctKey::root().child(0).child(7));
        assert_eq!(can_coarsen_many(b.as_mut(), &[shallow]), [false], "{}", b.name());
        // Coarsening the deep corner itself is fine.
        assert_eq!(can_coarsen_many(b.as_mut(), &[deep]), [true], "{}", b.name());
        b.coarsen(deep).unwrap();
        assert!(check_balance(b.as_mut()).is_none(), "{}", b.name());
    }
}

#[test]
fn balance_is_idempotent() {
    for mut b in backends() {
        construct_path(b.as_mut(), OctKey::root().child(3).child(3).child(3));
        balance_all(b.as_mut());
        assert_eq!(balance_all(b.as_mut()), 0, "{}", b.name());
    }
}
