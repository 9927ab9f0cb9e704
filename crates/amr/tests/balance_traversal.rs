//! Acceptance check for the family balance kernel: on a ~10^5 octant
//! tree, `balance` must locate neighbors through the sorted leaf index
//! (one merge-scan per worklist round) with no per-key root descent, and
//! ask at most one lookup per face direction of each parent family
//! rather than one per face neighbor of each leaf.

use std::collections::BTreeSet;

use pm_octree::{PmConfig, PmOctree};
use pmoctree_amr::{
    balance, balance_subset, can_coarsen, check_balance, construct_uniform, EtreeBackend,
    InCoreBackend, OctreeBackend, PmBackend,
};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{DeviceModel, NvbmArena};

#[test]
fn balance_asks_per_family_not_per_leaf_at_1e5_octants() {
    let mut b = InCoreBackend::new();
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
    let refined = balance(&mut b);
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
/// the entries: on 2^15 leaves one `can_coarsen` (33 queries in a few
/// Z-order runs) reads O(log n) DRAM lines on every backend, where the
/// linear scan read 4 727 — every entry up to the family's last
/// neighbor. A dense batch, `balance_subset` over every leaf, still reads
/// exactly the lines the linear scan read.
#[test]
fn small_batches_gallop_dense_batches_scan_on_every_backend() {
    let backends: Vec<Box<dyn OctreeBackend>> = vec![
        Box::new(PmBackend::new(PmOctree::create(
            NvbmArena::new(64 << 20, DeviceModel::default()),
            PmConfig { dynamic_transform: false, ..PmConfig::default() },
        ))),
        Box::new(InCoreBackend::new()),
        Box::new(EtreeBackend::on_nvbm()),
    ];
    for mut b in backends {
        construct_uniform(&mut *b, 5);
        let leaves = b.leaf_keys_sorted(); // also brings the index up to date
        let n = leaves.len();
        assert_eq!(n, 1 << 15);
        let lines = |b: &dyn OctreeBackend| b.mem_stats().dram.read_lines;

        let before = lines(&*b);
        let family = leaves[12_345].parent().unwrap();
        assert!(can_coarsen(&mut *b, family));
        let one = lines(&*b) - before;
        let log2n = u64::from(usize::BITS - (n - 1).leading_zeros());
        assert!(one <= 8 * log2n, "{}: one can_coarsen read {one} lines", b.name());

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
