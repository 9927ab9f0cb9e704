//! Acceptance check for the family balance kernel: on a ~10^5 octant
//! tree, `balance26` must locate neighbors through the sorted leaf index
//! (one merge-scan per worklist round) with no per-key root descent, and
//! ask at most one lookup per neighbor direction of each parent family
//! rather than one per neighbor of each leaf.

use std::collections::BTreeSet;

use pmoctree_amr::{balance26, check_balance26, InCoreBackend, OctreeBackend};
use pmoctree_morton::OctKey;

#[test]
fn balance26_asks_per_family_not_per_leaf_at_1e5_octants() {
    let mut b = InCoreBackend::new();
    // Uniform refine to level 5 (32768 leaves), then deepen a Morton
    // prefix to level 6 to cross 10^5 leaves. A contiguous prefix keeps
    // every adjacent pair within one level, so the mesh is 26-balanced
    // and the pass measures pure lookup traffic.
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
    // What the per-leaf kernel asked: every leaf's 26 neighbors, fewer
    // on the domain boundary.
    let per_leaf: usize = leaves.iter().map(|k| k.all_neighbors().len()).sum();

    let before = b.mem_stats().trav;
    let refined = balance26(&mut b);
    let after = b.mem_stats().trav;
    assert_eq!(refined, 0, "prefix-deepened mesh must already be 26-balanced");

    let descents = after.root_descents - before.root_descents;
    let hits = after.index_hits - before.index_hits;
    assert_eq!(descents, 0, "balance26 descended from the root {descents} times");
    assert!(
        hits <= 26 * families.len() as u64,
        "{hits} lookups for {} families: more than 26 per family (the per-leaf kernel asked {per_leaf})",
        families.len()
    );
    assert!(hits > 0);
    assert!(check_balance26(&mut b).is_none());
}
