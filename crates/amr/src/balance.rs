//! `Balance`: enforce the 2:1 constraint — two face-adjacent leaves may
//! differ by at most one refinement level.
//!
//! For pointer-based trees (`PM-octree`, in-core) a violated neighbor is
//! found with one root descent. For the Etree baseline the same
//! [`OctreeBackend::containing_leaf`] call costs a B-tree lookup plus a
//! page read — and the paper notes that balancing a *linear* octree must
//! interrogate all neighbors per octant, which is exactly why the
//! out-of-core baseline struggles on this routine (§5.4).

use pmoctree_morton::OctKey;

use crate::backend::OctreeBackend;

/// Refine the leaf at `key` while preserving the 2:1 constraint: coarser
/// face neighbors are recursively refined first (the classic refinement
/// "ripple"). Returns `false` if `key` is not a leaf.
pub fn refine_balanced(b: &mut dyn OctreeBackend, key: OctKey) -> bool {
    if b.is_leaf(key) != Some(true) {
        return false;
    }
    // After splitting `key` (level L → children at L+1), any face-adjacent
    // leaf must be at level ≥ L. Pull them up first, repeating until the
    // neighbor's containing leaf is deep enough (each recursion deepens
    // it by one level, so this terminates).
    for axis in 0..3 {
        for dir in [-1i8, 1] {
            if let Some(nk) = key.face_neighbor(axis, dir) {
                while let Some(leaf) = b.containing_leaf(nk) {
                    if leaf.level() >= key.level() {
                        break;
                    }
                    if !refine_balanced(b, leaf) {
                        break;
                    }
                }
            }
        }
    }
    b.refine(key).is_ok()
}

/// Is it legal (2:1-wise) to coarsen the children of each of `parents`
/// away? A parent qualifies iff it is internal, its 8 children are all
/// leaves, and no leaf adjacent to any child is deeper than the children
/// (all face neighbors of the would-be leaf then sit at level ≤
/// parent + 1).
///
/// The whole batch is one [`OctreeBackend::containing_leaf_many`] over,
/// per parent, the query set {parent, its 8 children, the children's
/// out-of-family face neighbors}: the parent is internal ⇔ it resolves
/// to `None`; a child is a leaf ⇔ it resolves to itself; a neighbor
/// region is not refined deeper than the children ⇔ it resolves at all.
/// Legality is judged against the tree as it stands, so batch only
/// parents whose merges cannot affect each other (one level at a time).
pub fn can_coarsen_many(b: &mut dyn OctreeBackend, parents: &[OctKey]) -> Vec<bool> {
    if parents.is_empty() {
        return Vec::new();
    }
    // 1 parent + 8 children + at most 24 out-of-family face neighbors.
    let mut queries: Vec<OctKey> = Vec::with_capacity(parents.len() * 33);
    let mut starts: Vec<usize> = Vec::with_capacity(parents.len() + 1);
    for &parent in parents {
        starts.push(queries.len());
        queries.push(parent);
        if parent.level() == OctKey::MAX_LEVEL {
            continue; // cannot have children: resolves to a leaf, never `None`
        }
        queries.extend(parent.children());
        for child in parent.children() {
            for axis in 0..3 {
                for dir in [-1i8, 1] {
                    // Siblings are removed together; only out-of-family
                    // neighbors constrain the merge.
                    queries
                        .extend(child.face_neighbor(axis, dir).filter(|nk| !parent.contains(nk)));
                }
            }
        }
    }
    starts.push(queries.len());
    let resolved = b.containing_leaf_many(&queries);
    starts
        .windows(2)
        .map(|w| {
            let (q, r) = (&queries[w[0]..w[1]], &resolved[w[0]..w[1]]);
            q.len() > 8
                && r[0].is_none()
                && q[1..9].iter().zip(&r[1..9]).all(|(child, leaf)| *leaf == Some(*child))
                && r[9..].iter().all(Option::is_some)
        })
        .collect()
}

/// [`can_coarsen_many`] for a single family.
pub fn can_coarsen(b: &mut dyn OctreeBackend, key: OctKey) -> bool {
    can_coarsen_many(b, &[key])[0]
}

/// Coarsen with a 2:1 legality check. Returns whether it happened.
pub fn coarsen_balanced(b: &mut dyn OctreeBackend, key: OctKey) -> bool {
    can_coarsen(b, key) && b.coarsen(key).is_ok()
}

/// Worklist-driven 2:1 balancing over the face (6) or full (26)
/// adjacency, built on the backends' batched leaf-index kernels.
///
/// Violations are only *observable* from the fine side (the coarse side
/// sees `containing_leaf → None` for a refined-deeper neighbor), so the
/// worklist holds fine-side *source* leaves. The worklist is seeded once
/// from the sorted leaf set; after each round it contains exactly
/// (a) the children of every octant refined this round (new fine leaves
/// that may now out-level their neighbors) and (b) the sources that still
/// observed a violation (a 3-levels-coarser neighbor closes by one level
/// per round and must be re-checked). Refining can never introduce a
/// violation anywhere else, so no full-tree re-snapshot is needed.
///
/// The 2:1 closure of a tree is unique and independent of refinement
/// order, so the resulting leaf set is identical to the former
/// sweep-until-fixed-point implementation.
fn balance_worklist(b: &mut dyn OctreeBackend, mut worklist: Vec<OctKey>, full: bool) -> usize {
    let mut total = 0usize;
    while !worklist.is_empty() {
        worklist.sort_unstable();
        worklist.dedup();
        let neighborhoods = b.neighbor_leaves_many(&worklist, full);
        let mut targets: Vec<OctKey> = Vec::new();
        let mut next: Vec<OctKey> = Vec::new();
        for (k, neighbors) in worklist.iter().zip(&neighborhoods) {
            let mut violated = false;
            for leaf in neighbors {
                if leaf.level() + 1 < k.level() {
                    violated = true;
                    targets.push(*leaf);
                }
            }
            if violated {
                next.push(*k);
            }
        }
        targets.sort_unstable();
        targets.dedup();
        // Violating coarse leaves are disjoint, so the whole round splits
        // in one batched call (domain-parallel on backends that shard).
        let ok = b.refine_many(&targets);
        for (t, s) in targets.iter().zip(ok) {
            if s {
                total += 1;
                next.extend(t.children());
            }
        }
        worklist = next;
    }
    total
}

/// Restore face 2:1 after a *batch* of refinements: seed the worklist
/// with only the new fine leaves (the children of `refined`) instead of
/// re-snapshotting the whole leaf set. Splitting a leaf can only create
/// violations observable from its own children, so this reaches the same
/// unique closure as a full [`balance`]. Returns the number of ripple
/// refinements.
pub fn balance_from(b: &mut dyn OctreeBackend, refined: &[OctKey]) -> usize {
    let seed: Vec<OctKey> = refined.iter().flat_map(|k| k.children()).collect();
    balance_worklist(b, seed, false)
}

/// One full balancing sweep over the tree: refine any leaf that violates
/// 2:1 with a face neighbor. Runs the batched worklist algorithm to a
/// fixed point; returns the number of refinements performed.
pub fn balance(b: &mut dyn OctreeBackend) -> usize {
    let seed = b.leaf_keys_sorted();
    balance_worklist(b, seed, false)
}

/// Full-adjacency 2:1 balance: like [`balance`] but across **all 26
/// neighbors** (faces, edges, corners), the constraint linear-octree
/// codes like Etree must enforce — and the reason the paper calls its
/// balancing "very time-consuming ... it needs to search all its 26
/// neighbors" (§5.4). Returns the number of refinements.
pub fn balance26(b: &mut dyn OctreeBackend) -> usize {
    let seed = b.leaf_keys_sorted();
    balance_worklist(b, seed, true)
}

/// Batched constraint check shared by [`check_balance`] /
/// [`check_balance26`]: one neighbor-resolution pass over the sorted leaf
/// set, returning the first (fine, coarse) violating pair in Z-order.
fn check_with(b: &mut dyn OctreeBackend, full: bool) -> Option<(OctKey, OctKey)> {
    let leaves = b.leaf_keys_sorted();
    let neighborhoods = b.neighbor_leaves_many(&leaves, full);
    for (k, neighbors) in leaves.iter().zip(&neighborhoods) {
        for leaf in neighbors {
            if leaf.level() + 1 < k.level() {
                return Some((*k, *leaf));
            }
        }
    }
    None
}

/// Verify the full 26-neighbor 2:1 constraint.
pub fn check_balance26(b: &mut dyn OctreeBackend) -> Option<(OctKey, OctKey)> {
    check_with(b, true)
}

/// Balance restricted to a set of recently-changed leaves ("enforced on
/// the fly", §2): checks only the given keys' neighborhoods and refines
/// coarse neighbors, propagating through the same worklist scheme as
/// [`balance`] (children of refined octants plus still-violating
/// sources). Far cheaper than a full sweep when the change set is a thin
/// band. Returns refinements performed.
pub fn balance_subset(b: &mut dyn OctreeBackend, keys: &[OctKey]) -> usize {
    balance_worklist(b, keys.to_vec(), false)
}

/// Verify the 2:1 constraint across all face-adjacent leaves. Returns the
/// violating pair if any.
pub fn check_balance(b: &mut dyn OctreeBackend) -> Option<(OctKey, OctKey)> {
    check_with(b, false)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::backend::{EtreeBackend, InCoreBackend, OctreeBackend, PmBackend};
    use crate::construct::construct_path;
    use pm_octree::{PmConfig, PmOctree};
    use pmoctree_nvbm::{DeviceModel, NvbmArena};

    fn backends() -> Vec<Box<dyn OctreeBackend>> {
        vec![
            Box::new(PmBackend::new(PmOctree::create(
                NvbmArena::new(32 << 20, DeviceModel::default()),
                PmConfig { dynamic_transform: false, ..PmConfig::default() },
            ))),
            Box::new(InCoreBackend::new()),
            Box::new(EtreeBackend::on_nvbm()),
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
            let n = balance(b.as_mut());
            assert!(n > 0, "{}", b.name());
            assert!(check_balance(b.as_mut()).is_none(), "{} still unbalanced", b.name());
        }
    }

    #[test]
    fn refine_balanced_ripples() {
        for mut b in backends() {
            // Refine one corner deeply with the balanced primitive; at
            // every step the tree stays 2:1.
            let mut k = OctKey::root();
            for _ in 0..4 {
                assert!(refine_balanced(b.as_mut(), k), "{}", b.name());
                k = k.child(7);
            }
            assert!(check_balance(b.as_mut()).is_none(), "{}", b.name());
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
            assert!(!can_coarsen(b.as_mut(), OctKey::root().child(0)), "{}", b.name());
            // Coarsening the deep corner itself is fine.
            assert!(can_coarsen(b.as_mut(), OctKey::root().child(0).child(7)), "{}", b.name());
            assert!(coarsen_balanced(b.as_mut(), OctKey::root().child(0).child(7)));
            assert!(check_balance(b.as_mut()).is_none(), "{}", b.name());
        }
    }

    #[test]
    fn balance26_is_stricter_than_face_balance() {
        for mut b in backends() {
            // A deep block touching a coarse region only diagonally:
            // face-balance accepts it, 26-balance refines further.
            let deep = OctKey::root().child(0).child(7).child(7).child(7);
            construct_path(b.as_mut(), deep);
            balance(b.as_mut());
            assert!(check_balance(b.as_mut()).is_none(), "{}", b.name());
            let extra = balance26(b.as_mut());
            assert!(extra > 0, "{}: edge/corner neighbors should force refinement", b.name());
            assert!(check_balance26(b.as_mut()).is_none(), "{}", b.name());
            // Full balance implies face balance.
            assert!(check_balance(b.as_mut()).is_none(), "{}", b.name());
        }
    }

    #[test]
    fn balance26_costs_more_neighbor_lookups() {
        // The §5.4 claim in miniature: 26-neighbor balancing on the
        // out-of-core backend costs far more virtual time than
        // face-balancing, because every lookup is an index+page access.
        let mk = || {
            let mut b = EtreeBackend::on_nvbm();
            construct_path(&mut b, OctKey::root().child(0).child(7).child(7));
            b
        };
        let mut face = mk();
        let t0 = face.elapsed_ns();
        balance(&mut face);
        let face_cost = face.elapsed_ns() - t0;
        let mut full = mk();
        let t0 = full.elapsed_ns();
        balance26(&mut full);
        let full_cost = full.elapsed_ns() - t0;
        assert!(full_cost > 2 * face_cost, "26-neighbor {full_cost} vs face {face_cost}");
    }

    #[test]
    fn balance_is_idempotent() {
        for mut b in backends() {
            construct_path(b.as_mut(), OctKey::root().child(3).child(3).child(3));
            balance(b.as_mut());
            assert_eq!(balance(b.as_mut()), 0, "{}", b.name());
        }
    }
}
