//! `Balance`: enforce the 2:1 constraint — two face-adjacent leaves may
//! differ by at most one refinement level.
//!
//! For pointer-based trees (`PM-octree`, in-core) a violated neighbor is
//! found with one root descent. For the Etree baseline the same
//! [`OctreeBackend::containing_leaf`] call costs a B-tree lookup plus a
//! page read. The paper notes that balancing a *linear* octree must
//! interrogate all 26 neighbors per octant (§5.4); that cost is not
//! modelled: every backend here balances faces.
//!
//! The batched passes ([`balance`] and friends, the check) ask the
//! question per *family* instead: one lookup per face direction of a
//! parent answers all eight children at once (`coarse_neighbors`).

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

/// The six face directions `(axis, dir)`; a family's queries are asked
/// in this order.
const FACES: [(usize, i8); 6] = [(2, -1), (1, -1), (0, -1), (0, 1), (1, 1), (2, 1)];

/// The faces (bit `j` per [`FACES`]) through which child `c` of a family
/// looks out of it: along each axis only the side the child sits on
/// leaves the parent.
fn outward(c: usize) -> u8 {
    (0..3).fold(0, |bits, a| bits | if c >> a & 1 == 1 { 8 << a } else { 4 >> a })
}

/// The family kernel behind balancing and its checks: for every source
/// (Z-sorted, deduplicated) call `f(source, leaf)` for each leaf at least
/// two levels coarser than the source that holds one of its face
/// neighbors.
///
/// A neighbor inside the source's own family never qualifies: the parent
/// `P` is interior, so the sibling exists. A neighbor outside it lies in
/// `P`'s same-level neighbor `N` in that direction, and its leaf is two
/// levels coarser than the source exactly when the leaf containing `N` is
/// coarser than `N` — and then it is that leaf. So one batched
/// [`OctreeBackend::containing_leaf_many`] over each parent's neighbors in
/// the directions its sources face (at most 6) answers every source,
/// where asking per source cost 6 queries each.
///
/// Sources must be octants of the tree (a key below a leaf has no interior
/// parent, and its in-family neighbors are not looked at).
fn coarse_neighbors(
    b: &mut dyn OctreeBackend,
    sources: &[OctKey],
    mut f: impl FnMut(OctKey, OctKey),
) {
    let sides: [u8; 8] = std::array::from_fn(outward);
    // (parent, directions its sources face, first query) — sorted by key.
    let mut parents: Vec<(OctKey, u8, u32)> =
        sources.iter().filter_map(|k| Some((k.parent()?, sides[k.sibling_index()], 0))).collect();
    parents.sort_unstable_by_key(|p| p.0);
    parents.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 |= later.1;
        }
        same
    });
    let mut queries: Vec<OctKey> = Vec::with_capacity(parents.len() * FACES.len());
    for (p, dirs, first) in &mut parents {
        *first = queries.len() as u32;
        let mut kept = 0u8;
        for (j, &(axis, dir)) in FACES.iter().enumerate().filter(|(j, _)| *dirs >> j & 1 == 1) {
            if let Some(n) = p.face_neighbor(axis, dir) {
                queries.push(n);
                kept |= 1 << j;
            }
        }
        *dirs = kept; // directions off the domain have nothing to ask
    }
    let resolved = b.containing_leaf_many(&queries);
    for &k in sources {
        let Some(p) = k.parent() else { continue };
        let i = parents.partition_point(|e| e.0 < p);
        let (_, dirs, first) = parents[i];
        let mine = sides[k.sibling_index()] & dirs;
        for j in (0..FACES.len()).filter(|j| mine >> j & 1 == 1) {
            let q = first + (dirs & ((1 << j) - 1)).count_ones();
            if let Some(leaf) = resolved[q as usize] {
                if leaf.level() + 1 < k.level() {
                    f(k, leaf);
                }
            }
        }
    }
}

/// Worklist-driven face 2:1 balancing, built on the family kernel
/// ([`coarse_neighbors`]).
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
/// sweep-until-fixed-point implementation. A round that refines none of
/// its targets (the device is full) would meet the same tree again: the
/// loop stops there and leaves the violation for [`check_balance`].
fn balance_worklist(b: &mut dyn OctreeBackend, mut worklist: Vec<OctKey>) -> usize {
    let mut total = 0usize;
    while !worklist.is_empty() {
        worklist.sort_unstable();
        worklist.dedup();
        let mut targets: Vec<OctKey> = Vec::new();
        let mut next: Vec<OctKey> = Vec::new();
        coarse_neighbors(b, &worklist, |k, leaf| {
            targets.push(leaf);
            if next.last() != Some(&k) {
                next.push(k);
            }
        });
        targets.sort_unstable();
        targets.dedup();
        // Violating coarse leaves are disjoint, so the whole round splits
        // in one batched call.
        let ok = b.refine_many(&targets);
        let before = total;
        for (t, s) in targets.iter().zip(ok) {
            if s {
                total += 1;
                next.extend(t.children());
            }
        }
        if total == before {
            break;
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
    balance_worklist(b, seed)
}

/// One full balancing sweep over the tree: refine any leaf that violates
/// 2:1 with a face neighbor. Runs the batched worklist algorithm to a
/// fixed point; returns the number of refinements performed.
pub fn balance(b: &mut dyn OctreeBackend) -> usize {
    let seed = b.leaf_keys_sorted();
    balance_worklist(b, seed)
}

/// Balance restricted to a set of recently-changed leaves ("enforced on
/// the fly", §2): checks only the given keys' neighborhoods and refines
/// coarse neighbors, propagating through the same worklist scheme as
/// [`balance`] (children of refined octants plus still-violating
/// sources). Far cheaper than a full sweep when the change set is a thin
/// band. `keys` must be octants of the tree (the leaves of the band,
/// typically). Returns refinements performed.
pub fn balance_subset(b: &mut dyn OctreeBackend, keys: &[OctKey]) -> usize {
    balance_worklist(b, keys.to_vec())
}

/// Verify the 2:1 constraint across all face-adjacent leaves: one
/// family-kernel pass over the sorted leaf set, returning the first fine
/// leaf in Z-order that sees a violation, with the first coarse leaf it
/// sees.
pub fn check_balance(b: &mut dyn OctreeBackend) -> Option<(OctKey, OctKey)> {
    let leaves = b.leaf_keys_sorted();
    let mut first: Option<(OctKey, OctKey)> = None;
    coarse_neighbors(b, &leaves, |k, leaf| match first {
        None => first = Some((k, leaf)),
        Some((fk, fl)) if fk == k && leaf < fl => first = Some((k, leaf)),
        Some(_) => {}
    });
    first
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::backend::{OctreeBackend, PmBackend};
    use crate::construct::construct_path;
    use pm_octree::{PmConfig, PmError, PmOctree};
    use pmoctree_nvbm::{DeviceModel, NvbmArena};

    /// A ripple the device has no room for: balancing must stop once a
    /// round refines none of its targets, leave the mesh as the refusals
    /// left it, and the check must still name the violation.
    #[test]
    fn balance_returns_when_the_device_refuses_every_ripple() {
        let mut b = PmBackend::new(PmOctree::create(
            NvbmArena::new(64 << 10, DeviceModel::default()),
            PmConfig { dynamic_transform: false, seed_c0: false, ..PmConfig::default() },
        ));
        let mut deep = OctKey::root();
        for _ in 0..6 {
            deep = deep.child(7);
        }
        construct_path(&mut b, deep);
        // Deepen the corner until the device refuses: every level below 6
        // widens the gap to the coarse leaves balance would have to split.
        'fill: loop {
            for k in b.leaf_keys_sorted() {
                if k.level() >= 6 {
                    match b.refine(k) {
                        Ok(()) => {}
                        Err(PmError::Full(_)) => break 'fill,
                        Err(e) => panic!("unexpected refusal {e:?}"),
                    }
                }
            }
        }
        let leaves = b.leaf_keys_sorted();
        assert!(check_balance(&mut b).is_some(), "the filled corner must violate 2:1");
        let refined = balance(&mut b);
        assert!(check_balance(&mut b).is_some(), "a full device cannot have closed the ripple");
        assert_eq!(b.leaf_keys_sorted().len(), leaves.len() + 7 * refined);
        assert_eq!(balance_from(&mut b, &[deep]), 0);
    }
}
