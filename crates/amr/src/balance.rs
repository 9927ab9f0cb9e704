//! `Balance`: enforce the 2:1 constraint — two face-adjacent leaves may
//! differ by at most one refinement level.
//!
//! One family kernel ([`coarse_neighbors`]) answers every 2:1 question,
//! with a backend's `containing_leaf_many` or the cluster's search over
//! its gathered leaf table as the containment resolver. The paper notes
//! that balancing a *linear* octree must interrogate all 26 neighbors
//! per octant (§5.4); that cost is not modelled: every backend here
//! balances faces.

use pmoctree_morton::OctKey;

use crate::backend::OctreeBackend;

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

/// The six face directions `(axis, dir)`; a family's queries are asked
/// in this order.
const FACES: [(usize, i8); 6] = [(2, -1), (1, -1), (0, -1), (0, 1), (1, 1), (2, 1)];

/// The faces (bit `j` per [`FACES`]) through which child `c` of a family
/// looks out of it: along each axis only the side the child sits on
/// leaves the parent.
fn outward(c: usize) -> u8 {
    (0..3).fold(0, |bits, a| bits | if c >> a & 1 == 1 { 8 << a } else { 4 >> a })
}

/// Each source with a parent, that parent and its entry's index in
/// first-met order. Z-sorted sources' parents nest (a parent's run of
/// children is interrupted only by sources deeper inside it), so a stack
/// of open parents meets each one once: one entry per parent with no
/// sort, and a replay of the walk finds each source's entry again.
fn families(sources: &[OctKey]) -> impl Iterator<Item = (OctKey, OctKey, usize)> + '_ {
    let mut open: Vec<(OctKey, usize)> = Vec::with_capacity(OctKey::MAX_LEVEL as usize);
    let mut opened = 0usize;
    sources.iter().filter_map(move |&k| {
        let p = k.parent()?;
        while open.last().is_some_and(|(top, _)| !top.contains(&p)) {
            open.pop();
        }
        if open.last().map(|top| top.0) != Some(p) {
            open.push((p, opened));
            opened += 1;
        }
        Some((k, p, open[open.len() - 1].1))
    })
}

/// The family kernel behind every 2:1 question: for every source call
/// `f(source, leaf)` for each leaf at least two levels coarser than the
/// source that holds one of its face neighbors. `resolve`, called once,
/// answers a batch of keys with the leaf containing each one, or `None`
/// where the key is interior.
///
/// A neighbor inside the source's own family never qualifies: the parent
/// `P` is interior, so the sibling exists. A neighbor outside it lies in
/// `P`'s same-level neighbor `N` in that direction, and its leaf is two
/// levels coarser than the source exactly when the leaf containing `N` is
/// coarser than `N` — and then it is that leaf. So one batch over each
/// parent's neighbors in the directions its sources face (at most 6)
/// answers every source, where asking per source cost 6 queries each.
///
/// Sources must be Z-sorted and distinct (checked in debug builds), so
/// that their parents fold on a stack (`families`), and leaves or
/// interior octants of the tree `resolve` answers for (a key below a leaf
/// has no interior parent, and its in-family neighbors are not looked at).
pub fn coarse_neighbors(
    resolve: impl FnOnce(&[OctKey]) -> Vec<Option<OctKey>>,
    sources: &[OctKey],
    mut f: impl FnMut(OctKey, OctKey),
) {
    debug_assert!(sources.windows(2).all(|w| w[0] < w[1]), "sources not Z-sorted and distinct");
    let sides: [u8; 8] = std::array::from_fn(outward);
    // (parent, directions its sources face, first query), first-met order.
    let mut parents: Vec<(OctKey, u8, u32)> = Vec::new();
    for (k, p, e) in families(sources) {
        let side = sides[k.sibling_index()];
        match parents.get_mut(e) {
            Some(entry) => entry.1 |= side,
            None => parents.push((p, side, 0)),
        }
    }
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
    let resolved = resolve(&queries);
    for (k, _, e) in families(sources) {
        let (_, dirs, first) = parents[e];
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

/// Restore 2:1 around `keys`, octants of the tree in any order ("enforced
/// on the fly", §2): a worklist over [`coarse_neighbors`] that refines
/// the coarse leaves the seeds see. Returns the refinements performed.
///
/// Violations are only *observable* from the fine side, so the worklist
/// holds fine-side *source* octants. After each round it holds exactly
/// (a) the children of every leaf refined this round and (b) the sources
/// that still observed a violation (a 3-levels-coarser neighbor closes by
/// one level per round). Refining can never introduce a violation
/// anywhere else, so seeding with the children of split leaves reaches
/// their whole 2:1 closure, and seeding with every leaf balances the
/// tree. Every split is forced and the closure is unique, so the leaf set
/// does not depend on the order of refinement. A round that refines none
/// of its targets (the device is full) would meet the same tree again:
/// the loop stops there and leaves the violation for [`check_balance`].
pub fn balance_subset(b: &mut dyn OctreeBackend, keys: &[OctKey]) -> usize {
    let mut worklist = keys.to_vec();
    let mut total = 0usize;
    while !worklist.is_empty() {
        worklist.sort_unstable();
        worklist.dedup();
        let mut targets: Vec<OctKey> = Vec::new();
        let mut next: Vec<OctKey> = Vec::new();
        coarse_neighbors(
            |q| b.containing_leaf_many(q),
            &worklist,
            |k, leaf| {
                targets.push(leaf);
                if next.last() != Some(&k) {
                    next.push(k);
                }
            },
        );
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

/// Verify the 2:1 constraint across all face-adjacent leaves: one
/// family-kernel pass over the sorted leaf set, returning the first fine
/// leaf in Z-order that sees a violation, with the first coarse leaf it
/// sees.
pub fn check_balance(b: &mut dyn OctreeBackend) -> Option<(OctKey, OctKey)> {
    let leaves = b.leaf_keys_sorted();
    let mut first: Option<(OctKey, OctKey)> = None;
    coarse_neighbors(
        |q| b.containing_leaf_many(q),
        &leaves,
        |k, leaf| match first {
            None => first = Some((k, leaf)),
            Some((fk, fl)) if fk == k && leaf < fl => first = Some((k, leaf)),
            Some(_) => {}
        },
    );
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
        let refined = balance_subset(&mut b, &leaves);
        assert!(check_balance(&mut b).is_some(), "a full device cannot have closed the ripple");
        assert_eq!(b.leaf_keys_sorted().len(), leaves.len() + 7 * refined);
        assert_eq!(balance_subset(&mut b, &deep.children().collect::<Vec<_>>()), 0);
    }
}
