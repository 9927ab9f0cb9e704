//! The persistent `C1` tree: NVBM-resident octants with copy-on-write
//! multi-versioning.
//!
//! Invariants maintained by every function here (§3.2 of the paper):
//!
//! 1. **Exclusivity is hereditary.** An octant whose `epoch` equals the
//!    current working epoch is *exclusive* to `V_i` and may be mutated in
//!    place; all of its ancestors are then exclusive too, because the only
//!    way an exclusive octant comes into existence is a path copy that
//!    made its whole ancestor chain exclusive first.
//! 2. **Shared octants are immutable.** Octants with an older epoch may be
//!    referenced by `V_{i-1}`; they are never written. Mutation copies
//!    them (and their shared ancestors) — `V_{i-1}` keeps the originals.
//! 3. **Deletion never writes shared octants.** Unlinking rewrites only
//!    the (exclusive) parent; the shared child octant itself is untouched
//!    and reclaimed by GC once no version references it. Exclusive
//!    deleted octants get their `deleted` flag set for GC.
//!
//! Because of (1)–(3), a crash at *any* point leaves the tree reachable
//! from the persisted `V_{i-1}` root byte-identical to what
//! `pm_persistent` flushed — no fence or flush ordering is required on
//! the octant writes themselves.
//!
//! Every mutation entry point is fallible: allocation exhaustion surfaces
//! as [`PmError::Full`] *before* any publication write, so the
//! pre-mutation version stays reachable and the partially-allocated
//! copies are unreachable garbage for GC. The functions are generic over
//! [`OctAccess`] so the same COW logic runs against the serial
//! [`PmStore`] and against per-domain `ShardStore`s during
//! domain-parallel sweeps.

use pmoctree_morton::OctKey;
use pmoctree_nvbm::POffset;

use crate::api::PmError;
use crate::octant::{CellData, ChildPtr, OctAccess, Octant, PmStore, FANOUT};

/// Outcome of a root-descent for `key`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Locate {
    /// Found as a persistent octant.
    Nvbm(POffset),
    /// The descent hit a volatile handle at `ancestor_level`; the octant,
    /// if it exists, lives in C0 tree `id`.
    Volatile(u32),
    /// No such octant in the tree.
    Missing,
}

/// Walk from `root` towards `key`; stop at the octant, a volatile handle,
/// or a missing link.
pub fn locate<S: OctAccess>(store: &mut S, root: POffset, key: OctKey) -> Locate {
    debug_assert!(!root.is_null());
    let root_key = store.key(root);
    if !root_key.contains(&key) {
        return Locate::Missing;
    }
    let mut cur = root;
    for l in root_key.level()..key.level() {
        let idx = key.ancestor_at(l + 1).sibling_index();
        match store.child(cur, idx) {
            ChildPtr::Null => return Locate::Missing,
            ChildPtr::Volatile(id) => return Locate::Volatile(id),
            ChildPtr::Nvbm(p) => cur = p,
        }
    }
    Locate::Nvbm(cur)
}

/// Make the octant at `key` exclusive to the current epoch, copying the
/// shared suffix of its root path (the paper's Figure 4 walk: copy 9→9',
/// copy u→u', link, repeat to the root). Returns the possibly-new root
/// and the exclusive octant's offset.
///
/// `key` must exist as an NVBM octant under `root`. On [`PmError::Full`]
/// no link has been published: copies allocated so far are unreachable
/// and the caller's tree is unchanged.
pub fn cow_path<S: OctAccess>(
    store: &mut S,
    root: POffset,
    key: OctKey,
    epoch: u32,
) -> Result<(POffset, POffset), PmError> {
    // Record the descent: (offset, child index taken from it).
    let root_key = store.key(root);
    debug_assert!(root_key.contains(&key), "cow_path outside tree");
    let mut path: Vec<(POffset, usize)> =
        Vec::with_capacity((key.level() - root_key.level()) as usize);
    let mut cur = root;
    for l in root_key.level()..key.level() {
        let idx = key.ancestor_at(l + 1).sibling_index();
        match store.child(cur, idx) {
            ChildPtr::Nvbm(p) => {
                path.push((cur, idx));
                cur = p;
            }
            other => {
                return Err(PmError::Corrupt(format!(
                    "cow_path: expected NVBM child on path, found {other:?}"
                )))
            }
        }
    }
    // `cur` is the target. Copy the shared suffix bottom-up.
    if store.epoch_of(cur) == epoch {
        return Ok((root, cur)); // already exclusive; ancestors are too.
    }
    let mut copy = store.read_octant(cur);
    copy.epoch = epoch;
    let mut child_off = store.alloc_octant(&copy)?;
    let mut child_key_level = key.level();
    // Walk ancestors from deepest to root, re-linking.
    while let Some((anc, idx)) = path.pop() {
        if store.epoch_of(anc) == epoch {
            // Exclusive ancestor: just update its child slot in place.
            // This is the single publication write for the whole walk —
            // every copy below is fully written before it lands.
            store.set_child(anc, idx, ChildPtr::Nvbm(child_off));
            store.set_parent(child_off, anc);
            return Ok((root, deepest(store, root, key, child_key_level)?));
        }
        let mut anc_copy = store.read_octant(anc);
        anc_copy.epoch = epoch;
        anc_copy.children[idx] = ChildPtr::Nvbm(child_off);
        let anc_off = store.alloc_octant(&anc_copy)?;
        store.set_parent(child_off, anc_off);
        child_off = anc_off;
        child_key_level -= 1;
    }
    // The root itself was copied: child_off is the new root.
    store.set_parent(child_off, POffset::NULL);
    let new_root = child_off;
    let target = deepest(store, new_root, key, key.level())?;
    Ok((new_root, target))
}

/// Re-locate `key` (must exist, as NVBM) under `root`. `_lvl` documents
/// intent; descent is by key.
fn deepest<S: OctAccess>(
    store: &mut S,
    root: POffset,
    key: OctKey,
    _lvl: u8,
) -> Result<POffset, PmError> {
    match locate(store, root, key) {
        Locate::Nvbm(p) => Ok(p),
        other => Err(PmError::Corrupt(format!("octant vanished during COW: {other:?}"))),
    }
}

/// Refine the NVBM leaf at `key`: create its 8 children (all exclusive),
/// each inheriting the parent's payload. Returns the possibly-new root.
///
/// All eight children are allocated before the single bulk link write,
/// so a [`PmError::Full`] mid-way leaves the leaf a leaf.
pub fn refine<S: OctAccess>(
    store: &mut S,
    root: POffset,
    key: OctKey,
    epoch: u32,
) -> Result<POffset, PmError> {
    let (root, leaf) = cow_path(store, root, key, epoch)?;
    if !store.is_leaf_octant(leaf) {
        return Err(PmError::NotALeaf(format!("refine target {key:?} is not a leaf")));
    }
    let data = store.data(leaf);
    let mut cs = [ChildPtr::Null; FANOUT];
    for (i, slot) in cs.iter_mut().enumerate() {
        let o = Octant::leaf(key.child(i), leaf, epoch, data);
        let p = store.alloc_octant(&o)?;
        *slot = ChildPtr::Nvbm(p);
    }
    // One bulk link write instead of eight mask read-modify-writes.
    store.set_children(leaf, &cs);
    Ok(root)
}

/// Coarsen the NVBM octant at `key`: unlink its children (which must all
/// be NVBM leaves), making it a leaf. Shared children are left untouched
/// for `V_{i-1}`; exclusive children are flagged deleted for GC.
pub fn coarsen<S: OctAccess>(
    store: &mut S,
    root: POffset,
    key: OctKey,
    epoch: u32,
) -> Result<POffset, PmError> {
    let (root, node) = cow_path(store, root, key, epoch)?;
    // Validate every child before the first in-place write so a refusal
    // leaves the tree untouched (COW copies from the path walk are
    // already linked but content-identical, so the tree is unchanged).
    let kids = store.children(node);
    for c in &kids {
        match c {
            ChildPtr::Nvbm(c) => {
                if !store.is_leaf_octant(*c) {
                    return Err(PmError::NotCoarsenable(format!(
                        "coarsen at {key:?}: child {:?} is not a leaf",
                        store.key(*c)
                    )));
                }
            }
            ChildPtr::Null => {}
            ChildPtr::Volatile(id) => {
                return Err(PmError::NotCoarsenable(format!(
                    "coarsen at {key:?} reaches across the DRAM boundary (C0 tree {id})"
                )))
            }
        }
    }
    let mut mean = CellData::default();
    for c in kids {
        if let ChildPtr::Nvbm(c) = c {
            let d = store.data(c);
            mean.phi += d.phi / 8.0;
            mean.pressure += d.pressure / 8.0;
            mean.vof += d.vof / 8.0;
            mean.work += d.work / 8.0;
            if store.epoch_of(c) == epoch {
                store.set_deleted(c, true);
            }
        }
    }
    // Unlink all children with one bulk write to the navigation line.
    store.set_children(node, &[ChildPtr::Null; FANOUT]);
    // Restriction operator: the new leaf takes the mean of its children.
    store.set_data(node, &mean);
    Ok(root)
}

/// Update the payload of the NVBM octant at `key` (copy-on-write if
/// shared). Returns the possibly-new root.
pub fn update_data<S: OctAccess>(
    store: &mut S,
    root: POffset,
    key: OctKey,
    data: &CellData,
    epoch: u32,
) -> Result<POffset, PmError> {
    let (root, node) = cow_path(store, root, key, epoch)?;
    store.set_data(node, data);
    Ok(root)
}

/// Replace the child slot that holds `key`'s position under `root` with
/// `ptr` (used to attach merged subtrees and volatile handles). `key`
/// must not be the root itself. Returns the possibly-new root.
pub fn replace_slot<S: OctAccess>(
    store: &mut S,
    root: POffset,
    key: OctKey,
    ptr: ChildPtr,
    epoch: u32,
) -> Result<POffset, PmError> {
    let parent_key =
        key.parent().ok_or_else(|| PmError::Corrupt("cannot replace the root slot".to_string()))?;
    let (root, parent) = cow_path(store, root, parent_key, epoch)?;
    store.set_child(parent, key.sibling_index(), ptr);
    if let ChildPtr::Nvbm(p) = ptr {
        store.set_parent(p, parent);
    }
    Ok(root)
}

/// Pre-order traversal of the NVBM part of the tree under `p`; volatile
/// handles are reported to `on_volatile` and not descended.
pub fn traverse(
    store: &mut PmStore,
    p: POffset,
    f: &mut impl FnMut(&mut PmStore, POffset, OctKey, bool),
    on_volatile: &mut impl FnMut(u32),
) {
    let mut stack = vec![p];
    while let Some(cur) = stack.pop() {
        // One navigation-line read delivers children, key and mask.
        let nav = store.nav_line(cur);
        let mut kids = [POffset::NULL; FANOUT];
        let mut n = 0;
        for i in (0..FANOUT).rev() {
            match nav.children[i] {
                ChildPtr::Null => {}
                ChildPtr::Nvbm(c) => {
                    kids[n] = c;
                    n += 1;
                }
                ChildPtr::Volatile(id) => on_volatile(id),
            }
        }
        let key = OctKey::from_raw(nav.code, nav.level);
        f(store, cur, key, nav.mask == 0);
        stack.extend_from_slice(&kids[..n]);
    }
}

/// Count octants reachable from `p` (NVBM only), and how many of them are
/// *shared* (epoch older than `epoch`). Drives the Fig. 3 overlap-ratio
/// measurement.
pub fn count_shared(store: &mut PmStore, p: POffset, epoch: u32) -> (usize, usize) {
    let mut total = 0usize;
    let mut shared = 0usize;
    let mut stack = vec![p];
    while let Some(cur) = stack.pop() {
        total += 1;
        if store.epoch_of(cur) < epoch {
            shared += 1;
        }
        for c in store.children(cur) {
            if let ChildPtr::Nvbm(c) = c {
                stack.push(c);
            }
        }
    }
    (total, shared)
}

/// Merge a pre-order list of (key, data, is_leaf) octants — a C0 subtree —
/// into NVBM, *diffing against the shadow subtree* (the NVBM image this
/// region had at the last persist) so unchanged octants are shared rather
/// than rewritten. Returns the ChildPtr for the subtree root.
///
/// Sharing rule: an old octant is reused iff its payload is bit-identical
/// and every child slot resolved to the same offset (i.e. the entire
/// subtree below it is unchanged). This is what keeps the Fig. 3 overlap
/// ratio high when the mesh barely changes between steps.
pub fn merge_subtree(
    store: &mut PmStore,
    octants: &[(OctKey, CellData, bool)],
    shadow: Option<POffset>,
    epoch: u32,
) -> Result<POffset, PmError> {
    if octants.is_empty() {
        return Err(PmError::Corrupt("merging an empty subtree".to_string()));
    }
    store.arena.tracer.counter_add("c1.merge_octants", octants.len() as u64);
    let (off, _shared, consumed) = merge_rec(store, octants, 0, shadow, epoch)?;
    debug_assert_eq!(consumed, octants.len(), "pre-order list not fully consumed");
    Ok(off)
}

/// Returns (offset, was_shared, entries_consumed).
fn merge_rec(
    store: &mut PmStore,
    octants: &[(OctKey, CellData, bool)],
    at: usize,
    shadow: Option<POffset>,
    epoch: u32,
) -> Result<(POffset, bool, usize), PmError> {
    let (key, data, is_leaf) = octants[at];
    let mut consumed = 1usize;
    let mut children = [ChildPtr::Null; FANOUT];
    let mut all_children_shared = true;
    if !is_leaf {
        // Pre-order: children appear consecutively (each with its own
        // descendants) right after the parent, in Morton order.
        while at + consumed < octants.len() {
            let ck = octants[at + consumed].0;
            if ck.parent() != Some(key) {
                break;
            }
            let idx = ck.sibling_index();
            let child_shadow = shadow.and_then(|s| match store.child(s, idx) {
                ChildPtr::Nvbm(p) => Some(p),
                _ => None,
            });
            let (coff, cshared, ccons) =
                merge_rec(store, octants, at + consumed, child_shadow, epoch)?;
            children[idx] = ChildPtr::Nvbm(coff);
            all_children_shared &= cshared;
            consumed += ccons;
        }
    }
    // Try to share the shadow octant.
    if let Some(s) = shadow {
        if all_children_shared && !store.is_deleted(s) {
            let old = store.read_octant(s);
            let data_same = old.data.phi.to_bits() == data.phi.to_bits()
                && old.data.pressure.to_bits() == data.pressure.to_bits()
                && old.data.vof.to_bits() == data.vof.to_bits()
                && old.data.work.to_bits() == data.work.to_bits();
            let children_same = old.children == children && old.key == key;
            if data_same && children_same {
                return Ok((s, true, consumed));
            }
        }
    }
    // Parent pointers are advisory (no algorithm walks upward — see the
    // module docs), so merged octants keep parent = NULL rather than
    // paying an extra cacheline write per child to fix them up.
    let o = Octant { children, parent: POffset::NULL, key, deleted: false, epoch, data };
    let off = store.alloc_octant(&o)?;
    Ok((off, false, consumed))
}

/// Collect an NVBM subtree into a pre-order (key, data) list (used when
/// promoting a hot subtree into DRAM). Deleted octants are skipped.
/// Returns `None` when the subtree contains a volatile handle — such a
/// region is already partly DRAM-resident and cannot be promoted
/// wholesale.
pub fn collect_subtree(store: &mut PmStore, p: POffset) -> Option<Vec<(OctKey, CellData)>> {
    let mut out = Vec::new();
    if collect_rec(store, p, &mut out) {
        Some(out)
    } else {
        None
    }
}

fn collect_rec(store: &mut PmStore, p: POffset, out: &mut Vec<(OctKey, CellData)>) -> bool {
    if store.is_deleted(p) {
        return true;
    }
    let o = store.read_octant(p);
    out.push((o.key, o.data));
    for c in o.children {
        match c {
            ChildPtr::Nvbm(cp) => {
                if !collect_rec(store, cp, out) {
                    return false;
                }
            }
            ChildPtr::Null => {}
            ChildPtr::Volatile(_) => return false,
        }
    }
    true
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pmoctree_nvbm::{DeviceModel, NvbmArena};

    fn store() -> PmStore {
        PmStore::new(NvbmArena::new(4 << 20, DeviceModel::default()))
    }

    /// Build a fresh single-root tree at epoch `e`.
    fn root_tree(s: &mut PmStore, e: u32) -> POffset {
        let o = Octant::leaf(OctKey::root(), POffset::NULL, e, CellData::default());
        s.alloc_octant(&o).unwrap()
    }

    #[test]
    fn locate_finds_descendants() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        let k = OctKey::root().child(3);
        match locate(&mut s, root, k) {
            Locate::Nvbm(p) => assert_eq!(s.key(p), k),
            other => panic!("{other:?}"),
        }
        assert_eq!(locate(&mut s, root, k.child(0)), Locate::Missing);
    }

    #[test]
    fn refine_exclusive_keeps_root() {
        let mut s = store();
        let root = root_tree(&mut s, 1);
        // Root is exclusive at epoch 1: refining must not copy it.
        let new_root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        assert_eq!(new_root, root);
    }

    #[test]
    fn refine_shared_copies_path() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        let old_root = root;
        // Epoch advances: everything is now shared.
        let new_root = refine(&mut s, root, OctKey::root().child(2), 2).unwrap();
        assert_ne!(new_root, old_root, "shared root must be copied");
        // Old version intact: child 2 of the old root is still a leaf.
        match locate(&mut s, old_root, OctKey::root().child(2)) {
            Locate::Nvbm(p) => {
                assert!((0..8).all(|i| s.child(p, i).is_null()), "old version mutated!");
            }
            other => panic!("{other:?}"),
        }
        // New version has the refinement.
        match locate(&mut s, new_root, OctKey::root().child(2).child(5)) {
            Locate::Nvbm(p) => assert_eq!(s.key(p), OctKey::root().child(2).child(5)),
            other => panic!("{other:?}"),
        }
        // Unmodified siblings are shared, not copied.
        let old_c3 = match locate(&mut s, old_root, OctKey::root().child(3)) {
            Locate::Nvbm(p) => p,
            other => panic!("{other:?}"),
        };
        let new_c3 = match locate(&mut s, new_root, OctKey::root().child(3)) {
            Locate::Nvbm(p) => p,
            other => panic!("{other:?}"),
        };
        assert_eq!(old_c3, new_c3, "untouched sibling should be shared");
    }

    #[test]
    fn update_data_cow_preserves_old_value() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        let k = OctKey::root().child(1);
        root =
            update_data(&mut s, root, k, &CellData { phi: 7.0, ..Default::default() }, 1).unwrap();
        let old_root = root;
        let new_root =
            update_data(&mut s, root, k, &CellData { phi: 9.0, ..Default::default() }, 2).unwrap();
        let old = match locate(&mut s, old_root, k) {
            Locate::Nvbm(p) => s.data(p),
            other => panic!("{other:?}"),
        };
        let new = match locate(&mut s, new_root, k) {
            Locate::Nvbm(p) => s.data(p),
            other => panic!("{other:?}"),
        };
        assert_eq!(old.phi, 7.0);
        assert_eq!(new.phi, 9.0);
    }

    #[test]
    fn coarsen_unlinks_without_writing_shared_children() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        root = refine(&mut s, root, OctKey::root().child(0), 1).unwrap();
        let old_root = root;
        let writes_before = s.arena.stats.nvbm.write_lines;
        let new_root = coarsen(&mut s, root, OctKey::root().child(0), 2).unwrap();
        let _ = writes_before;
        // New version: child 0 is a leaf again.
        match locate(&mut s, new_root, OctKey::root().child(0)) {
            Locate::Nvbm(p) => assert!((0..8).all(|i| s.child(p, i).is_null())),
            other => panic!("{other:?}"),
        }
        // Old version: grandchildren still reachable and not deleted.
        match locate(&mut s, old_root, OctKey::root().child(0).child(4)) {
            Locate::Nvbm(p) => assert!(!s.is_deleted(p), "shared child must not be flagged"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn coarsen_flags_exclusive_children_deleted() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        // Children created at epoch 1; coarsen at the SAME epoch.
        let before: Vec<POffset> = (0..8)
            .map(|i| match s.child(root, i) {
                ChildPtr::Nvbm(p) => p,
                other => panic!("{other:?}"),
            })
            .collect();
        let _ = coarsen(&mut s, root, OctKey::root(), 1).unwrap();
        for p in before {
            assert!(s.is_deleted(p), "exclusive child should be flagged for GC");
        }
    }

    #[test]
    fn coarsen_refuses_across_dram_boundary_without_mutating() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        root =
            replace_slot(&mut s, root, OctKey::root().child(3), ChildPtr::Volatile(9), 1).unwrap();
        let err = coarsen(&mut s, root, OctKey::root(), 1).unwrap_err();
        assert!(matches!(err, PmError::NotCoarsenable(_)), "{err}");
        // The refusal happened before any unlink: the volatile handle and
        // the NVBM siblings are all still in place.
        assert_eq!(locate(&mut s, root, OctKey::root().child(3)), Locate::Volatile(9));
        assert!(matches!(locate(&mut s, root, OctKey::root().child(4)), Locate::Nvbm(_)));
    }

    #[test]
    fn alloc_failure_mid_refine_leaves_tree_restorable() {
        // Arena small enough that a refinement sweep eventually hits
        // PmError::Full mid-COW; the tree must stay fully navigable and
        // the failed target must still be a leaf (nothing published).
        let mut s = PmStore::new(NvbmArena::new(64 << 10, DeviceModel::default()));
        let mut root = root_tree(&mut s, 1);
        let mut frontier = vec![OctKey::root()];
        let mut failed_at = None;
        'fill: while failed_at.is_none() {
            let mut next = Vec::new();
            for k in std::mem::take(&mut frontier) {
                match refine(&mut s, root, k, 1) {
                    Ok(r) => {
                        root = r;
                        next.extend((0..8).map(|i| k.child(i)));
                    }
                    Err(PmError::Full(_)) => {
                        failed_at = Some(k);
                        break 'fill;
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
            frontier = next;
        }
        let failed = failed_at.expect("arena never filled");
        // The failed refine published nothing: the target is still a leaf.
        match locate(&mut s, root, failed) {
            Locate::Nvbm(p) => assert!(s.is_leaf_octant(p), "partial refine was published"),
            other => panic!("{other:?}"),
        }
        // Every octant reachable from the root still decodes cleanly.
        let mut count = 0usize;
        traverse(&mut s, root, &mut |_, _, _, _| count += 1, &mut |_| {});
        assert!(count >= 9, "tree collapsed after failed refine: {count} octants");
    }

    #[test]
    fn merge_subtree_shares_unchanged_octants() {
        let mut s = store();
        // Build a shadow subtree in NVBM: one node + 8 leaves at epoch 1.
        let sub_key = OctKey::root().child(6);
        let octants: Vec<(OctKey, CellData, bool)> =
            std::iter::once((sub_key, CellData::default(), false))
                .chain((0..8).map(|i| (sub_key.child(i), CellData::default(), true)))
                .collect();
        let shadow = merge_subtree(&mut s, &octants, None, 1).unwrap();
        // Re-merge identical content at epoch 2 against the shadow.
        let merged = merge_subtree(&mut s, &octants, Some(shadow), 2).unwrap();
        assert_eq!(merged, shadow, "identical subtree must be fully shared");
        // Change one leaf's data: only the path to it should be new.
        let mut octants2 = octants.clone();
        octants2[3].1.phi = 1.5;
        let alloc_before = s.registry.len();
        let merged2 = merge_subtree(&mut s, &octants2, Some(shadow), 2).unwrap();
        assert_ne!(merged2, shadow);
        assert_eq!(s.registry.len() - alloc_before, 2, "new leaf + new subtree root only");
        let (total, shared) = count_shared(&mut s, merged2, 2);
        assert_eq!(total, 9);
        assert_eq!(shared, 7);
    }

    #[test]
    fn merge_subtree_structure_change_is_detected() {
        let mut s = store();
        let sub_key = OctKey::root().child(1);
        let flat: Vec<(OctKey, CellData, bool)> =
            std::iter::once((sub_key, CellData::default(), false))
                .chain((0..8).map(|i| (sub_key.child(i), CellData::default(), true)))
                .collect();
        let shadow = merge_subtree(&mut s, &flat, None, 1).unwrap();
        // Refine child 0 in the new version.
        let mut deep = vec![
            (sub_key, CellData::default(), false),
            (sub_key.child(0), CellData::default(), false),
        ];
        deep.extend((0..8).map(|i| (sub_key.child(0).child(i), CellData::default(), true)));
        deep.extend((1..8).map(|i| (sub_key.child(i), CellData::default(), true)));
        let merged = merge_subtree(&mut s, &deep, Some(shadow), 2).unwrap();
        assert_ne!(merged, shadow);
        let (total, shared) = count_shared(&mut s, merged, 2);
        assert_eq!(total, 17);
        assert_eq!(shared, 7, "the 7 untouched leaves are shared");
    }

    #[test]
    fn collect_roundtrip() {
        let mut s = store();
        let sub_key = OctKey::root().child(4);
        let octants: Vec<(OctKey, CellData, bool)> =
            std::iter::once((sub_key, CellData { vof: 0.2, ..Default::default() }, false))
                .chain((0..8).map(|i| {
                    (sub_key.child(i), CellData { vof: i as f64, ..Default::default() }, true)
                }))
                .collect();
        let off = merge_subtree(&mut s, &octants, None, 1).unwrap();
        let collected = collect_subtree(&mut s, off).expect("pure NVBM subtree");
        assert_eq!(collected.len(), 9);
        assert_eq!(collected[0].0, sub_key);
        assert_eq!(collected[0].1.vof, 0.2);
        let rebuilt: Vec<(OctKey, CellData, bool)> =
            collected.iter().map(|&(k, d)| (k, d, k.level() > sub_key.level())).collect();
        // Re-merging the collected set against the original shares 100%.
        let again = merge_subtree(&mut s, &rebuilt, Some(off), 2).unwrap();
        assert_eq!(again, off);
    }

    #[test]
    fn replace_slot_attaches_volatile_handle() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        let k = OctKey::root().child(5);
        let root2 = replace_slot(&mut s, root, k, ChildPtr::Volatile(42), 2).unwrap();
        assert_eq!(locate(&mut s, root2, k), Locate::Volatile(42));
        // The old version still sees the NVBM child.
        assert!(matches!(locate(&mut s, root, k), Locate::Nvbm(_)));
    }

    #[test]
    fn traverse_visits_all_and_reports_volatile() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        root =
            replace_slot(&mut s, root, OctKey::root().child(2), ChildPtr::Volatile(7), 1).unwrap();
        let mut keys = Vec::new();
        let mut vols = Vec::new();
        traverse(&mut s, root, &mut |_, _, k, _| keys.push(k), &mut |id| vols.push(id));
        assert_eq!(keys.len(), 8, "root + 7 NVBM children");
        assert_eq!(vols, vec![7]);
    }
}
