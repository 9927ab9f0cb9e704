//! Mark-and-sweep garbage collection over the NVBM octant registry.
//!
//! §3.2: deletion only *marks* octants; the space is reclaimed here. GC
//! runs (a) before each new time step and (b) on demand when the free
//! NVBM fraction drops below `threshold_NVBM`. It is disabled during
//! merging (the caller simply does not invoke it there).
//!
//! The sweep set is the volatile [`PmStore::registry`]; after a crash
//! [`PmOctree::restore`](crate::PmOctree::restore) rebuilds it, and the
//! allocator with it, from the validated reachable set alone — the
//! paper's "no allocator logging" property.

use std::collections::HashSet;

use pmoctree_nvbm::POffset;

use crate::octant::{ChildPtr, OctAccess, PmStore};

/// Result of a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Octants reachable from the roots.
    pub live: usize,
    /// Octants freed.
    pub freed: usize,
    /// Of the freed octants, how many carried the `deleted` flag.
    pub freed_flagged: usize,
}

/// Mark every octant reachable from `roots` (descending only NVBM child
/// pointers; volatile handles refer to DRAM and are not swept here).
pub fn mark(store: &mut PmStore, roots: &[POffset]) -> HashSet<POffset> {
    let mut marked: HashSet<POffset> = HashSet::new();
    let mut stack: Vec<POffset> = roots.iter().copied().filter(|p| !p.is_null()).collect();
    while let Some(p) = stack.pop() {
        if !marked.insert(p) {
            continue;
        }
        for c in store.children(p) {
            if let ChildPtr::Nvbm(c) = c {
                stack.push(c);
            }
        }
    }
    marked
}

/// Mark from `roots`, then sweep the registry: unreachable octants are
/// freed and dropped from the registry.
pub fn collect(store: &mut PmStore, roots: &[POffset]) -> GcReport {
    let _span = store.arena.span("gc::sweep");
    let prev_phase = store.arena.set_phase("gc::sweep");
    store.arena.failpoint("gc::sweep");
    let marked = mark(store, roots);
    let mut freed = 0usize;
    let mut freed_flagged = 0usize;
    let registry = std::mem::take(&mut store.registry);
    let mut kept = Vec::with_capacity(marked.len());
    for p in registry {
        if marked.contains(&p) {
            kept.push(p);
        } else {
            if store.is_deleted(p) {
                freed_flagged += 1;
            }
            store.free_octant(p);
            freed += 1;
        }
    }
    store.registry = kept;
    store.arena.set_phase(prev_phase);
    GcReport { live: marked.len(), freed, freed_flagged }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::c1::{coarsen, refine};
    use crate::octant::{CellData, Octant, OCTANT_SIZE};
    use pmoctree_morton::OctKey;
    use pmoctree_nvbm::{DeviceModel, NvbmArena};

    fn store() -> PmStore {
        PmStore::new(NvbmArena::new(4 << 20, DeviceModel::default()))
    }

    fn root_tree(s: &mut PmStore, e: u32) -> POffset {
        let o = Octant::leaf(OctKey::root(), POffset::NULL, e, CellData::default());
        s.alloc_octant(&o).unwrap()
    }

    #[test]
    fn collect_frees_unreachable() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        assert_eq!(s.registry.len(), 9);
        // Coarsen at the same epoch: children flagged deleted + unlinked.
        let root = coarsen(&mut s, root, OctKey::root(), 1).unwrap();
        let r = collect(&mut s, &[root]);
        assert_eq!(r.live, 1);
        assert_eq!(r.freed, 8);
        assert_eq!(r.freed_flagged, 8);
        assert_eq!(s.registry.len(), 1);
    }

    #[test]
    fn collect_with_two_roots_keeps_both_versions() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        let old_root = root;
        // New epoch: refine child 0 → path copy creates new root.
        let new_root = refine(&mut s, root, OctKey::root().child(0), 2).unwrap();
        let before = s.registry.len();
        let r = collect(&mut s, &[old_root, new_root]);
        assert_eq!(r.freed, 0, "both versions reachable, nothing to free");
        assert_eq!(r.live, before);
        // Dropping the old version frees its exclusive octants
        // (old root + old child 0; the other 7 children are shared).
        let r2 = collect(&mut s, &[new_root]);
        assert_eq!(r2.freed, 2);
    }

    #[test]
    fn freed_space_is_reused() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        root = coarsen(&mut s, root, OctKey::root(), 1).unwrap();
        collect(&mut s, &[root]);
        let live_before = s.alloc.live_bytes();
        // New refinement reuses the freed blocks.
        let _ = refine(&mut s, root, OctKey::root(), 1);
        assert_eq!(s.alloc.live_bytes(), live_before + 8 * OCTANT_SIZE as u64);
    }

    #[test]
    fn mark_stops_at_volatile_handles() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        let root = crate::c1::replace_slot(
            &mut s,
            root,
            OctKey::root().child(0),
            ChildPtr::Volatile(3),
            1,
        )
        .unwrap();
        let marked = mark(&mut s, &[root]);
        assert_eq!(marked.len(), 8, "root + 7 children (one slot volatile)");
    }
}
