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
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Octants reachable from the roots.
    pub live: usize,
    /// Of the live octants, how many are *shared* (epoch older than the
    /// working epoch) — `shared / live` is the Fig. 3 overlap ratio.
    pub shared: usize,
    /// Octants freed.
    pub freed: usize,
}

/// What one mark walk learns about the octants reachable from its roots.
/// Epoch and child links share the navigation line, so the census costs
/// the walk no read beyond the one per octant it already pays.
#[derive(Debug, Default)]
pub struct Census {
    /// Every reachable octant.
    pub live: HashSet<POffset>,
    /// How many of them are older than the working epoch.
    pub shared: usize,
    /// The others — created by the working epoch — in walk order.
    pub fresh: Vec<POffset>,
}

/// Mark every octant reachable from `roots` (descending only NVBM child
/// pointers; volatile handles refer to DRAM and are not swept here),
/// classifying each against the working `epoch`.
pub fn mark(store: &mut PmStore, roots: &[POffset], epoch: u32) -> Census {
    let mut census = Census::default();
    let mut stack: Vec<POffset> = roots.iter().copied().filter(|p| !p.is_null()).collect();
    while let Some(p) = stack.pop() {
        if !census.live.insert(p) {
            continue;
        }
        let nav = store.nav_line(p);
        if nav.epoch < epoch {
            census.shared += 1;
        } else {
            census.fresh.push(p);
        }
        for c in nav.children {
            if let ChildPtr::Nvbm(c) = c {
                stack.push(c);
            }
        }
    }
    census
}

/// Mark from `roots`, then sweep the registry: unreachable octants are
/// freed and dropped from the registry. Returns the report and the live
/// octants created by the working `epoch` (a persist's replica delta).
pub fn collect(store: &mut PmStore, roots: &[POffset], epoch: u32) -> (GcReport, Vec<POffset>) {
    let _span = store.arena.span("gc::sweep");
    let prev_phase = store.arena.set_phase("gc::sweep");
    store.arena.failpoint("gc::sweep");
    let Census { live, shared, fresh } = mark(store, roots, epoch);
    let mut freed = 0usize;
    let registry = std::mem::take(&mut store.registry);
    let mut kept = Vec::with_capacity(live.len());
    for p in registry {
        if live.contains(&p) {
            kept.push(p);
        } else {
            store.free_octant(p);
            freed += 1;
        }
    }
    store.registry = kept;
    store.arena.set_phase(prev_phase);
    (GcReport { live: live.len(), shared, freed }, fresh)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::c1::{coarsen, refine, update_data};
    use crate::octant::{CellData, Octant, Probes, OCTANT_SIZE};
    use pmoctree_morton::OctKey;
    use pmoctree_nvbm::{DeviceModel, NvbmArena};

    fn store() -> PmStore {
        PmStore::new(NvbmArena::new(4 << 20, DeviceModel::default()))
    }

    fn root_tree(s: &mut PmStore, e: u32) -> POffset {
        let o = Octant::leaf(OctKey::root(), e, CellData::default());
        s.alloc_octant(&o).unwrap()
    }

    #[test]
    fn collect_frees_unreachable() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        assert_eq!(s.registry.len(), 9);
        let children = s.registry[1..].to_vec();
        // Coarsen at the same epoch: the children are unlinked, nothing
        // more — the mark from the root is what finds them gone.
        let root = coarsen(&mut s, root, OctKey::root(), 1).unwrap();
        assert!(children.iter().all(|&c| s.read_octant(c).epoch == 1));
        let (r, _) = collect(&mut s, &[root], 1);
        assert_eq!(r.live, 1);
        assert_eq!(r.freed, 8);
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
        let (r, _) = collect(&mut s, &[old_root, new_root], 2);
        assert_eq!(r.freed, 0, "both versions reachable, nothing to free");
        assert_eq!(r.live, before);
        // Dropping the old version frees its exclusive octants
        // (old root + old child 0; the other 7 children are shared).
        let (r2, _) = collect(&mut s, &[new_root], 2);
        assert_eq!(r2.freed, 2);
    }

    #[test]
    fn freed_space_is_reused() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        root = coarsen(&mut s, root, OctKey::root(), 1).unwrap();
        collect(&mut s, &[root], 1);
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
        let marked = mark(&mut s, &[root], 1).live;
        assert_eq!(marked.len(), 8, "root + 7 children (one slot volatile)");
    }
    #[test]
    fn census_counts_what_count_shared_counted() {
        /// The walk `c1::count_shared` made for the Fig. 3 overlap, kept
        /// as the reference.
        fn walk(s: &mut PmStore, root: POffset, epoch: u32) -> (usize, usize) {
            let (mut total, mut shared) = (0, 0);
            let mut stack = vec![root];
            while let Some(p) = stack.pop() {
                total += 1;
                let o = s.read_octant(p);
                shared += usize::from(o.epoch < epoch);
                for c in o.children {
                    if let ChildPtr::Nvbm(c) = c {
                        stack.push(c);
                    }
                }
            }
            (total, shared)
        }
        let at = |path: &[usize]| path.iter().fold(OctKey::root(), |k, &i| k.child(i));
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        for path in [&[][..], &[1], &[4], &[6], &[4, 2]] {
            root = refine(&mut s, root, at(path), 1).unwrap();
        }
        // Epoch 2: every path copy orphans its original, the copies and
        // the new leaves are fresh, untouched subtrees stay shared.
        root = refine(&mut s, root, at(&[4, 2, 5]), 2).unwrap();
        root = coarsen(&mut s, root, at(&[6]), 2).unwrap();
        let d = CellData { phi: 1.0, ..Default::default() };
        root = update_data(&mut s, root, at(&[1, 3]), &d, 2).unwrap();
        // The working epoch, then one at which everything is shared.
        for epoch in [2, 3] {
            let census = mark(&mut s, &[root], epoch);
            let (total, shared) = walk(&mut s, root, epoch);
            assert_eq!((census.live.len(), census.shared), (total, shared), "epoch {epoch}");
            assert_eq!(census.fresh.len(), total - shared);
        }
        let allocated = s.registry.len();
        let (report, mut fresh) = collect(&mut s, &[root], 2);
        let (total, shared) = walk(&mut s, root, 2);
        assert_eq!((report.live, report.shared), (total, shared));
        assert!(shared > 0 && shared < total, "{shared} of {total} shared");
        assert!(report.freed > 0, "the superseded originals are orphans");
        assert_eq!(report.live + report.freed, allocated);
        // The replica delta persist used to gather: the swept registry
        // (now exactly the live set), filtered by epoch.
        let mut by_filter: Vec<POffset> = s.registry.clone();
        by_filter.retain(|&p| s.read_octant(p).epoch == 2);
        by_filter.sort_unstable();
        fresh.sort_unstable();
        assert_eq!(fresh, by_filter);
    }
}
