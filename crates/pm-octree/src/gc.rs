//! Garbage collection over the NVBM octant registry: a retirement list.
//!
//! §3.2: deletion only *marks* octants; the space is reclaimed here. GC
//! runs (a) before each new time step and (b) on demand when the free
//! NVBM fraction drops below `threshold_NVBM`. It is disabled during
//! merging (the caller simply does not invoke it there).
//!
//! Nothing is re-learned by a walk: every site that unlinks an octant
//! from the working version `V_i` already holds its offset and stamp, and
//! retires it into [`PmStore::retire`]'s epoch-keyed list — the original
//! a COW copy supersedes (C1's `copy_chain`), the children a coarsen
//! drops, the shadow octants a C0 merge does not reuse and the shadow
//! subtrees it drops (`walk::copy`; one listed *whole* is older
//! than the working epoch throughout and is walked only when freed), and
//! the copies a [`PmError::Full`](crate::PmError::Full) left unlinked. So the registry
//! is always `V_i`'s octants — its DRAM subtrees' shadows among them —
//! plus the list ([`crate::verify::check_registry`] holds it to
//! [`mark`]).
//!
//! * [`collect`], after a persist publishes `V_i`, frees the whole list:
//!   `V_{i-1}` is garbage now. The census falls out of counters — `live`
//!   is the registry's length, `shared` its prefix that predates the
//!   working epoch, and the octants after it are the ones this epoch
//!   created (the replica delta).
//! * [`collect_fresh`], on demand, frees only the entries stamped with
//!   the working epoch: `V_{i-1}` still holds every older one.
//!
//! Both free in registry order, so the allocator hands out the addresses
//! a mark-and-sweep would have, and charge the entries they consume as
//! DRAM writes, one line per 8: the list is the collection's whole cost.
//! The registry is volatile; after a crash
//! [`PmOctree::restore`](crate::PmOctree::restore) rebuilds it, and the
//! allocator with it, from the validated reachable set alone — the
//! paper's "no allocator logging" property.

use std::collections::HashSet;

use pmoctree_nvbm::POffset;

use crate::c0::Dram;
use crate::octant::{ChildPtr, PmStore, Retired};

/// Retirement-list entries per charged DRAM line.
const RETIRED_PER_LINE: usize = 8;

/// Result of a collection.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Octants still allocated.
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
/// classifying each against the working `epoch`. A whole-tree walk: the
/// invariant checker's and the tests' measure of what the retirement list
/// must leave allocated, not a step of collection.
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
            if let ChildPtr::Node(c) = c {
                stack.push(c);
            }
        }
    }
    census
}

/// Free every retired octant: run once the commit record names `V_i`, so
/// `V_{i-1}` needs none of them. A subtree listed whole is walked here,
/// one line read per octant. Afterwards the registry is exactly the
/// published version, and `registry[report.shared..]` its octants created
/// by the working epoch.
pub fn collect(store: &mut PmStore) -> GcReport {
    sweep(store, |_| true)
}

/// Free the retired octants stamped with the working `epoch` — the part
/// of the list `V_{i-1}` cannot reach (on-demand GC; older entries, and
/// so every subtree listed whole, wait for the next persist).
pub fn collect_fresh(store: &mut PmStore, epoch: u32) -> GcReport {
    sweep(store, |stamp| stamp == epoch)
}

/// Free the retired entries whose stamp `doomed` picks, in registry
/// order, and keep the rest listed.
fn sweep(store: &mut PmStore, doomed: impl Fn(u32) -> bool) -> GcReport {
    let _span = store.arena.span("gc::sweep");
    let prev_phase = store.arena.set_phase("gc::sweep");
    store.arena.failpoint("gc::sweep");
    let (listed, keep): (Vec<Retired>, Vec<Retired>) =
        std::mem::take(&mut store.retired).into_iter().partition(|e| doomed(e.stamp));
    store.retired = keep;
    store.arena.charge(0, listed.len().div_ceil(RETIRED_PER_LINE) as u64);
    let mut freed = 0usize;
    if !listed.is_empty() {
        let mut free = HashSet::with_capacity(listed.len());
        let mut whole: Vec<POffset> = Vec::new();
        for e in listed {
            if e.whole {
                whole.push(e.off);
            } else {
                let once = free.insert(e.off);
                debug_assert!(once, "octant {:#x} was retired twice", e.off.0);
            }
        }
        // The subtrees listed whole: one line read per octant.
        while let Some(p) = whole.pop() {
            let nav = store.nav_line(p);
            let once = free.insert(p);
            debug_assert!(once, "octant {:#x} was retired twice", p.0);
            whole.extend(nav.children.iter().filter_map(|c| match *c {
                ChildPtr::Node(q) => Some(q),
                _ => None,
            }));
        }
        let registry = std::mem::take(&mut store.registry);
        let mut kept = Vec::with_capacity(registry.len() - free.len());
        let mut freed_shared = 0usize;
        for (i, p) in registry.into_iter().enumerate() {
            if free.contains(&p) {
                store.free_octant(p);
                freed += 1;
                freed_shared += usize::from(i < store.shared);
            } else {
                kept.push(p);
            }
        }
        debug_assert_eq!(freed, free.len(), "a retired octant is not allocated");
        store.registry = kept;
        store.shared -= freed_shared;
    }
    store.arena.set_phase(prev_phase);
    GcReport { live: store.registry.len(), shared: store.shared, freed }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::octant::{CellData, Octant, OCTANT_SIZE};
    use crate::walk::{coarsen, refine};
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
        root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
        assert_eq!(s.registry.len(), 9);
        let children = s.registry[1..].to_vec();
        // Coarsen at the same epoch: the children are unlinked, nothing
        // more — and retired, which is how the collection finds them.
        let root = coarsen(&mut s, root, OctKey::root(), 1).unwrap().0;
        assert!(children.iter().all(|&c| s.nav_line(c).epoch == 1));
        let r = collect(&mut s);
        assert_eq!(r, GcReport { live: 1, shared: 0, freed: 8 });
        assert_eq!(s.registry, vec![root]);
    }

    #[test]
    fn on_demand_gc_keeps_what_the_previous_version_holds() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
        let old_root = root;
        s.shared = s.registry.len();
        // New epoch: refine child 0 → path copy creates a new root; the
        // old root and old child 0 are retired, and V_{i-1} still holds
        // them. Coarsening the copy drops its 8 fresh children.
        let child = OctKey::root().child(0);
        let new_root = refine(&mut s, root, child, 2).unwrap().0;
        let new_root = coarsen(&mut s, new_root, child, 2).unwrap().0;
        assert_eq!(s.retired.len(), 2 + 8);
        let r = collect_fresh(&mut s, 2);
        assert_eq!(r, GcReport { live: 9 + 2, shared: 9, freed: 8 });
        assert!(matches!(
            crate::walk::locate(&mut s, old_root, child),
            crate::walk::Locate::Found(_)
        ));
        // The persist's collection frees the rest: the old root and child.
        let r = collect(&mut s);
        assert_eq!(r, GcReport { live: 9, shared: 7, freed: 2 });
        assert_eq!(mark(&mut s, &[new_root], 2).live.len(), 9);
    }

    #[test]
    fn freed_space_is_reused() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
        root = coarsen(&mut s, root, OctKey::root(), 1).unwrap().0;
        collect(&mut s);
        let live_before = s.alloc.live_bytes();
        // New refinement reuses the freed blocks.
        let _ = refine(&mut s, root, OctKey::root(), 1).map(|r| r.0);
        assert_eq!(s.alloc.live_bytes(), live_before + 8 * OCTANT_SIZE as u64);
    }

    #[test]
    fn mark_stops_at_volatile_handles() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
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
}
