//! Recovery invariant checking.
//!
//! After a crash, [`PmOctree::restore`](crate::PmOctree::restore) must hand
//! back *exactly* the last persisted version — nothing else is acceptable.
//! This module provides the two halves of that proof:
//!
//! * [`scan_tree`] — a **validated** reachability pass over the media.
//!   Unlike [`gc::mark`](crate::gc::mark), which trusts every pointer it
//!   follows (and would panic inside the arena on a torn offset), the scan
//!   checks each step before taking it: bounds, cacheline alignment,
//!   key/position consistency, reserved bytes of the navigation line zero,
//!   no volatile handles in a persisted tree. It keeps no visited set:
//!   a child must carry the key its slot implies (`parent.child(slot)`),
//!   and two paths to one offset imply two keys, so a cycle or an aliased
//!   slot fails that position check and the scan accepts each offset at
//!   most once. A violation is reported as
//!   [`PmError::Corrupt`] instead of a panic, so callers can distinguish
//!   "this crash image is unrecoverable" from "the process blew up".
//! * [`check_invariants`] — the post-restore contract: the structure is
//!   closed, the leaf index restore built agrees with a direct tree walk, no
//!   reachable octant sits on the allocator free list, and the registry
//!   holds the working version's octants and nothing else (recovery
//!   reclaimed every orphan) — [`check_registry`], the collection's
//!   invariant between any two operations: those octants plus the
//!   retirement list.
//!
//! The remaining tentpole invariant — the restored tree equals `V_i` or
//! `V_{i-1}` byte-for-byte — needs the pre-crash leaf snapshots and lives
//! in the sweep driver (`bench`), which records them.

use std::collections::{HashMap, HashSet};

use pmoctree_morton::OctKey;
use pmoctree_nvbm::{POffset, CACHELINE, HEADER_SIZE};

use crate::api::{PmError, PmOctree};
use crate::gc;
use crate::octant::{ChildPtr, PmStore, OCTANT_SIZE};

/// What a validated scan learned about the tree below one root.
#[derive(Debug, Clone, Default)]
pub struct TreeScan {
    /// Every reachable octant offset, sorted ascending.
    pub live: Vec<POffset>,
    /// Key of every reachable leaf, in scan order: the leaf set the
    /// restored handle's index is built from.
    pub leaves: Vec<OctKey>,
    /// Deepest reachable refinement level.
    pub depth: u8,
    /// Highest creation epoch among reachable octants. Recovery refuses a
    /// tree stamped later than its commit record's epoch.
    pub max_epoch: u32,
}

/// Is `p` a plausible octant offset for this arena — between the header
/// and the top of the heaps (the flight-recorder ring starts there)?
/// Checked before any read, because the arena itself asserts on
/// out-of-range access.
fn check_offset(p: POffset, top: u64, what: &str) -> Result<(), PmError> {
    if p.0 < HEADER_SIZE || p.0.saturating_add(OCTANT_SIZE as u64) > top {
        return Err(PmError::Corrupt(format!("{what} {:#x} out of bounds (top {top:#x})", p.0)));
    }
    if !p.0.is_multiple_of(CACHELINE as u64) {
        return Err(PmError::Corrupt(format!("{what} {:#x} not cacheline aligned", p.0)));
    }
    Ok(())
}

/// Decode a key only after proving `from_raw` would accept it.
fn checked_key(p: POffset, code: u64, level: u8) -> Result<OctKey, PmError> {
    if level > OctKey::MAX_LEVEL {
        return Err(PmError::Corrupt(format!(
            "octant {:#x}: level {level} exceeds max {}",
            p.0,
            OctKey::MAX_LEVEL
        )));
    }
    let bits = level as u32 * 3;
    if bits < 64 && code >> bits != 0 {
        return Err(PmError::Corrupt(format!(
            "octant {:#x}: code {code:#x} has bits above level {level}",
            p.0
        )));
    }
    Ok(OctKey::from_raw(code, level))
}

/// Validated reachability scan from `root`. Every pointer is checked
/// before it is followed; structural violations come back as
/// [`PmError::Corrupt`] describing the first problem found.
pub fn scan_tree(store: &mut PmStore, root: POffset) -> Result<TreeScan, PmError> {
    let top = store.arena.rt_heap_top();
    check_offset(root, top, "root")?;
    let mut scan = TreeScan::default();
    // Each entry carries the key its slot path implies (none for the
    // root): the position check below is what rules out a second path.
    let mut stack: Vec<(POffset, Option<OctKey>)> = vec![(root, None)];
    while let Some((p, want)) = stack.pop() {
        // The whole hot line — children or a leaf's payload, raw key,
        // mask, epoch — arrives in one validated read; a torn child link
        // (instead of a decode panic) or a non-zero reserved byte — a
        // leaf's 32..48 among them, where a zeroed mask over links
        // leaves the high links — surfaces as `Corrupt` here.
        let nav = store.nav_line_checked(p)?;
        let key = checked_key(p, nav.code, nav.level)?;
        if let Some(want) = want {
            if key != want {
                return Err(PmError::Corrupt(format!(
                    "octant {:#x}: key {key:?} does not match its position {want:?}",
                    p.0
                )));
            }
        }
        // An interior octant's presence mask is redundant with its links;
        // a disagreement means a torn navigation line.
        let links_mask =
            nav.children
                .iter()
                .enumerate()
                .fold(0u8, |m, (i, c)| if c.is_null() { m } else { m | 1 << i });
        if links_mask != nav.mask {
            return Err(PmError::Corrupt(format!(
                "octant {:#x} ({key:?}): presence mask {:#04x} disagrees with child links {links_mask:#04x}",
                p.0, nav.mask
            )));
        }
        scan.max_epoch = scan.max_epoch.max(nav.epoch);
        scan.depth = scan.depth.max(key.level());
        let mut leaf = true;
        for (i, c) in nav.children.into_iter().enumerate() {
            match c {
                ChildPtr::Null => {}
                ChildPtr::Volatile(id) => {
                    return Err(PmError::Corrupt(format!(
                        "octant {:#x} ({key:?}): child {i} is volatile handle {id} — DRAM pointers must never be reachable from a persisted root",
                        p.0
                    )));
                }
                ChildPtr::Node(q) => {
                    leaf = false;
                    check_offset(q, top, "child pointer")?;
                    if key.level() >= OctKey::MAX_LEVEL {
                        return Err(PmError::Corrupt(format!(
                            "octant {:#x} at max level {} has children",
                            p.0,
                            OctKey::MAX_LEVEL
                        )));
                    }
                    stack.push((q, Some(key.child(i))));
                }
            }
        }
        if leaf {
            scan.leaves.push(key);
        }
        scan.live.push(p);
    }
    scan.live.sort_unstable();
    Ok(scan)
}

/// Report from a successful [`check_invariants`] pass.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// Reachable octants in the recovered version.
    pub live: usize,
    /// Leaves in the recovered version.
    pub leaves: usize,
    /// Depth of the recovered version.
    pub depth: u8,
}

/// Post-restore invariant check. Call on a freshly
/// [`restore`](crate::PmOctree::restore)d tree; any violated invariant is
/// reported as [`PmError::Corrupt`].
///
/// Checks, in order:
/// 1. the commit record's root names a structurally closed tree
///    (`scan_tree`) whose leaf/depth counts match the handle's;
/// 2. the leaf index holds exactly the leaf set a direct tree walk finds;
/// 3. no reachable octant overlaps a block on the allocator free list (one
///    merge sweep over the sorted live set and the sorted free list);
/// 4. [`check_registry`]: the registry is exactly what the working
///    version reaches plus the (after a restore, empty) retirement list —
///    recovery reclaimed every orphan.
pub fn check_invariants(t: &mut PmOctree) -> Result<RecoveryReport, PmError> {
    // (1) Structural closure from the committed root.
    let root = t.store.arena.committed().root;
    if root.is_null() {
        return Err(PmError::Corrupt("the commit record names no tree".into()));
    }
    let scan = scan_tree(&mut t.store, root)?;
    if scan.leaves.len() != t.leaf_count() {
        return Err(PmError::Corrupt(format!(
            "handle says {} leaves, scan found {}",
            t.leaf_count(),
            scan.leaves.len()
        )));
    }
    if scan.depth != t.depth() {
        return Err(PmError::Corrupt(format!(
            "handle says depth {}, scan found {}",
            t.depth(),
            scan.depth
        )));
    }
    // (2) The leaf index matches a direct tree walk.
    let walk: Vec<OctKey> = {
        let mut keys = Vec::with_capacity(scan.leaves.len());
        t.for_each_leaf(|k, _| keys.push(k));
        keys.sort_by(|a, b| a.zcmp(b));
        keys
    };
    let indexed = t.leaf_keys_sorted();
    if indexed != walk {
        return Err(PmError::Corrupt(format!(
            "leaf index ({} entries) disagrees with tree walk ({} leaves)",
            indexed.len(),
            walk.len()
        )));
    }
    // (3) Free-list disjointness: no free block may overlap a live octant.
    // Both lists are sorted and every interval is one octant long, so one
    // merge sweep finds any overlap: the first live octant not wholly
    // below a free block is the only one that can reach into it.
    let mut live = scan.live.iter().peekable();
    for block in t.store.alloc.free_blocks() {
        while live.next_if(|p| p.0 + OCTANT_SIZE as u64 <= block.0).is_some() {}
        if let Some(p) = live.peek().filter(|p| p.0 < block.0 + OCTANT_SIZE as u64) {
            return Err(PmError::Corrupt(format!(
                "free block {:#x}+{OCTANT_SIZE} overlaps the reachable octant at {:#x}",
                block.0, p.0
            )));
        }
    }
    // (4) Restore rebuilt the registry and the allocator from the live
    // set alone.
    check_registry(t)?;
    Ok(RecoveryReport { live: scan.live.len(), leaves: scan.leaves.len(), depth: scan.depth })
}

/// The collection's invariant, which holds between any two operations:
/// the registry is exactly the octants the working version reaches — its
/// DRAM subtrees' shadows included, by a [`gc::mark`] walk — plus the
/// retirement list, nothing listed twice or still linked, the octants
/// stamped before the working epoch first; every octant the previous
/// version reaches is still allocated; and the allocator's live byte
/// count is the registry's. So nothing leaked, and freeing the list frees
/// nothing the working version needs.
pub fn check_registry(t: &mut PmOctree) -> Result<(), PmError> {
    let mut roots = vec![t.current_root];
    roots.extend(t.forest.ids().into_iter().map(|id| t.forest.get(id).shadow));
    let working = gc::mark(&mut t.store, &roots, t.epoch);
    let fresh: HashSet<POffset> = working.fresh.iter().copied().collect();
    let mut stamps: HashMap<POffset, bool> =
        working.live.iter().map(|p| (*p, fresh.contains(p))).collect();
    let mut retired = Vec::new();
    for e in t.store.retired.clone() {
        if e.whole {
            let subtree = gc::mark(&mut t.store, &[e.off], t.epoch);
            if !subtree.fresh.is_empty() || e.stamp >= t.epoch {
                return Err(PmError::Corrupt(format!(
                    "subtree {:#x} retired whole holds octants of the working epoch",
                    e.off.0
                )));
            }
            retired.extend(subtree.live.into_iter().map(|p| (p, false)));
        } else {
            retired.push((e.off, e.stamp == t.epoch));
        }
    }
    for (p, fresh) in retired {
        if stamps.insert(p, fresh).is_some() {
            return Err(PmError::Corrupt(format!(
                "retired octant {:#x} is still linked or retired twice",
                p.0
            )));
        }
    }
    if stamps.len() != t.store.registry.len() {
        return Err(PmError::Corrupt(format!(
            "registry holds {} octants, the working version and the retirement list {}",
            t.store.registry.len(),
            stamps.len()
        )));
    }
    for (i, p) in t.store.registry.iter().enumerate() {
        match stamps.remove(p) {
            Some(fresh) if fresh == (i >= t.store.shared) => {}
            Some(_) => {
                return Err(PmError::Corrupt(format!(
                    "registry entry {i} ({:#x}) is on the wrong side of the shared prefix ({})",
                    p.0, t.store.shared
                )))
            }
            None => {
                return Err(PmError::Corrupt(format!(
                    "registry entry {i} ({:#x}) is neither linked nor retired, or listed twice",
                    p.0
                )))
            }
        }
    }
    let previous = gc::mark(&mut t.store, &[t.prev_root], t.epoch);
    let registered: HashSet<POffset> = t.store.registry.iter().copied().collect();
    if let Some(p) = previous.live.iter().find(|p| !registered.contains(p)) {
        return Err(PmError::Corrupt(format!(
            "octant {:#x} of the previous version was freed before a persist",
            p.0
        )));
    }
    let live_bytes = (t.store.registry.len() * OCTANT_SIZE) as u64;
    if t.store.alloc.live_bytes() != live_bytes {
        return Err(PmError::Corrupt(format!(
            "allocator reports {} live bytes, the registry occupies {live_bytes}",
            t.store.alloc.live_bytes()
        )));
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::PmConfig;
    use crate::octant::CellData;
    use pmoctree_nvbm::{CrashMode, DeviceModel, NvbmArena};

    fn arena() -> NvbmArena {
        NvbmArena::new(4 << 20, DeviceModel::default())
    }

    fn cfg() -> PmConfig {
        PmConfig { dynamic_transform: false, ..PmConfig::default() }
    }

    #[test]
    fn scan_matches_clean_tree() {
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(2)).unwrap();
        t.persist();
        let root = t.store.arena.committed().root;
        let scan = scan_tree(&mut t.store, root).unwrap();
        assert_eq!(scan.leaves.len(), 15);
        assert_eq!(scan.depth, 2);
        assert_eq!(scan.live.len(), 17);
    }

    #[test]
    fn check_invariants_passes_after_clean_restore() {
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.set_data(OctKey::root().child(3), CellData { phi: 1.0, ..Default::default() }).unwrap();
        t.persist();
        t.refine(OctKey::root().child(1)).unwrap(); // unpersisted
        let mut a = {
            let PmOctree { store, .. } = t;
            store.arena
        };
        a.crash(CrashMode::LoseDirty);
        let mut r = PmOctree::restore(a, cfg()).unwrap();
        let rep = check_invariants(&mut r).unwrap();
        assert_eq!(rep.leaves, 8);
    }

    /// Overwrite child link slot `i` (a 6-byte field at record offset
    /// `6*i`) with the raw 48-bit value `raw`.
    fn poison_link(t: &mut PmOctree, p: POffset, i: u64, raw: u64) {
        t.store.arena.write(p.0 + 6 * i, &raw.to_le_bytes()[..6]);
    }

    #[test]
    fn scan_rejects_out_of_bounds_child() {
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let root = t.store.arena.committed().root;
        // Corrupt child slot 0 with a huge offset (links store offset/64).
        poison_link(&mut t, root, 0, (1u64 << 40) >> 6);
        let err = scan_tree(&mut t.store, root).unwrap_err();
        assert!(matches!(err, PmError::Corrupt(_)), "{err}");
    }

    #[test]
    fn scan_rejects_misaligned_root() {
        // The compact /64 link encoding cannot express a misaligned child,
        // so the alignment check is exercised through the commit record's
        // root (the one raw u64 offset a scan starts from).
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let root = t.store.arena.committed().root;
        let err = scan_tree(&mut t.store, POffset(root.0 + 8)).unwrap_err();
        assert!(err.to_string().contains("aligned"), "{err}");
    }

    #[test]
    fn scan_rejects_cycle() {
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let root = t.store.arena.committed().root;
        // Point child 0 of the root back at the root itself.
        poison_link(&mut t, root, 0, root.0 >> 6);
        let err = scan_tree(&mut t.store, root).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    /// A three-persist tree: the root, `child(2)` and `child(2).child(5)`
    /// refined, each in its own epoch.
    fn three_epoch_tree() -> (PmOctree, POffset) {
        let mut t = PmOctree::create(arena(), cfg());
        let c2 = OctKey::root().child(2);
        for k in [OctKey::root(), c2, c2.child(5)] {
            t.refine(k).unwrap();
            t.set_data(k.child(1), CellData { phi: 0.5, ..Default::default() }).unwrap();
            t.persist();
        }
        let root = t.store.arena.committed().root;
        (t, root)
    }

    fn child_of(t: &mut PmOctree, p: POffset, i: usize) -> POffset {
        let ChildPtr::Node(q) = t.store.nav_line(p).children[i] else { panic!("slot {i}") };
        q
    }

    #[test]
    fn scan_rejects_aliased_slot() {
        let (mut t, root) = three_epoch_tree();
        // Root slot 1 names child 0's octant: one offset, two paths.
        let c0 = child_of(&mut t, root, 0);
        poison_link(&mut t, root, 1, c0.0 >> 6);
        let err = scan_tree(&mut t.store, root).unwrap_err();
        assert!(matches!(&err, PmError::Corrupt(m) if m.contains("does not match")), "{err}");
    }

    #[test]
    fn scan_rejects_deep_cycle_and_terminates() {
        let (mut t, root) = three_epoch_tree();
        // A grandchild's slot 3 points back at its parent.
        let parent = child_of(&mut t, root, 2);
        let grandchild = child_of(&mut t, parent, 5);
        poison_link(&mut t, grandchild, 3, parent.0 >> 6);
        let err = scan_tree(&mut t.store, root).unwrap_err();
        assert!(matches!(&err, PmError::Corrupt(m) if m.contains("does not match")), "{err}");
    }

    /// The scan's report on a healthy tree, field by field, against what
    /// each field is defined as: `live` is the marked set in ascending
    /// order; `leaves` comes in pop order — children pushed in slot order
    /// and popped last first, so descending Z-order; `depth` and
    /// `max_epoch` are the extremes over the live octants.
    #[test]
    fn scan_reports_a_healthy_tree_field_by_field() {
        let (mut t, root) = three_epoch_tree();
        let scan = scan_tree(&mut t.store, root).unwrap();
        let mut live: Vec<POffset> =
            gc::mark(&mut t.store, &[root], t.epoch).live.into_iter().collect();
        live.sort_unstable();
        assert_eq!(scan.live, live);
        let mut leaves = t.leaf_keys_sorted();
        leaves.reverse();
        assert_eq!(scan.leaves, leaves);
        assert_eq!((scan.leaves.len(), scan.depth), (22, 3));
        assert_eq!(scan.depth, t.depth());
        let max_epoch = live.iter().map(|&p| t.store.nav_line(p).epoch).max().unwrap();
        assert_eq!(scan.max_epoch, max_epoch);
        assert!(max_epoch >= 2, "the three persists stamped distinct epochs");
    }

    #[test]
    fn check_invariants_rejects_a_free_block_over_a_live_octant() {
        let restored = || {
            let (t, _) = three_epoch_tree();
            let mut a = t.store.arena;
            a.crash(CrashMode::LoseDirty);
            PmOctree::restore(a, cfg()).unwrap()
        };
        let mut r = restored();
        check_invariants(&mut r).unwrap();
        let root = r.store.arena.committed().root;
        let inner = child_of(&mut r, root, 2);
        // A block exactly on a live octant, and one straddling the second
        // half of one octant and the first half of the next line up.
        for block in [inner, POffset(inner.0 + CACHELINE as u64)] {
            let mut r = restored();
            r.store.alloc.free(block);
            let err = check_invariants(&mut r).unwrap_err();
            assert!(matches!(&err, PmError::Corrupt(m) if m.contains("overlaps")), "{err}");
        }
    }

    #[test]
    fn scan_rejects_bad_key_level() {
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let root = t.store.arena.committed().root;
        // Overwrite the root's level byte (hot-line offset 56) with garbage.
        t.store.arena.write(root.0 + 56, &[200u8]);
        let err = scan_tree(&mut t.store, root).unwrap_err();
        assert!(err.to_string().contains("level"), "{err}");
    }

    #[test]
    fn scan_rejects_volatile_handle() {
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let root = t.store.arena.committed().root;
        poison_link(&mut t, root, 1, (1u64 << 47) | 5);
        let err = scan_tree(&mut t.store, root).unwrap_err();
        assert!(err.to_string().contains("volatile"), "{err}");
    }

    #[test]
    fn scan_rejects_nonzero_reserved_byte() {
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let root = t.store.arena.committed().root;
        let ChildPtr::Node(leaf) = t.store.nav_line(root).children[4] else { panic!() };
        // Hot-line offset 57 held the deleted flag once; nothing stores
        // there now, so any bit set in a reachable octant is damage.
        for byte in [1u8, 0x80] {
            t.store.arena.write(leaf.0 + 57, &[byte]);
            let err = scan_tree(&mut t.store, root).unwrap_err();
            assert!(matches!(&err, PmError::Corrupt(m) if m.contains("reserved")), "{err}");
        }
        t.store.arena.write(leaf.0 + 57, &[0]);
        assert_eq!(scan_tree(&mut t.store, root).unwrap().live.len(), 9);
        // Recovery is that scan: a crash image with the byte set is refused.
        t.store.arena.write(leaf.0 + 57, &[1]);
        let mut a = t.store.arena;
        a.flush_all();
        a.crash(CrashMode::LoseDirty);
        assert!(matches!(PmOctree::restore(a, cfg()), Err(PmError::Corrupt(_))));
    }

    /// The commit record bounds every reachable octant's epoch: one
    /// stamped a single epoch later is damage, not a crash to tolerate.
    #[test]
    fn restore_refuses_an_octant_stamped_past_the_record() {
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let (root, epoch) = (t.store.arena.committed().root, t.store.arena.committed().epoch);
        let ChildPtr::Node(leaf) = t.store.nav_line(root).children[3] else { panic!() };
        for (stamp, ok) in [(epoch, true), (epoch + 1, false)] {
            // Hot-line offset 60 holds the creation epoch.
            t.store.arena.write(leaf.0 + 60, &(stamp as u32).to_le_bytes());
            t.store.arena.flush_all();
            let image = t.store.arena.clone_media();
            let r = PmOctree::restore(NvbmArena::from_media(image, DeviceModel::default()), cfg());
            match r {
                Ok(r) => assert!(ok && r.epoch() as u64 == epoch + 1, "stamp {stamp}"),
                Err(e) => assert!(!ok && matches!(e, PmError::Corrupt(_)), "stamp {stamp}: {e}"),
            }
        }
    }

    #[test]
    fn scan_rejects_mask_link_mismatch() {
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let root = t.store.arena.committed().root;
        // Zero the presence mask (hot-line offset 58) while the eight
        // child links stay populated: a torn navigation line.
        t.store.arena.write(root.0 + 58, &[0u8]);
        let err = scan_tree(&mut t.store, root).unwrap_err();
        assert!(err.to_string().contains("mask"), "{err}");
    }

    /// Restore builds its leaf index from the scan's leaf keys, so a
    /// damaged image fails with the scan's own error: nothing is built
    /// from a tree the scan refused.
    #[test]
    fn restore_returns_the_scan_error_before_building_an_index() {
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(6)).unwrap();
        t.persist();
        let root = t.store.arena.committed().root;
        let ChildPtr::Node(inner) = t.store.nav_line(root).children[6] else { panic!() };
        t.store.arena.write(inner.0 + 58, &[0x0f]);
        let want = scan_tree(&mut t.store, root).unwrap_err();
        t.store.arena.flush_all();
        let image = NvbmArena::from_media(t.store.arena.clone_media(), DeviceModel::default());
        match PmOctree::restore(image, cfg()) {
            Err(e) => assert_eq!(e.to_string(), want.to_string()),
            Ok(_) => panic!("a torn presence mask restored"),
        }
    }
}
