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
//!   key/position consistency, no cycles, reserved bytes of the navigation
//!   line zero, no volatile handles in a persisted tree. A violation is reported as
//!   [`PmError::Corrupt`] instead of a panic, so callers can distinguish
//!   "this crash image is unrecoverable" from "the process blew up".
//! * [`check_invariants`] — the post-restore contract: the structure is
//!   closed, the rebuilt leaf index agrees with a direct tree walk, no
//!   reachable octant sits on the allocator free list, and a GC pass finds
//!   zero orphans (recovery already reclaimed every one).
//!
//! The remaining tentpole invariant — the restored tree equals `V_i` or
//! `V_{i-1}` byte-for-byte — needs the pre-crash leaf snapshots and lives
//! in the sweep driver (`bench`), which records them.

use std::collections::{HashMap, HashSet};

use pmoctree_morton::OctKey;
use pmoctree_nvbm::{POffset, CACHELINE, HEADER_SIZE};

use crate::api::{PmError, PmOctree};
use crate::gc;
use crate::octant::{ChildPtr, OctAccess, PmStore, OCTANT_SIZE};

/// What a validated scan learned about the tree below one root.
#[derive(Debug, Clone, Default)]
pub struct TreeScan {
    /// Every reachable octant offset, sorted ascending.
    pub live: Vec<POffset>,
    /// Reachable leaf count.
    pub leaves: usize,
    /// Deepest reachable refinement level.
    pub depth: u8,
    /// Highest creation epoch among reachable octants. Recovery must
    /// resume *above* this — the header epoch alone is not enough when the
    /// crash hit between the root swap and the epoch publish.
    pub max_epoch: u32,
}

/// Is `p` a plausible octant offset for this arena? Checked before any
/// read, because the arena itself asserts on out-of-range access.
fn check_offset(p: POffset, capacity: u64, what: &str) -> Result<(), PmError> {
    if p.0 < HEADER_SIZE || p.0.saturating_add(OCTANT_SIZE as u64) > capacity {
        return Err(PmError::Corrupt(format!(
            "{what} {:#x} out of bounds (capacity {capacity:#x})",
            p.0
        )));
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
    let capacity = store.arena.capacity() as u64;
    check_offset(root, capacity, "root")?;
    let mut scan = TreeScan::default();
    let mut seen: HashSet<POffset> = HashSet::new();
    let mut expected: HashMap<POffset, OctKey> = HashMap::new();
    let mut stack = vec![root];
    while let Some(p) = stack.pop() {
        if !seen.insert(p) {
            return Err(PmError::Corrupt(format!(
                "octant {:#x} reachable along two paths (cycle or aliased child slot)",
                p.0
            )));
        }
        // The whole hot line — children, raw key, mask, epoch — arrives in
        // one validated read; a torn child link (instead of a decode
        // panic) or a non-zero reserved byte surfaces as `Corrupt` here.
        let nav = store.nav_line_checked(p)?;
        let key = checked_key(p, nav.code, nav.level)?;
        if let Some(want) = expected.remove(&p) {
            if key != want {
                return Err(PmError::Corrupt(format!(
                    "octant {:#x}: key {key:?} does not match its position {want:?}",
                    p.0
                )));
            }
        }
        // The presence mask is redundant with the links; a disagreement
        // means a torn navigation line.
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
                ChildPtr::Nvbm(q) => {
                    leaf = false;
                    check_offset(q, capacity, "child pointer")?;
                    if key.level() >= OctKey::MAX_LEVEL {
                        return Err(PmError::Corrupt(format!(
                            "octant {:#x} at max level {} has children",
                            p.0,
                            OctKey::MAX_LEVEL
                        )));
                    }
                    expected.insert(q, key.child(i));
                    stack.push(q);
                }
            }
        }
        if leaf {
            scan.leaves += 1;
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
/// 1. the recovery root (slot 1) names a structurally closed tree
///    ([`scan_tree`]) whose leaf/depth counts match the handle's;
/// 2. rebuilding the leaf index gives exactly the leaf set a direct tree
///    walk finds;
/// 3. no reachable octant overlaps a block on the allocator free list;
/// 4. a GC pass from the recovered roots finds zero orphans and the
///    allocator's live byte count equals the reachable set — recovery
///    already reclaimed every orphan.
pub fn check_invariants(t: &mut PmOctree) -> Result<RecoveryReport, PmError> {
    // (1) Structural closure from the recovery root.
    let root = t.store.arena.root(1);
    if root.is_null() {
        return Err(PmError::Corrupt("recovery root (slot 1) is null".into()));
    }
    let scan = scan_tree(&mut t.store, root)?;
    if scan.leaves != t.leaf_count() {
        return Err(PmError::Corrupt(format!(
            "handle says {} leaves, scan found {}",
            t.leaf_count(),
            scan.leaves
        )));
    }
    if scan.depth != t.depth() {
        return Err(PmError::Corrupt(format!(
            "handle says depth {}, scan found {}",
            t.depth(),
            scan.depth
        )));
    }
    // (2) Leaf index rebuild matches a direct tree walk.
    let walk: Vec<OctKey> = {
        let mut keys = Vec::with_capacity(scan.leaves);
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
    // Both sides are cacheline-granular, so compare by occupied lines.
    let mut live_lines: HashSet<u64> = HashSet::new();
    for &p in &scan.live {
        let mut off = p.0;
        while off < p.0 + OCTANT_SIZE as u64 {
            live_lines.insert(off);
            off += CACHELINE as u64;
        }
    }
    for block in t.store.alloc.free_blocks() {
        let mut off = block.0;
        while off < block.0 + OCTANT_SIZE as u64 {
            if live_lines.contains(&off) {
                return Err(PmError::Corrupt(format!(
                    "free block {:#x}+{OCTANT_SIZE} overlaps a reachable octant at line {off:#x}",
                    block.0
                )));
            }
            off += CACHELINE as u64;
        }
    }
    // (4) GC from the recovered roots reclaims nothing: restore already
    // dropped every orphan when it rebuilt the registry and allocator.
    let roots = [t.current_root, t.prev_root];
    let (report, _) = gc::collect(&mut t.store, &roots, t.epoch);
    if report.freed != 0 {
        return Err(PmError::Corrupt(format!(
            "GC after recovery freed {} orphans — restore did not rebuild the live set",
            report.freed
        )));
    }
    if report.live != scan.live.len() {
        return Err(PmError::Corrupt(format!(
            "GC sees {} live octants, validated scan found {}",
            report.live,
            scan.live.len()
        )));
    }
    let live_bytes = (scan.live.len() * OCTANT_SIZE) as u64;
    if t.store.alloc.live_bytes() != live_bytes {
        return Err(PmError::Corrupt(format!(
            "allocator reports {} live bytes, reachable set occupies {live_bytes}",
            t.store.alloc.live_bytes()
        )));
    }
    Ok(RecoveryReport { live: scan.live.len(), leaves: scan.leaves, depth: scan.depth })
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
        let root = t.store.arena.root(1);
        let scan = scan_tree(&mut t.store, root).unwrap();
        assert_eq!(scan.leaves, 15);
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
        let root = t.store.arena.root(1);
        // Corrupt child slot 0 with a huge offset (links store offset/64).
        poison_link(&mut t, root, 0, (1u64 << 40) >> 6);
        let err = scan_tree(&mut t.store, root).unwrap_err();
        assert!(matches!(err, PmError::Corrupt(_)), "{err}");
    }

    #[test]
    fn scan_rejects_misaligned_root() {
        // The compact /64 link encoding cannot express a misaligned child,
        // so the alignment check is exercised through the header's root
        // slot (the one raw u64 offset a scan starts from).
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let root = t.store.arena.root(1);
        t.store.arena.set_root(1, POffset(root.0 + 8));
        let torn = t.store.arena.root(1);
        let err = scan_tree(&mut t.store, torn).unwrap_err();
        assert!(err.to_string().contains("aligned"), "{err}");
    }

    #[test]
    fn scan_rejects_cycle() {
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let root = t.store.arena.root(1);
        // Point child 0 of the root back at the root itself.
        poison_link(&mut t, root, 0, root.0 >> 6);
        let err = scan_tree(&mut t.store, root).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("two paths") || msg.contains("does not match"), "{msg}");
    }

    #[test]
    fn scan_rejects_bad_key_level() {
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let root = t.store.arena.root(1);
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
        let root = t.store.arena.root(1);
        poison_link(&mut t, root, 1, (1u64 << 47) | 5);
        let err = scan_tree(&mut t.store, root).unwrap_err();
        assert!(err.to_string().contains("volatile"), "{err}");
    }

    #[test]
    fn scan_rejects_nonzero_reserved_byte() {
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let root = t.store.arena.root(1);
        let ChildPtr::Nvbm(leaf) = t.store.nav_line(root).children[4] else { panic!() };
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

    #[test]
    fn scan_rejects_mask_link_mismatch() {
        let mut t = PmOctree::create(arena(), cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let root = t.store.arena.root(1);
        // Zero the presence mask (hot-line offset 58) while the eight
        // child links stay populated: a torn navigation line.
        t.store.arena.write(root.0 + 58, &[0u8]);
        let err = scan_tree(&mut t.store, root).unwrap_err();
        assert!(err.to_string().contains("mask"), "{err}");
    }
}
