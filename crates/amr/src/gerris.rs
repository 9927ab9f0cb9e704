//! Gerris-compatible function veneer (§4 of the paper).
//!
//! The paper integrates PM-octree into Gerris by having the flow solver's
//! internal routines — `ftt_cell_traverse()`, `ftt_cell_neighbor()`,
//! `ftt_cell_refine()`, `ftt_cell_write()`, `ftt_cell_read()` — call the
//! PM-octree operations, and by replacing the snapshot functions
//! `gfs_output_write()` / `gfs_output_read()` with `pm_persistent()` /
//! `pm_restore()`. This module provides the same names over
//! [`OctreeBackend`], so code written against Gerris' cell API ports
//! with a search-and-replace, exactly as the paper claims.
//!
//! Naming follows Gerris (C style) rather than Rust convention on
//! purpose; each function documents its Gerris counterpart.

#![allow(non_snake_case)]

use pm_octree::{PmConfig, PmOctree};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::NvbmArena;

use crate::backend::{Cell, OctreeBackend, PmBackend};

/// Traversal order flag (Gerris' `FttTraverseType`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FttTraverseType {
    /// Visit leaf cells only (`FTT_TRAVERSE_LEAFS`).
    Leafs,
    /// Visit every cell, parents before children (`FTT_PRE_ORDER`).
    PreOrder,
}

/// `ftt_cell_traverse()`: walk the tree, invoking `f` per visited cell.
///
/// `PreOrder` visits internal cells with their (restriction-averaged or
/// stored) payload where the backend keeps one; the linear out-of-core
/// backend stores leaves only, so `PreOrder` degrades to leaves there —
/// matching Etree's own behavior.
pub fn ftt_cell_traverse(
    b: &mut dyn OctreeBackend,
    order: FttTraverseType,
    f: &mut dyn FnMut(OctKey, &Cell),
) {
    match order {
        FttTraverseType::Leafs => b.for_each_leaf(f),
        FttTraverseType::PreOrder => {
            // Generic pre-order from leaves: emit each distinct ancestor
            // the first time it is seen (leaves arrive in Z-order per
            // part, so parents precede their later children).
            let mut leaves = Vec::with_capacity(b.leaf_count());
            b.for_each_leaf(&mut |k, d| leaves.push((k, *d)));
            leaves.sort_by_key(|a| a.0);
            let mut seen = std::collections::HashSet::new();
            for (k, d) in &leaves {
                for anc in k.path_from_root() {
                    if seen.insert(anc) {
                        if anc == *k {
                            f(*k, d);
                        } else if let Some(ad) = b.get_data(anc) {
                            f(anc, &ad);
                        } else {
                            f(anc, &[0.0; 4]);
                        }
                    }
                }
            }
        }
    }
}

/// `ftt_cell_neighbor()`: the cell adjacent to `cell` across face
/// `direction` (0..6: −x, +x, −y, +y, −z, +z), at the same or coarser
/// level — `None` at the domain boundary.
pub fn ftt_cell_neighbor(
    b: &mut dyn OctreeBackend,
    cell: OctKey,
    direction: usize,
) -> Option<OctKey> {
    assert!(direction < 6, "face direction out of range");
    let axis = direction / 2;
    let dir = if direction.is_multiple_of(2) { -1 } else { 1 };
    let nk = cell.face_neighbor(axis, dir)?;
    b.containing_leaf(nk)
}

/// `ftt_cell_refine()`: split a leaf cell, then restore 2:1 around its
/// children (the ripple); `false`, changing nothing, if it cannot split.
pub fn ftt_cell_refine(b: &mut dyn OctreeBackend, cell: OctKey) -> bool {
    let split = b.refine(cell).is_ok();
    if split {
        crate::balance::balance_subset(b, &cell.children().collect::<Vec<_>>());
    }
    split
}

/// `ftt_cell_write()`: store the cell payload.
pub fn ftt_cell_write(b: &mut dyn OctreeBackend, cell: OctKey, data: &Cell) -> bool {
    b.set_data(cell, *data).is_ok()
}

/// `ftt_cell_read()`: load the cell payload.
pub fn ftt_cell_read(b: &mut dyn OctreeBackend, cell: OctKey) -> Option<Cell> {
    b.get_data(cell)
}

/// `pm_create()` (Table 1): build a PM-octree-backed tree on an NVBM
/// arena — the drop-in replacement for Gerris' in-core tree creation.
pub fn pm_create(arena: NvbmArena, cfg: PmConfig) -> PmBackend {
    PmBackend::new(PmOctree::create(arena, cfg))
}

/// `pm_persistent()` (replaces `gfs_output_write()`): make the current
/// state durable at memory speed — no snapshot file.
pub fn pm_persistent(b: &mut PmBackend) {
    b.tree.persist();
}

/// `pm_restore()` (replaces `gfs_output_read()` at restart): reopen the
/// last persistent version from the NVBM device.
///
/// # Panics
///
/// Aborts (like the C original) if the device does not hold a
/// recoverable PM-octree; call [`PmOctree::restore`] directly for
/// fallible recovery.
pub fn pm_restore(arena: NvbmArena, cfg: PmConfig) -> PmBackend {
    match PmOctree::restore(arena, cfg) {
        Ok(t) => PmBackend::new(t),
        Err(e) => panic!("pm_restore: {e}"),
    }
}

/// `pm_delete()` (Table 1): drop all octants and release the device.
pub fn pm_delete(b: PmBackend) -> NvbmArena {
    b.tree.delete()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pmoctree_nvbm::{CrashMode, DeviceModel};

    fn backend() -> PmBackend {
        pm_create(
            NvbmArena::new(32 << 20, DeviceModel::default()),
            PmConfig { dynamic_transform: false, ..PmConfig::default() },
        )
    }

    #[test]
    fn gerris_style_meshing_loop() {
        let mut b = backend();
        assert!(ftt_cell_refine(&mut b, OctKey::root()));
        assert!(ftt_cell_refine(&mut b, OctKey::root().child(2)));
        assert!(ftt_cell_write(&mut b, OctKey::root().child(2).child(1), &[3.0, 0.0, 1.0, 0.0]));
        assert_eq!(
            ftt_cell_read(&mut b, OctKey::root().child(2).child(1)),
            Some([3.0, 0.0, 1.0, 0.0])
        );
        let mut leaves = 0;
        ftt_cell_traverse(&mut b, FttTraverseType::Leafs, &mut |_, _| leaves += 1);
        assert_eq!(leaves, 15);
        let family = OctKey::root().child(2);
        assert_eq!(crate::balance::can_coarsen_many(&mut b, &[family]), [true]);
        assert!(b.coarsen(family).is_ok());
    }

    #[test]
    fn neighbor_follows_gerris_direction_encoding() {
        let mut b = backend();
        ftt_cell_refine(&mut b, OctKey::root());
        let c = OctKey::root().child(0); // (0,0,0)
        assert_eq!(ftt_cell_neighbor(&mut b, c, 1), Some(OctKey::root().child(1))); // +x
        assert_eq!(ftt_cell_neighbor(&mut b, c, 3), Some(OctKey::root().child(2))); // +y
        assert_eq!(ftt_cell_neighbor(&mut b, c, 5), Some(OctKey::root().child(4))); // +z
        assert_eq!(ftt_cell_neighbor(&mut b, c, 0), None, "-x hits the wall");
        // Across a level difference: neighbor is the coarser leaf.
        ftt_cell_refine(&mut b, c);
        assert_eq!(
            ftt_cell_neighbor(&mut b, c.child(1), 1),
            Some(OctKey::root().child(1)),
            "coarse neighbor across the face"
        );
    }

    #[test]
    fn preorder_visits_parents_first() {
        let mut b = backend();
        ftt_cell_refine(&mut b, OctKey::root());
        ftt_cell_refine(&mut b, OctKey::root().child(0));
        let mut order = Vec::new();
        ftt_cell_traverse(&mut b, FttTraverseType::PreOrder, &mut |k, _| order.push(k));
        assert_eq!(order.len(), 17, "root + 8 + 8");
        assert_eq!(order[0], OctKey::root());
        let pos = |k: OctKey| order.iter().position(|&x| x == k).unwrap();
        for k in &order {
            if let Some(p) = k.parent() {
                assert!(pos(p) < pos(*k), "parent before child");
            }
        }
    }

    #[test]
    fn snapshot_replacement_roundtrip() {
        let mut b = backend();
        ftt_cell_refine(&mut b, OctKey::root());
        ftt_cell_write(&mut b, OctKey::root().child(5), &[7.0, 0.0, 0.0, 0.0]);
        pm_persistent(&mut b); // instead of gfs_output_write()
                               // Crash the node.
        let arena = {
            let mut a = pm_delete_keep_media(b);
            a.crash(CrashMode::LoseDirty);
            a
        };
        let mut r = pm_restore(arena, PmConfig::default()); // instead of gfs_output_read()
        assert_eq!(ftt_cell_read(&mut r, OctKey::root().child(5)), Some([7.0, 0.0, 0.0, 0.0]));
    }

    /// Test helper: take the arena without clearing the roots (a crash,
    /// not a pm_delete).
    fn pm_delete_keep_media(b: PmBackend) -> NvbmArena {
        let PmBackend { tree } = b;
        tree.store.arena
    }

    #[test]
    fn pm_delete_clears() {
        let mut b = backend();
        ftt_cell_refine(&mut b, OctKey::root());
        pm_persistent(&mut b);
        let arena = pm_delete(b);
        assert!(arena.committed().root.is_null());
    }
}
