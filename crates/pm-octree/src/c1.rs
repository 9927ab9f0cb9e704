//! The persistent `C1` tree: NVBM-resident octants with copy-on-write
//! multi-versioning.
//!
//! [`PmStore`] is the C1 [`LineStore`]: ids are media offsets and every
//! access charges NVBM. The walks, refine and coarsen, the leaf sweep and
//! the tier-to-tier copy are the shared ones ([`crate::walk`]); this
//! module adds C1's write policy, copy-on-write, and [`replace_slot`],
//! the link store that hangs C0 trees and merged images in the tree.
//!
//! Invariants kept by every mutation of this store (§3.2 of the paper):
//!
//! 1. **Exclusivity is hereditary.** An octant whose `epoch` is the
//!    working epoch is *exclusive* to `V_i` and may be written in place;
//!    so are all its ancestors, because only a path copy that made the
//!    whole ancestor chain exclusive first creates one.
//! 2. **Shared octants are immutable.** Octants of an older epoch may be
//!    `V_{i-1}`'s; mutation copies them and their shared ancestors.
//! 3. **Deletion writes only the parent.** Unlinking rewrites the
//!    exclusive parent's links and nothing else; the site that unlinks an
//!    octant retires it from the line it holds ([`PmStore::retire`]), and
//!    GC frees it once no version needs it ([`crate::gc`]).
//! 4. **Only refine and coarsen move a payload, and only on an exclusive
//!    octant** ([`PmStore::set_children`]): a leaf keeps its payload where
//!    an interior octant keeps its links (layout v3). Every other store
//!    keeps the mask: a copy carries the original's, and [`replace_slot`]
//!    and a sweep's body store ([`PmStore::set_links`]) only re-point
//!    occupied slots.
//!
//! So a crash at *any* point leaves the tree reachable from the persisted
//! `V_{i-1}` root byte-identical to what `pm_persistent` flushed, with no
//! ordering on the octant writes; and nothing constrains how a copy is
//! put together, since only the store that links it (or the root swap)
//! makes it reachable. A copy is one record store built from the frame
//! the walker holds ([`Frame`]); a per-op mutation publishes its copies
//! with one link store, a sweep stores each when the walk leaves it.
//! Allocation exhaustion surfaces as [`PmError::Full`] before any
//! publication, with the partial copies retired.

use pmoctree_morton::OctKey;
use pmoctree_nvbm::POffset;

use crate::api::PmError;
use crate::octant::{CellData, ChildPtr, NavLine, Octant, PmStore, FANOUT};
use crate::walk::{Cursor, Frame, LineStore, Owed};

impl LineStore for PmStore {
    type Id = POffset;

    fn nav(&mut self, p: POffset) -> NavLine {
        self.nav_line(p)
    }

    fn payload(&mut self, p: POffset, nav: &NavLine) -> CellData {
        PmStore::payload(self, p, nav)
    }

    fn set_payload(&mut self, p: POffset, nav: &NavLine, d: &CellData) {
        PmStore::set_payload(self, p, nav, d)
    }

    fn set_children(&mut self, p: POffset, cs: &[ChildPtr; FANOUT], d: &CellData) {
        PmStore::set_children(self, p, cs, d)
    }

    fn alloc(&mut self, o: &Octant) -> Result<POffset, PmError> {
        self.alloc_octant(o)
    }

    fn unlink(&mut self, stamp: u32, p: POffset) {
        self.retire(stamp, p)
    }

    fn exclusive(&self, nav: &NavLine, epoch: u32) -> bool {
        nav.epoch == epoch
    }

    /// The copy-on-write chain (the paper's Figure 4 walk: copy 9→9', copy
    /// u→u', link, repeat to the root), reserved bottom-up until the first
    /// exclusive frame: each shared frame re-pointed at its copy, stamped,
    /// given the link to the copy below and left owing its record
    /// ([`Owed::Record`]); the exclusive frame above, if any, holds the
    /// link to the topmost copy on the frame only. The last copy carries
    /// `payload` if given, every other copy the original's (an interior
    /// one's payload line read first). Each original is retired.
    ///
    /// On [`PmError::Full`] nothing is published: the copies reserved so
    /// far are stored and retired instead of the originals, and no frame
    /// above the failed copy has changed — but the frames below it name
    /// those orphans, so the caller must drop the stack.
    fn copy_chain(
        &mut self,
        frames: &mut [Frame<POffset>],
        epoch: u32,
        mut payload: Option<CellData>,
    ) -> Result<Option<usize>, PmError> {
        let first_shared = frames.iter().rposition(|f| f.nav.epoch == epoch).map_or(0, |i| i + 1);
        debug_assert!(
            frames[..first_shared].iter().all(|f| f.nav.epoch == epoch),
            "exclusive under shared"
        );
        if first_shared == frames.len() {
            return Ok(None);
        }
        let mark = self.mark();
        for i in (first_shared..frames.len()).rev() {
            let data =
                payload.take().unwrap_or_else(|| self.payload(frames[i].off, &frames[i].nav));
            let off = match self.reserve_octant() {
                Ok(off) => off,
                Err(e) => {
                    for frame in frames[i + 1..].iter_mut().rev() {
                        self.settle(frame);
                    }
                    self.roll_back(mark, epoch);
                    return Err(e);
                }
            };
            if let Some(&Frame { slot, off: below, .. }) = frames.get(i + 1) {
                frames[i].nav.children[slot] = ChildPtr::Node(below);
            }
            let frame = &mut frames[i];
            self.retire(frame.nav.epoch, frame.off);
            frame.off = off;
            frame.nav.epoch = epoch;
            frame.owed = Owed::Record(data);
        }
        if let Some(anc) = first_shared.checked_sub(1) {
            // It re-points an occupied slot, so the mask stands.
            let Frame { slot, off: top, .. } = frames[first_shared];
            debug_assert!(
                !frames[anc].nav.children[slot].is_null(),
                "publishing into an empty slot"
            );
            frames[anc].nav.children[slot] = ChildPtr::Node(top);
        }
        Ok(Some(first_shared))
    }

    /// One store: a copy's record as the frame holds it, or an exclusive
    /// octant's links.
    fn settle(&mut self, frame: &mut Frame<POffset>) {
        match std::mem::replace(&mut frame.owed, Owed::Nothing) {
            Owed::Nothing => {}
            Owed::Links => self.set_links(frame.off, &frame.nav),
            Owed::Record(data) => {
                let copy = Octant {
                    children: frame.nav.children,
                    key: OctKey::from_raw(frame.nav.code, frame.nav.level),
                    epoch: frame.nav.epoch,
                    data,
                };
                self.store_octant(frame.off, &copy);
            }
        }
    }

    /// Reserve the [`LineStore::copy_chain`], store each copy, then
    /// publish with one link store in the first exclusive frame — or hand
    /// back the copied root.
    fn make_exclusive(
        &mut self,
        frames: &mut [Frame<POffset>],
        epoch: u32,
        payload: Option<CellData>,
    ) -> Result<Option<POffset>, PmError> {
        let Some(top) = self.copy_chain(frames, epoch, payload)? else {
            return Ok(None);
        };
        for frame in frames[top..].iter_mut().rev() {
            self.settle(frame);
        }
        let (slot, copy) = (frames[top].slot, frames[top].off);
        match top.checked_sub(1) {
            // The one publication write: every copy below is stored.
            Some(anc) => {
                self.set_link(frames[anc].off, slot, ChildPtr::Node(copy));
                Ok(None)
            }
            None => Ok(Some(copy)),
        }
    }

    fn mark(&self) -> (usize, usize) {
        (self.registry.len(), self.retired.len())
    }

    fn roll_back(&mut self, (allocated, listed): (usize, usize), epoch: u32) {
        self.retired.truncate(listed);
        self.retire_since(allocated, epoch);
    }
}

/// Re-point the occupied slot of `key` (not the root) under `root` at the
/// non-null `ptr`: a merged image or a volatile handle. Its parent must be
/// an NVBM octant with something at `key` ([`PmError::NotFound`]
/// otherwise, before anything is copied), and stays interior. Returns the
/// possibly-new root. An NVBM octant the slot held is not retired: every
/// caller hands it to the DRAM subtree the slot now names, as its shadow.
/// A batch of links goes through one [`Cursor::link`]; this is a batch of
/// one.
pub fn replace_slot(
    store: &mut PmStore,
    root: POffset,
    key: OctKey,
    ptr: ChildPtr,
    epoch: u32,
) -> Result<POffset, PmError> {
    let mut cursor = Cursor::new(root);
    cursor.link(store, key, ptr, epoch)?;
    Ok(cursor.root())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::c0::C0Tree;
    use crate::octant::read_octant;
    use crate::octant::Retired;
    use crate::verify::{check_registry, scan_tree};
    use crate::walk::{
        coarsen, descend, locate, own, refine, sweep_leaves, update_data, Locate, Op,
    };
    use crate::{PmConfig, PmOctree};
    use pmoctree_nvbm::{DeviceModel, FailPlan, NvbmArena};

    fn store() -> PmStore {
        PmStore::new(NvbmArena::new(4 << 20, DeviceModel::default()))
    }

    /// Make the octant at `key` exclusive to `epoch`, copying the shared
    /// suffix of its root path: the possibly-new root and the octant.
    fn cow_path(
        store: &mut PmStore,
        root: POffset,
        key: OctKey,
        epoch: u32,
    ) -> Result<(POffset, POffset), PmError> {
        let frames = descend(store, root, key)?;
        own(store, root, frames, epoch).map(|(root, frame)| (root, frame.off))
    }

    /// Build a fresh single-root tree at epoch `e`.
    fn root_tree(s: &mut PmStore, e: u32) -> POffset {
        let o = Octant::leaf(OctKey::root(), e, CellData::default());
        s.alloc_octant(&o).unwrap()
    }

    #[test]
    fn locate_finds_descendants() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
        let k = OctKey::root().child(3);
        match locate(&mut s, root, k) {
            Locate::Found(p) => assert_eq!(read_octant(&mut s, p).key, k),
            other => panic!("{other:?}"),
        }
        // `k` is a leaf: the walk stops on it, one level above the key.
        assert_eq!(locate(&mut s, root, k.child(0)), Locate::Missing(Some(1)));
        assert_eq!(locate(&mut s, root, k.child(0).child(6)), Locate::Missing(Some(1)));
    }

    #[test]
    fn refine_exclusive_keeps_root() {
        let mut s = store();
        let root = root_tree(&mut s, 1);
        // Root is exclusive at epoch 1: refining must not copy it.
        let new_root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
        assert_eq!(new_root, root);
    }

    #[test]
    fn refine_shared_copies_path() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
        let old_root = root;
        // Epoch advances: everything is now shared.
        let new_root = refine(&mut s, root, OctKey::root().child(2), 2).unwrap().0;
        assert_ne!(new_root, old_root, "shared root must be copied");
        // Old version intact: child 2 of the old root is still a leaf.
        match locate(&mut s, old_root, OctKey::root().child(2)) {
            Locate::Found(p) => {
                assert_eq!(s.nav_line(p).mask, 0, "old version mutated!");
            }
            other => panic!("{other:?}"),
        }
        // New version has the refinement.
        match locate(&mut s, new_root, OctKey::root().child(2).child(5)) {
            Locate::Found(p) => {
                assert_eq!(read_octant(&mut s, p).key, OctKey::root().child(2).child(5))
            }
            other => panic!("{other:?}"),
        }
        // Unmodified siblings are shared, not copied.
        let old_c3 = match locate(&mut s, old_root, OctKey::root().child(3)) {
            Locate::Found(p) => p,
            other => panic!("{other:?}"),
        };
        let new_c3 = match locate(&mut s, new_root, OctKey::root().child(3)) {
            Locate::Found(p) => p,
            other => panic!("{other:?}"),
        };
        assert_eq!(old_c3, new_c3, "untouched sibling should be shared");
    }

    #[test]
    fn update_data_cow_preserves_old_value() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
        let k = OctKey::root().child(1);
        root = update_data(&mut s, root, k, &CellData { phi: 7.0, ..Default::default() }, 1)
            .unwrap()
            .0;
        let old_root = root;
        let new_root =
            update_data(&mut s, root, k, &CellData { phi: 9.0, ..Default::default() }, 2)
                .unwrap()
                .0;
        let old = match locate(&mut s, old_root, k) {
            Locate::Found(p) => s.data(p),
            other => panic!("{other:?}"),
        };
        let new = match locate(&mut s, new_root, k) {
            Locate::Found(p) => s.data(p),
            other => panic!("{other:?}"),
        };
        assert_eq!(old.phi, 7.0);
        assert_eq!(new.phi, 9.0);
    }

    #[test]
    fn cow_path_returns_the_copy_it_allocated() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
        root = refine(&mut s, root, OctKey::root().child(4), 1).unwrap().0;
        let key = OctKey::root().child(4).child(6);
        let at = |s: &mut PmStore, root, key| match locate(s, root, key) {
            Locate::Found(p) => p,
            other => panic!("{other:?}"),
        };
        // Already exclusive: nothing is copied, the octant itself comes back.
        let before = s.registry.len();
        let here = at(&mut s, root, key);
        assert_eq!(cow_path(&mut s, root, key, 1), Ok((root, here)));
        assert_eq!(s.registry.len(), before);
        // Everything shared: the whole path is copied, root included.
        let (root2, target) = cow_path(&mut s, root, key, 2).unwrap();
        assert_ne!(root2, root);
        assert_eq!(s.registry.len(), before + 3);
        assert_eq!(target, at(&mut s, root2, key));
        assert_eq!(s.nav_line(target).epoch, 2);
        assert_eq!(at(&mut s, root, key), here, "the old version keeps the original");
        // Exclusive ancestors (root2 and child 4 are at epoch 2 now): one
        // copy, published into the exclusive parent.
        let sibling = OctKey::root().child(4).child(1);
        let (root3, target) = cow_path(&mut s, root2, sibling, 2).unwrap();
        assert_eq!(root3, root2);
        assert_eq!(s.registry.len(), before + 4);
        assert_eq!(target, at(&mut s, root2, sibling));
    }

    #[test]
    fn cow_stores_each_copy_once() {
        // A chain root → child 0 → … → level 6, everything at epoch 1.
        let deep = (0..6).fold(OctKey::root(), |k, _| k.child(0));
        for (d, exclusive_ancestor) in
            [(1u8, false), (3, false), (6, false), (1, true), (3, true), (6, true)]
        {
            let mut s = store();
            let mut root = root_tree(&mut s, 1);
            for l in 0..6 {
                root = refine(&mut s, root, deep.ancestor_at(l), 1).unwrap().0;
            }
            // The `d` shared frames are the whole path (the root's copy
            // is the new root), or hang under a root made exclusive first.
            let target = if exclusive_ancestor {
                root = cow_path(&mut s, root, OctKey::root(), 2).unwrap().0;
                deep.ancestor_at(d)
            } else {
                deep.ancestor_at(d - 1)
            };
            let (lines, allocated) = (s.arena.stats.nvbm.write_lines, s.registry.len());
            s.arena.set_fail_plan(FailPlan::count());
            let (new_root, _) = cow_path(&mut s, root, target, 2).unwrap();
            let stores = s.arena.take_fail_plan().unwrap().opportunities();
            // One record write per copy — two lines, or one for the leaf
            // at the bottom of the chain — then the one link store that
            // publishes them, or nothing: the new root does.
            let publication = u64::from(exclusive_ancestor);
            let leaf = u64::from(target == deep);
            assert_eq!(
                (s.registry.len() - allocated, s.arena.stats.nvbm.write_lines - lines, stores),
                (d as usize, 2 * d as u64 - leaf + publication, d as u64 + publication),
                "d = {d}, exclusive ancestor: {exclusive_ancestor}"
            );
            assert_eq!(new_root == root, exclusive_ancestor);
        }
    }

    #[test]
    fn updating_a_shared_leaf_costs_one_copy_and_one_link() {
        /// (lines read, lines written, stores issued) by `op`.
        fn cost(s: &mut PmStore, op: impl FnOnce(&mut PmStore)) -> (u64, u64, u64) {
            let (reads, writes) = (s.arena.stats.nvbm.read_lines, s.arena.stats.nvbm.write_lines);
            s.arena.set_fail_plan(FailPlan::count());
            op(s);
            let stores = s.arena.take_fail_plan().unwrap().opportunities();
            let stats = &s.arena.stats.nvbm;
            (stats.read_lines - reads, stats.write_lines - writes, stores)
        }
        let key = OctKey::root().child(3);
        for sweep in [false, true] {
            // Eight leaves of epoch 1 under a root already exclusive to 2.
            let mut s = store();
            let mut root = root_tree(&mut s, 1);
            root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
            root = cow_path(&mut s, root, OctKey::root(), 2).unwrap().0;
            let allocated = s.registry.len();
            let update = |s: &mut PmStore, d: CellData| {
                let new_root = if sweep {
                    sweep_leaves(s, root, 2, &mut |k, _| (k == key).then_some(d), &mut |_| {})
                } else {
                    update_data(s, root, key, &d, 2).map(|r| r.0)
                };
                assert_eq!(new_root, Ok(root));
            };
            // What the walk reads whether or not it updates: the sweep a
            // navigation line per octant, payloads included, the per-op
            // form the two navigation lines of its descent.
            let walk = if sweep { 1 + 8 } else { 2 };
            // Shared: the record store (one line, the new payload on
            // board) and one store into the root's link line — the per-op
            // form's link store that publishes the copy, the sweep's body
            // store as it leaves the root.
            let d = CellData { phi: 4.5, work: 1.0, ..Default::default() };
            assert_eq!(cost(&mut s, |s| update(s, d)), (walk, 2, 2), "sweep: {sweep}");
            assert_eq!(s.registry.len(), allocated + 1);
            let copy = *s.registry.last().unwrap();
            assert_eq!(locate(&mut s, root, key), Locate::Found(copy));
            assert_eq!(read_octant(&mut s, copy), Octant::leaf(key, 2, d));
            // Exclusive now: the payload store and nothing else.
            let d = CellData { phi: -1.0, ..d };
            assert_eq!(cost(&mut s, |s| update(s, d)), (walk, 1, 1), "sweep: {sweep}");
            assert_eq!(s.registry.len(), allocated + 1);
            assert_eq!(read_octant(&mut s, copy), Octant::leaf(key, 2, d));
        }
    }

    #[test]
    fn a_sweep_stores_each_copy_once() {
        // Eight leaves of epoch 1 under a parent of epoch 1, under a root
        // already exclusive to 2: the sweep rewrites all eight.
        let family = OctKey::root().child(5);
        let build = || {
            let mut s = store();
            let mut root = root_tree(&mut s, 1);
            root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
            root = refine(&mut s, root, family, 1).unwrap().0;
            root = cow_path(&mut s, root, OctKey::root(), 2).unwrap().0;
            (s, root)
        };
        let new =
            |k: OctKey| CellData { phi: k.sibling_index() as f64 + 0.5, ..Default::default() };
        /// (lines written, crash opportunities) by `op` and the flush
        /// that puts the result on the media, and the flushed media.
        fn flushed(s: &mut PmStore, op: impl FnOnce(&mut PmStore)) -> ((u64, u64), Vec<u8>) {
            let lines = s.arena.stats.nvbm.write_lines;
            s.arena.set_fail_plan(FailPlan::count());
            op(s);
            let image = flushed_media(s);
            let stores = s.arena.take_fail_plan().unwrap().opportunities();
            ((s.arena.stats.nvbm.write_lines - lines, stores), image)
        }
        let (mut swept, root) = build();
        let allocated = swept.registry.len();
        let (cost, swept_image) = flushed(&mut swept, |s| {
            let f = &mut |k: OctKey, _: &CellData| (k.parent() == Some(family)).then(|| new(k));
            assert_eq!(sweep_leaves(s, root, 2, f, &mut |_| {}), Ok(root));
        });
        // Eight leaf records of a line each, the parent's copy stored once
        // with all eight new links on board (two lines), the root's links
        // in one body store: 8 + 2 + 1 lines and ten stores — and the
        // flush.
        assert_eq!(cost, (8 + 2 + 1, 10 + 1));
        assert_eq!(swept.registry.len() - allocated, 8 + 1);
        // A per-op loop over the same leaves reserves and retires the same
        // octants and leaves the same bytes; it stores the parent copy's
        // link line once per later leaf on the way.
        let (mut looped, root) = build();
        let (cost, looped_image) = flushed(&mut looped, |s| {
            for k in family.children() {
                assert_eq!(update_data(s, root, k, &new(k), 2).map(|r| r.0), Ok(root));
            }
        });
        assert_eq!(cost, (8 + 2 + 1 + 7, 10 + 7 + 1));
        assert_eq!((&looped.registry, &looped.retired), (&swept.registry, &swept.retired));
        assert!(looped_image == swept_image, "the flushed media differ");
    }

    #[test]
    fn full_mid_sweep_publishes_nothing_of_the_failing_leaf() {
        // Fill a small device breadth-first at epoch 1, then sweep it at
        // epoch 2 rewriting every leaf: the copies cannot fit.
        let mut s = PmStore::new(NvbmArena::new(64 << 10, DeviceModel::default()));
        let mut root = root_tree(&mut s, 1);
        let mut frontier = std::collections::VecDeque::from([OctKey::root()]);
        while let Some(k) = frontier.pop_front() {
            match refine(&mut s, root, k, 1).map(|r| r.0) {
                Ok(r) => root = r,
                Err(PmError::Full(_)) => break,
                Err(other) => panic!("unexpected error: {other}"),
            }
            frontier.extend(k.children());
        }
        fn leaves_of(s: &mut PmStore, root: POffset) -> Vec<(OctKey, CellData)> {
            let mut out = Vec::new();
            let f = &mut |k, d: &CellData| {
                out.push((k, *d));
                None
            };
            sweep_leaves(s, root, 2, f, &mut |_| {}).unwrap();
            out
        }
        let before = leaves_of(&mut s, root);
        assert!(before.len() > 64, "device too small to be interesting");
        let mut updated = 0usize;
        let f = &mut |_, d: &CellData| {
            updated += 1;
            Some(CellData { phi: d.phi + 1.0, ..*d })
        };
        let err = sweep_leaves(&mut s, root, 2, f, &mut |_| {}).unwrap_err();
        assert!(matches!(err, PmError::Full(_)), "{err}");
        assert!(updated < before.len(), "the sweep must stop at the failing leaf");
        // The pre-sweep root is shared, so nothing under it was written.
        assert_eq!(leaves_of(&mut s, root), before);

        // An exclusive root: the device fills partway through a family.
        // Two families of epoch 2 leaves under the root, made exclusive
        // to 3 by a payload write, on a device with `room` octants left:
        // 4 fail the first family's fourth leaf, with its parent's copy
        // still owed; 10 the second family's first, between its leaf's
        // copy and its parent's.
        let (a, b) = (OctKey::root().child(2), OctKey::root().child(5));
        for (room, kept, seen_by_then) in [(4usize, 3usize, 6usize), (10, 8, 13)] {
            let cfg = PmConfig {
                seed_c0: false,
                c0_capacity_octants: 0,
                dynamic_transform: false,
                ..PmConfig::default()
            };
            let mut t = PmOctree::create(NvbmArena::new(1 << 20, DeviceModel::default()), cfg);
            for k in [OctKey::root(), a, b] {
                t.refine(k).unwrap();
            }
            t.persist();
            t.set_data(OctKey::root(), CellData { vof: 1.0, ..Default::default() }).unwrap();
            let (root, epoch) = (t.current_root, t.epoch);
            let before = leaves_of(&mut t.store, root);
            // Fill the device, then give back `room` octants.
            let mut filler = Vec::new();
            while let Ok(p) = t.store.reserve_octant() {
                filler.push(p);
            }
            for p in filler.split_off(filler.len() - room).into_iter().rev() {
                assert_eq!(t.store.registry.pop(), Some(p));
                t.store.free_octant(p);
            }
            for &p in &filler {
                t.store.retire(epoch, p);
            }
            let rewrite = |k: OctKey| {
                let parent = k.parent().unwrap();
                (parent == a || parent == b).then(|| CellData { phi: -2.0, ..Default::default() })
            };
            let mut seen = 0usize;
            let f = &mut |k, _: &CellData| {
                seen += 1;
                rewrite(k)
            };
            let err = sweep_leaves(&mut t.store, root, epoch, f, &mut |_| {}).unwrap_err();
            assert!(matches!(err, PmError::Full(_)), "{err}");
            assert_eq!(seen, seen_by_then, "the sweep stops at the failing leaf");
            // The leaves before the failing one keep their updates; it and
            // the ones after it do not.
            let mut updated = 0;
            let want: Vec<(OctKey, CellData)> = before
                .iter()
                .map(|&(k, d)| match rewrite(k) {
                    Some(new) if updated < kept => {
                        updated += 1;
                        (k, new)
                    }
                    _ => (k, d),
                })
                .collect();
            assert_eq!(leaves_of(&mut t.store, root), want, "room {room}");
            // Every reserved record is stored: the registry is the working
            // version plus the retirement list (a failed chain's copies
            // among them), and the flushed media alone walks to the tree.
            check_registry(&mut t).unwrap();
            let mut flushed = PmStore::new(NvbmArena::from_media(
                t.store.arena.clone_media(),
                DeviceModel::default(),
            ));
            assert_eq!(scan_tree(&mut flushed, root).unwrap().leaves.len(), want.len());
            assert_eq!(leaves_of(&mut flushed, root), want, "room {room}");
            if room == 10 {
                let orphan = *t.store.registry.last().unwrap();
                let d = rewrite(b.child(0)).unwrap();
                assert_eq!(read_octant(&mut t.store, orphan), Octant::leaf(b.child(0), epoch, d));
            }
        }
    }

    /// The 128 bytes of each record, as the CPU sees them.
    fn images(s: &mut PmStore, octants: &[POffset]) -> Vec<[u8; 128]> {
        octants
            .iter()
            .map(|p| {
                let mut b = [0u8; 128];
                s.arena.read(p.0, &mut b);
                b
            })
            .collect()
    }

    fn nvbm_children(s: &mut PmStore, p: POffset) -> Vec<POffset> {
        let kids = s.nav_line(p).children;
        kids.iter()
            .map(|c| match *c {
                ChildPtr::Node(p) => p,
                other => panic!("{other:?}"),
            })
            .collect()
    }

    #[test]
    fn coarsen_unlinks_without_writing_shared_children() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
        root = refine(&mut s, root, OctKey::root().child(0), 1).unwrap().0;
        let old_root = root;
        let Locate::Found(old_c0) = locate(&mut s, old_root, OctKey::root().child(0)) else {
            panic!()
        };
        let grandchildren = nvbm_children(&mut s, old_c0);
        let before = images(&mut s, &grandchildren);
        let new_root = coarsen(&mut s, root, OctKey::root().child(0), 2).unwrap().0;
        // New version: child 0 is a leaf again.
        match locate(&mut s, new_root, OctKey::root().child(0)) {
            Locate::Found(p) => assert_eq!(s.nav_line(p).mask, 0),
            other => panic!("{other:?}"),
        }
        // Old version: grandchildren still reachable, not a byte changed.
        assert_eq!(
            locate(&mut s, old_root, OctKey::root().child(0).child(4)),
            Locate::Found(grandchildren[4])
        );
        assert_eq!(images(&mut s, &grandchildren), before);
    }

    #[test]
    fn coarsen_stores_nothing_in_the_children_it_unlinks() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
        // Children created at epoch 1; coarsen at the SAME epoch: they are
        // exclusive, and garbage the moment the root's links are gone.
        let children = nvbm_children(&mut s, root);
        let before = images(&mut s, &children);
        let (reads, writes) = (s.arena.stats.nvbm.read_lines, s.arena.stats.nvbm.write_lines);
        s.arena.set_fail_plan(FailPlan::count());
        assert_eq!(coarsen(&mut s, root, OctKey::root(), 1).map(|r| r.0), Ok(root));
        let stores = s.arena.take_fail_plan().unwrap().opportunities();
        // Two stores, one line each: the root's mean over its links, then
        // its mask. A flag per child was eight more, and eight more reads.
        // Read: the root, then the one line of every child, its payload
        // included.
        let stats = &s.arena.stats.nvbm;
        assert_eq!((stats.read_lines - reads, stats.write_lines - writes, stores), (9, 2, 2));
        assert_eq!(images(&mut s, &children), before, "an unlinked child was written");
        assert_eq!(s.nav_line(root).mask, 0);
        assert_eq!(crate::gc::collect(&mut s).freed, 8);
    }

    #[test]
    fn coarsen_refuses_across_dram_boundary_without_mutating() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
        root =
            replace_slot(&mut s, root, OctKey::root().child(3), ChildPtr::Volatile(9), 1).unwrap();
        let err = coarsen(&mut s, root, OctKey::root(), 1).map(|r| r.0).unwrap_err();
        assert!(matches!(err, PmError::NotCoarsenable(_)), "{err}");
        // The refusal happened before any unlink: the volatile handle and
        // the NVBM siblings are all still in place.
        assert_eq!(locate(&mut s, root, OctKey::root().child(3)), Locate::Volatile(9));
        assert!(matches!(locate(&mut s, root, OctKey::root().child(4)), Locate::Found(_)));
    }

    #[test]
    fn descend_outside_the_root_is_not_found() {
        // Release builds too: this used to be a debug_assert and then a
        // walk down whatever links the wrong subtree happened to hold.
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
        root = refine(&mut s, root, OctKey::root().child(2), 1).unwrap().0;
        root = refine(&mut s, root, OctKey::root().child(5), 1).unwrap().0;
        root =
            replace_slot(&mut s, root, OctKey::root().child(6), ChildPtr::Volatile(4), 1).unwrap();
        let Locate::Found(sub) = locate(&mut s, root, OctKey::root().child(2)) else { panic!() };
        let sibling = OctKey::root().child(5);
        let (writes, allocated) = (s.arena.stats.nvbm.write_lines, s.registry.len());
        let not_found =
            |r: Result<POffset, PmError>| assert!(matches!(r, Err(PmError::NotFound(_))));
        // A sibling subtree's keys, under the subtree at child 2...
        assert_eq!(locate(&mut s, sub, sibling.child(1)), Locate::Missing(None));
        not_found(cow_path(&mut s, sub, sibling.child(1), 2).map(|(root, _)| root));
        not_found(replace_slot(&mut s, sub, sibling.child(1), ChildPtr::Volatile(9), 2));
        not_found(update_data(&mut s, sub, sibling, &CellData::default(), 2).map(|r| r.0));
        // ...an ancestor of the walk's root...
        not_found(refine(&mut s, sub, OctKey::root(), 2).map(|r| r.0));
        // ...a path that ends in an empty slot, or in a volatile handle.
        not_found(coarsen(&mut s, root, OctKey::root().child(2).child(3).child(0), 2).map(|r| r.0));
        not_found(cow_path(&mut s, root, OctKey::root().child(6), 2).map(|(root, _)| root));
        let deep = OctKey::root().child(6).child(1).child(1);
        not_found(replace_slot(&mut s, root, deep, ChildPtr::Volatile(9), 2));
        assert_eq!((s.arena.stats.nvbm.write_lines, s.registry.len()), (writes, allocated));
    }

    #[test]
    fn a_cursor_reads_a_shared_prefix_once() {
        // root → child 3 → child 5, refined: eight level-3 keys share a
        // two-line path; then the leaf child 6, a key below it, and that
        // key again.
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        let mid = OctKey::root().child(3).child(5);
        for k in [OctKey::root(), OctKey::root().child(3), mid] {
            root = refine(&mut s, root, k, 1).unwrap().0;
        }
        let below = OctKey::root().child(6).child(2);
        let keys: Vec<OctKey> =
            mid.children().chain([OctKey::root().child(6), below, below]).collect();
        let reads = |s: &PmStore| s.arena.stats.nvbm.read_lines;
        let before = reads(&s);
        let per_key: Vec<Locate> = keys.iter().map(|&k| locate(&mut s, root, k)).collect();
        let per_key_reads = reads(&s) - before;
        let before = reads(&s);
        let mut cursor = Cursor::new(root);
        let batched: Vec<Locate> = keys.iter().map(|&k| cursor.locate(&mut s, k)).collect();
        assert_eq!(batched, per_key);
        // Per key, one line per level above the key: 8 × 3 + 1 + 2 + 2.
        // Batched, the shared path once and then child 6's line once.
        assert_eq!((per_key_reads, reads(&s) - before), (29, 4));
    }

    /// Run `op` and count the lines it reads before its first store —
    /// off the virtual clock at that store's crash opportunity, where
    /// only reads have been charged — or `None` when it stores nothing.
    fn reads_before_first_store<R>(
        s: &mut PmStore,
        op: impl FnOnce(&mut PmStore) -> R,
    ) -> (R, Option<u64>) {
        use std::sync::{Arc, Mutex};
        let clock = s.arena.clock.clone();
        let t0 = clock.now_ns();
        let first = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&first);
        s.arena.set_fail_plan(FailPlan::with_hook(Box::new(move |_| {
            sink.lock().unwrap().get_or_insert(clock.now_ns() - t0);
        })));
        let r = op(s);
        s.arena.take_fail_plan();
        let read_ns = DeviceModel::default().nvbm.read_ns;
        let lines = first.lock().unwrap().map(|ns| ns / read_ns);
        (r, lines)
    }

    /// What a copy adds to an op's walk (`walk::tests::an_op_walks_its_path_once`
    /// counts the walk in both tiers), and that a refusal copies nothing.
    #[test]
    fn a_copy_reads_its_chain_before_its_first_store() {
        fn apply(s: &mut PmStore, root: POffset, op: Op, epoch: u32) -> Result<POffset, PmError> {
            crate::walk::apply(s, root, op, epoch).map(|r| r.0)
        }
        let d25 = CellData { phi: 2.5, ..Default::default() };
        // A chain root → child 3 → … → level 5, built at epoch 1. Seen
        // from epoch 2 every octant is shared, so an op's first store is
        // the copy of its target, and what it read before that is its
        // walk and what its copies carry. Copies never touch `root`'s
        // tree: every op meets it whole.
        let at = |d: u8| (0..d).fold(OctKey::root(), |k, _| k.child(3));
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        for d in 0..5 {
            root = refine(&mut s, root, at(d), 1).unwrap().0;
        }
        for d in 0..=5 {
            let ops = [
                (d == 5).then_some(Op::Refine(at(d))),
                (d == 4).then_some(Op::Coarsen(at(d))),
                Some(Op::SetData(at(d), d25)),
            ];
            for op in ops.into_iter().flatten() {
                let (new_root, lines) = reads_before_first_store(&mut s, |s| apply(s, root, op, 2));
                // d + 1 navigation lines, root to target; a coarsen then
                // reads its 8 children. The chain is reserved whole before
                // its first copy is stored, so the payload line of every
                // interior octant it copies with no payload to carry — the
                // d ancestors, and a coarsen's target — is read first too.
                let want = match op {
                    Op::Coarsen(_) => d as u64 + 1 + 8 + 1 + d as u64,
                    _ => d as u64 + 1 + d as u64,
                };
                assert_eq!((lines, new_root.unwrap() != root), (Some(want), true), "{op:?} at {d}");
            }
        }
        // Refusals come off the same walk, before the first copy: nothing
        // is stored and nothing allocated, whether the target is shared
        // (epoch 2) or exclusive (epoch 1).
        let (writes, allocated) = (s.arena.stats.nvbm.write_lines, s.registry.len());
        for (op, epoch, want) in [
            (Op::Refine(at(5).child(1)), 2, "not-found"),
            (Op::SetData(at(2).child(0).child(0), d25), 2, "not-found"),
            (Op::Coarsen(at(4).child(6).child(6)), 2, "not-found"),
            (Op::Refine(at(2)), 2, "not-a-leaf"),
            (Op::Coarsen(at(5)), 2, "not-a-leaf"),
            (Op::Coarsen(at(3)), 1, "not-coarsenable"),
            (Op::Coarsen(at(3)), 2, "not-coarsenable"),
        ] {
            let nvbm = |s: &PmStore| (s.arena.stats.nvbm.read_lines, s.arena.stats.nvbm.bytes_read);
            let (lines0, bytes0) = nvbm(&s);
            let (got, stored) = reads_before_first_store(&mut s, |s| apply(s, root, op, epoch));
            let got = match got {
                Err(PmError::NotFound(_)) => "not-found",
                Err(PmError::NotALeaf(_)) => "not-a-leaf",
                Err(PmError::NotCoarsenable(_)) => "not-coarsenable",
                other => panic!("{op:?}: {other:?}"),
            };
            // Nothing stored, so every read is the walk's: navigation
            // lines only (64 bytes each; a payload read is 32).
            let (lines, bytes) = nvbm(&s);
            let (lines, bytes) = (lines - lines0, bytes - bytes0);
            assert_eq!((got, stored, bytes), (want, None, 64 * lines), "{op:?} at epoch {epoch}");
            let level = op.key().level() as u64;
            assert!(lines <= level + 9, "{op:?}: {lines} reads");
        }
        assert_eq!((s.arena.stats.nvbm.write_lines, s.registry.len()), (writes, allocated));
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
                match refine(&mut s, root, k, 1).map(|r| r.0) {
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
            Locate::Found(p) => assert_eq!(s.nav_line(p).mask, 0, "partial refine was published"),
            other => panic!("{other:?}"),
        }
        // Every octant reachable from the root still decodes cleanly.
        let count = crate::gc::mark(&mut s, &[root], 1).live.len();
        assert!(count >= 9, "tree collapsed after failed refine: {count} octants");
    }

    /// A C0 tree at `key` with the nodes at `refined` (relative paths)
    /// refined, in order.
    fn c0_tree(key: OctKey, refined: &[&[usize]]) -> C0Tree {
        let mut t = C0Tree::new(key, CellData::default(), &mut ());
        for path in refined {
            let k = path.iter().fold(key, |k, &i| k.child(i));
            t.apply(Op::Refine(k), &mut ()).unwrap();
        }
        t
    }

    fn set(t: &mut C0Tree, key: OctKey, phi: f64) {
        t.apply(Op::SetData(key, CellData { phi, ..Default::default() }), &mut ()).unwrap();
    }

    #[test]
    fn merge_subtree_shares_unchanged_octants() {
        let mut s = store();
        // Build a shadow subtree in NVBM: one node + 8 leaves at epoch 1.
        let sub_key = OctKey::root().child(6);
        let mut t = c0_tree(sub_key, &[&[]]);
        let (shadow, _) = t.merge(&mut s, None, 1).unwrap();
        // Re-merge identical content at epoch 2 against the shadow.
        let merged = t.merge(&mut s, Some(shadow), 2).unwrap();
        assert_eq!(merged, (shadow, vec![]), "identical subtree must be fully shared");
        // Change one leaf's data: only the path to it should be new, and
        // the two shadow octants it replaces are what the image drops.
        set(&mut t, sub_key.child(2), 1.5);
        let alloc_before = s.registry.len();
        let (merged2, dropped) = t.merge(&mut s, Some(shadow), 2).unwrap();
        assert_ne!(merged2, shadow);
        assert_eq!(s.registry.len() - alloc_before, 2, "new leaf + new subtree root only");
        let old_leaf = s.registry[alloc_before - 7];
        let dropped_octant = |off| Retired { stamp: 1, off, whole: false };
        assert_eq!(dropped, vec![dropped_octant(old_leaf), dropped_octant(shadow)]);
        let census = crate::gc::mark(&mut s, &[merged2], 2);
        assert_eq!(census.live.len(), 9);
        assert_eq!(census.shared, 7);
    }

    #[test]
    fn merge_reads_each_shadow_octant_once() {
        let mut s = store();
        // A shadow of n = 1 + 8 + 16 octants: two of the children refined.
        let sub_key = OctKey::root().child(6);
        let mut t = c0_tree(sub_key, &[&[], &[2], &[5]]);
        t.sweep(&mut (), |k, d| Some(CellData { phi: k.raw() as f64, ..*d }));
        let n = t.octant_count() as u64;
        assert_eq!(n, 25);
        let (shadow, _) = t.merge(&mut s, None, 1).unwrap();
        let reads = |s: &PmStore| s.arena.stats.nvbm.read_lines;
        // Fully shared: the navigation line of every shadow octant — a
        // leaf's payload with it — and the payload line of the 3 interior
        // ones, each once, and not a store.
        let (before, writes) = (reads(&s), s.arena.stats.nvbm.write_lines);
        assert_eq!(t.merge(&mut s, Some(shadow), 2), Ok((shadow, vec![])));
        assert_eq!(reads(&s) - before, n + 3);
        assert_eq!(s.arena.stats.nvbm.write_lines, writes);
        // One payload differs: its ancestors' payload lines are not read
        // (a changed child already rules sharing out), child 5's is.
        set(&mut t, sub_key.child(2).child(0), -1.0); // depth 2 in the subtree
        let before = reads(&s);
        let (merged, _) = t.merge(&mut s, Some(shadow), 2).unwrap();
        assert_ne!(merged, shadow);
        assert_eq!(reads(&s) - before, n + 1);
    }

    #[test]
    fn merge_subtree_structure_change_is_detected() {
        let mut s = store();
        let sub_key = OctKey::root().child(1);
        let (shadow, _) = c0_tree(sub_key, &[&[]]).merge(&mut s, None, 1).unwrap();
        // Refine child 0 in the new version.
        let mut deep = c0_tree(sub_key, &[&[], &[0]]);
        let (merged, dropped) = deep.merge(&mut s, Some(shadow), 2).unwrap();
        assert_ne!(merged, shadow);
        let census = crate::gc::mark(&mut s, &[merged], 2);
        assert_eq!(census.live.len(), 17);
        assert_eq!(census.shared, 7, "the 7 untouched leaves are shared");
        assert_eq!(dropped.len(), 2, "the refined leaf and the shadow root");
        // Coarsened back to one leaf: the whole 17-octant image is
        // dropped. At the image's own epoch the merge reads every octant
        // of it to list each with its stamp.
        let reads = |s: &PmStore| s.arena.stats.nvbm.read_lines;
        let before = reads(&s);
        let mut leaf = c0_tree(sub_key, &[]);
        let (_, dropped) = leaf.merge(&mut s, Some(merged), 2).unwrap();
        assert_eq!(reads(&s) - before, 17);
        assert!(dropped.iter().all(|e| !e.whole));
        let mut dropped: Vec<POffset> = dropped.into_iter().map(|e| e.off).collect();
        let mut image: Vec<POffset> = census.live.iter().copied().collect();
        dropped.sort_unstable();
        image.sort_unstable();
        assert_eq!(dropped, image);
        // A later epoch reads the shadow root alone and lists its 8 child
        // subtrees whole (older than the merge, and so all of them); the
        // persist's collection walks them, one line per octant.
        let before = reads(&s);
        let (_, dropped) = leaf.merge(&mut s, Some(merged), 3).unwrap();
        assert_eq!(reads(&s) - before, 1);
        assert_eq!(dropped.iter().filter(|e| e.whole).count(), 8);
        assert_eq!(dropped.last(), Some(&Retired { stamp: 2, off: merged, whole: false }));
        s.retired.extend(dropped);
        let before = reads(&s);
        assert_eq!(crate::gc::collect(&mut s).freed, 17);
        assert_eq!(reads(&s) - before, 16);
        assert!(census.live.iter().all(|p| !s.registry.contains(p)));
    }

    #[test]
    fn replace_slot_attaches_volatile_handle() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
        let k = OctKey::root().child(5);
        let root2 = replace_slot(&mut s, root, k, ChildPtr::Volatile(42), 2).unwrap();
        assert_eq!(locate(&mut s, root2, k), Locate::Volatile(42));
        // The old version still sees the NVBM child.
        assert!(matches!(locate(&mut s, root, k), Locate::Found(_)));
        // Only an occupied slot is re-pointed, and only at something: a
        // slot under a leaf, or a null pointer, is refused before a copy.
        let (writes, allocated) = (s.arena.stats.nvbm.write_lines, s.registry.len());
        let under_leaf =
            replace_slot(&mut s, root2, OctKey::root().child(1).child(0), ChildPtr::Volatile(7), 3);
        assert!(matches!(under_leaf, Err(PmError::NotFound(_))), "{under_leaf:?}");
        let emptied = replace_slot(&mut s, root2, k, ChildPtr::Null, 3);
        assert!(matches!(emptied, Err(PmError::Corrupt(_))), "{emptied:?}");
        assert_eq!((s.arena.stats.nvbm.write_lines, s.registry.len()), (writes, allocated));
    }

    /// The flushed media, byte for byte.
    fn flushed_media(s: &mut PmStore) -> Vec<u8> {
        s.arena.flush_all();
        let media = s.arena.clone_media();
        let mut image = vec![0u8; media.size()];
        media.read_at(0, &mut image);
        image
    }

    /// A batch of links through one cursor stores what per-key
    /// [`replace_slot`] calls store, and reads each path line once.
    #[test]
    fn a_cursor_links_a_batch_as_per_key_links_do() {
        let (two, five, six) =
            (OctKey::root().child(2), OctKey::root().child(5), OctKey::root().child(6));
        // Epoch 1: the root, 2, 2.3, 5 and 6 refined. A merged C0 image of
        // 6 (6 and 6.1 refined) at epoch 2, not linked yet.
        let build = || {
            let mut s = store();
            let mut root = root_tree(&mut s, 1);
            for k in [OctKey::root(), two, two.child(3), five, six] {
                root = refine(&mut s, root, k, 1).unwrap().0;
            }
            let image = c0_tree(six, &[&[], &[1]]).merge(&mut s, None, 2).unwrap().0;
            (s, root, image)
        };
        let (mut per_key, root, image) = build();
        let (mut batched, _, _) = build();
        // At epoch 2: a shared root and path (2.3's slot 1), a sibling slot,
        // a link below the path the first copied (2's slot 7), a sibling
        // parent (5), then the image at 6 and a link through it.
        let links = [
            (two.child(3).child(1), ChildPtr::Volatile(1)),
            (two.child(3).child(6), ChildPtr::Volatile(2)),
            (two.child(7), ChildPtr::Volatile(3)),
            (five.child(0), ChildPtr::Volatile(4)),
            (six, ChildPtr::Node(image)),
            (six.child(1).child(4), ChildPtr::Volatile(5)),
        ];
        let nvbm = |s: &PmStore| (s.arena.stats.nvbm.read_lines, s.arena.stats.nvbm.write_lines);
        let since = |now: (u64, u64), then: (u64, u64)| (now.0 - then.0, now.1 - then.1);
        let (allocated, before) = (per_key.registry.len(), nvbm(&per_key));
        let mut r = root;
        for &(k, ptr) in &links {
            r = replace_slot(&mut per_key, r, k, ptr, 2).unwrap();
        }
        let per_key_cost = since(nvbm(&per_key), before);
        let before = nvbm(&batched);
        let mut cursor = Cursor::new(root);
        for &(k, ptr) in &links {
            cursor.link(&mut batched, k, ptr, 2).unwrap();
        }
        let batched_cost = since(nvbm(&batched), before);
        assert_eq!(cursor.root(), r);
        assert_ne!(r, root, "the shared root was copied");
        // The copies: the root, 2, 2.3 and 5, each reading its payload
        // line. Per key, every link walks its parent's whole path; batched,
        // the distinct path lines — root, 2, 2.3, 5, the image and its
        // 6.1 — are read once.
        let copies = per_key.registry.len() - allocated;
        assert_eq!(copies, 4);
        assert_eq!(per_key_cost.0, 3 + 3 + 2 + 2 + 1 + 3 + copies as u64);
        assert_eq!(batched_cost, (6 + copies as u64, per_key_cost.1));
        assert_eq!((&batched.registry, &batched.retired), (&per_key.registry, &per_key.retired));
        assert!(flushed_media(&mut batched) == flushed_media(&mut per_key), "the media differ");
        assert_eq!(locate(&mut batched, r, six.child(1).child(4)), Locate::Volatile(5));
        // Refusals store nothing and drop the frames: the next link walks
        // from the root and still lands as a per-key one.
        let writes = (batched.arena.stats.nvbm.write_lines, batched.registry.len());
        for (k, ptr, want) in [
            (five.child(4).child(0), ChildPtr::Volatile(9), "not-found"),
            (OctKey::root().child(1).child(0).child(0), ChildPtr::Volatile(9), "not-found"),
            (six.child(1).child(4).child(0), ChildPtr::Volatile(9), "not-found"),
            (five.child(4), ChildPtr::Null, "corrupt"),
            (OctKey::root(), ChildPtr::Volatile(9), "corrupt"),
        ] {
            let got = match cursor.link(&mut batched, k, ptr, 2) {
                Err(PmError::NotFound(_)) => "not-found",
                Err(PmError::Corrupt(_)) => "corrupt",
                other => panic!("{k:?}: {other:?}"),
            };
            assert_eq!(got, want, "{k:?}");
        }
        assert_eq!((batched.arena.stats.nvbm.write_lines, batched.registry.len()), writes);
        r = replace_slot(&mut per_key, r, five.child(7), ChildPtr::Volatile(6), 2).unwrap();
        cursor.link(&mut batched, five.child(7), ChildPtr::Volatile(6), 2).unwrap();
        assert_eq!(cursor.root(), r);
        assert!(flushed_media(&mut batched) == flushed_media(&mut per_key), "the media differ");
    }

    #[test]
    fn sweep_visits_every_leaf_and_reports_volatile() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap().0;
        for (slot, id) in [(2, 7), (5, 9)] {
            let k = OctKey::root().child(slot);
            root = replace_slot(&mut s, root, k, ChildPtr::Volatile(id), 1).unwrap();
        }
        let mut keys = Vec::new();
        let mut vols = Vec::new();
        let f = &mut |k, _: &CellData| {
            keys.push(k);
            None
        };
        assert_eq!(sweep_leaves(&mut s, root, 1, f, &mut |id| vols.push(id)), Ok(root));
        let expect: Vec<OctKey> =
            [0, 1, 3, 4, 6, 7].iter().map(|&i| OctKey::root().child(i)).collect();
        assert_eq!(keys, expect, "the 6 NVBM leaves, pre-order");
        assert_eq!(vols, vec![9, 7], "highest slot first");
    }
}
