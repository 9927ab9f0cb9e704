//! One walker over two line stores.
//!
//! The C0 and C1 tiers hold one record image (layout v3,
//! [`crate::octant`]), so the root walk ([`Cursor`]), the pre-order
//! [`visit`], the leaf sweep, refine, coarsen and the tier-to-tier
//! [`copy`] are written once, over [`LineStore`]. A walker reads one
//! navigation line per octant it stands on and keeps it in a [`Frame`].
//!
//! The write policy is the only difference between the tiers: C0 is
//! exclusive everywhere and writes in place (the trait's defaults); C1
//! copies what `V_{i-1}` shares into the frames
//! ([`LineStore::copy_chain`]), which owe the copies to the media until
//! [`LineStore::settle`] stores them.

use pmoctree_morton::OctKey;
use pmoctree_nvbm::POffset;

use crate::api::PmError;
use crate::octant::{CellData, ChildPtr, NavLine, Octant, PmStore, Retired, FANOUT};

/// Octant-granular access to one tier; each access charges that tier.
pub(crate) trait LineStore {
    /// Where a record lives: a slab id in C0, a media offset in C1.
    type Id: Copy + Eq + std::fmt::Debug;

    /// The navigation line of `id`: one line read.
    fn nav(&mut self, id: Self::Id) -> NavLine<Self::Id>;
    /// The payload of `id`: a leaf's came with `nav`, an interior
    /// octant's is one more line.
    fn payload(&mut self, id: Self::Id, nav: &NavLine<Self::Id>) -> CellData;
    /// Overwrite the payload of the exclusive `id` in place.
    fn set_payload(&mut self, id: Self::Id, nav: &NavLine<Self::Id>, d: &CellData);
    /// Replace the links of the exclusive `id` with `cs`, `d` its payload:
    /// a leaf turns interior (a link in `cs`) or back (none).
    fn set_children(&mut self, id: Self::Id, cs: &[ChildPtr<Self::Id>; FANOUT], d: &CellData);
    /// Allocate a record and store `o` in it.
    fn alloc(&mut self, o: &Octant<Self::Id>) -> Result<Self::Id, PmError>;
    /// `id`, stamped `stamp`, left the working version: C0 frees it, C1
    /// retires it.
    fn unlink(&mut self, stamp: u32, id: Self::Id);

    /// May the octant read as `nav` be written in place at `epoch`?
    fn exclusive(&self, _nav: &NavLine<Self::Id>, _epoch: u32) -> bool {
        true
    }
    /// Reserve copies of the last frame's octant and its shared ancestors
    /// into the frames: the topmost copy's frame, `None` if none is shared.
    fn copy_chain(
        &mut self,
        _frames: &mut [Frame<Self::Id>],
        _epoch: u32,
        _payload: Option<CellData>,
    ) -> Result<Option<usize>, PmError> {
        Ok(None)
    }
    /// Store what `frame` owes, and owe nothing more.
    fn settle(&mut self, _frame: &mut Frame<Self::Id>) {}
    /// Make the last frame's octant exclusive, its copy carrying `payload`
    /// if given: the new root when the root was copied.
    fn make_exclusive(
        &mut self,
        _frames: &mut [Frame<Self::Id>],
        _epoch: u32,
        _payload: Option<CellData>,
    ) -> Result<Option<Self::Id>, PmError> {
        Ok(None)
    }
    /// Records allocated and retired so far, for [`LineStore::roll_back`].
    fn mark(&self) -> (usize, usize) {
        (0, 0)
    }
    /// Undo a failed mutation after `mark`: its retirements are dropped
    /// and its allocations retired.
    fn roll_back(&mut self, _mark: (usize, usize), _epoch: u32) {}
}

/// One level of a remembered path: the navigation line one read
/// delivered, where the octant lives and its slot in the parent
/// (`frames[i + 1]` is the child in slot `frames[i + 1].slot` of
/// `frames[i]`). A shared frame is unwritten since its read, so `nav` is
/// all a copy needs besides an interior payload line. A copy re-points
/// `off` and stamps `nav.epoch`; only the link to the frame below ever
/// changes, so `nav.children` stays valid for slots not yet entered.
/// What the store still lacks of those links is `owed`.
#[derive(Clone, Copy)]
pub(crate) struct Frame<P> {
    pub off: P,
    pub slot: usize,
    pub nav: NavLine<P>,
    pub owed: Owed,
}

/// What the store lacks of a frame's octant, until
/// [`LineStore::settle`] stores it.
#[derive(Clone, Copy)]
pub(crate) enum Owed {
    /// Nothing.
    Nothing,
    /// The links of an octant exclusive before the walk reached it.
    Links,
    /// A reserved copy's whole record, carrying this payload.
    Record(CellData),
}

fn push_frame<S: LineStore>(
    store: &mut S,
    frames: &mut Vec<Frame<S::Id>>,
    off: S::Id,
    slot: usize,
) -> NavLine<S::Id> {
    let nav = store.nav(off);
    frames.push(Frame { off, slot, nav, owed: Owed::Nothing });
    nav
}

/// Outcome of a root walk towards `key`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Locate<P = POffset> {
    /// Found in the walked store.
    Found(P),
    /// The walk hit a volatile handle: the octant, if any, is in C0 tree
    /// `id`.
    Volatile(u32),
    /// No such octant. `Some(level)`: the walk stopped at `key`'s ancestor
    /// of that level, which has no link towards it — in a well-formed
    /// tree the leaf that contains it. `None`: `key` is outside the root.
    Missing(Option<u8>),
}

/// Walk from `root` towards `key`: one navigation line per level above
/// `key`'s, the target's own line not read.
pub(crate) fn locate<S: LineStore>(store: &mut S, root: S::Id, key: OctKey) -> Locate<S::Id> {
    Cursor::new(root).locate(store, key)
}

/// The leaf whose region contains `key` (`None` when `key` is interior or
/// outside `root`), or the volatile handle the walk ran into: one line per
/// octant on the path, the target's included.
pub(crate) fn containing_leaf<S: LineStore>(
    store: &mut S,
    root: S::Id,
    key: OctKey,
) -> Result<Option<OctKey>, u32> {
    let mut cursor = Cursor::new(root);
    match cursor.locate(store, key) {
        Locate::Found(p) => Ok((cursor.path_to(store, p, key).nav.mask == 0).then_some(key)),
        Locate::Volatile(id) => Err(id),
        Locate::Missing(stopped_at) => Ok(stopped_at.map(|l| key.ancestor_at(l))),
    }
}

/// The root walk. It keeps the frames of its last path and resumes each
/// lookup from the deepest ancestor shared with the previous key, so a
/// Z-ordered batch reads every navigation line on a shared prefix once.
/// Valid only while the tree under `root` is not mutated between lookups
/// other than by [`Cursor::link`], which keeps its frames what the store
/// holds.
pub(crate) struct Cursor<P> {
    root: P,
    /// Key of `frames[0]`, learnt by the first lookup.
    root_key: OctKey,
    /// The previous key: `frames[i]` is its ancestor at level
    /// `root_key.level() + i`.
    last: OctKey,
    frames: Vec<Frame<P>>,
}

impl<P: Copy + Eq + std::fmt::Debug> Cursor<P> {
    /// A cursor over the tree under `root`. Reads nothing yet.
    pub fn new(root: P) -> Self {
        Cursor { root, root_key: OctKey::root(), last: OctKey::root(), frames: Vec::new() }
    }

    /// Walk towards `key`, reading only the part of its path the previous
    /// lookup did not walk. The target's own line is not read.
    pub fn locate<S: LineStore<Id = P>>(&mut self, store: &mut S, key: OctKey) -> Locate<P> {
        if self.frames.is_empty() {
            self.frames.reserve(key.level() as usize + 1);
            let nav = push_frame(store, &mut self.frames, self.root, 0);
            self.root_key = OctKey::from_raw(nav.code, nav.level);
            self.last = self.root_key;
        }
        if !self.root_key.contains(&key) {
            return Locate::Missing(None);
        }
        let base = self.root_key.level();
        let shared = (base + 1..=key.level().min(self.last.level()))
            .take_while(|&l| key.ancestor_at(l) == self.last.ancestor_at(l))
            .count();
        self.frames.truncate(shared + 1);
        self.last = key;
        loop {
            let top = &self.frames[self.frames.len() - 1];
            let level = base + (self.frames.len() - 1) as u8;
            if level == key.level() {
                return Locate::Found(top.off);
            }
            let idx = key.ancestor_at(level + 1).sibling_index();
            match top.nav.children[idx] {
                ChildPtr::Null => return Locate::Missing(Some(level)),
                ChildPtr::Volatile(id) => return Locate::Volatile(id),
                ChildPtr::Node(p) if level + 1 == key.level() => return Locate::Found(p),
                ChildPtr::Node(p) => {
                    push_frame(store, &mut self.frames, p, idx);
                }
            }
        }
    }

    /// After a lookup found `key` at `p`: its frame on top of the path,
    /// its line read unless the walk holds it already (the root).
    fn path_to<S: LineStore<Id = P>>(&mut self, store: &mut S, p: P, key: OctKey) -> Frame<P> {
        if self.frames[self.frames.len() - 1].off != p {
            push_frame(store, &mut self.frames, p, key.sibling_index());
        }
        self.frames[self.frames.len() - 1]
    }

    /// The root the cursor walks: a [`Cursor::link`] that copied the root
    /// moved it to the copy.
    pub fn root(&self) -> P {
        self.root
    }
}

impl Cursor<POffset> {
    /// Re-point the occupied slot of `key` (not the root) at the non-null
    /// `ptr`, as [`crate::c1::replace_slot`] does, walking only the part of
    /// the parent's path the previous lookup or link did not walk.
    ///
    /// The frames stay what the store holds: [`LineStore::make_exclusive`]
    /// re-points the frames it copies and the one its publication link
    /// lands in, the link lands in the top frame's line and in its `nav`,
    /// and a copied root becomes the cursor's. Stores that only allocate
    /// (a merge) may run between two links. On `Err` the frames are
    /// dropped, and the next call walks from the root.
    pub fn link(
        &mut self,
        store: &mut PmStore,
        key: OctKey,
        ptr: ChildPtr,
        epoch: u32,
    ) -> Result<(), PmError> {
        let r = self.link_held(store, key, ptr, epoch);
        if r.is_err() {
            self.frames.clear();
        }
        r
    }

    fn link_held(
        &mut self,
        store: &mut PmStore,
        key: OctKey,
        ptr: ChildPtr,
        epoch: u32,
    ) -> Result<(), PmError> {
        if ptr.is_null() {
            return Err(PmError::Corrupt(format!("a link cannot empty the slot of {key:?}")));
        }
        let parent_key = key
            .parent()
            .ok_or_else(|| PmError::Corrupt("cannot replace the root slot".to_string()))?;
        let Locate::Found(p) = self.locate(store, parent_key) else {
            return Err(PmError::NotFound(format!("{parent_key:?}")));
        };
        let slot = key.sibling_index();
        if self.path_to(store, p, parent_key).nav.children[slot].is_null() {
            return Err(PmError::NotFound(format!("{key:?}: no slot to re-point")));
        }
        if let Some(root) = store.make_exclusive(&mut self.frames, epoch, None)? {
            self.root = root;
        }
        let top = self.frames.len() - 1;
        let parent = &mut self.frames[top];
        store.set_link(parent.off, slot, ptr);
        parent.nav.children[slot] = ptr;
        Ok(())
    }
}

/// The frames of the path from `root` to the octant at `key`, one line
/// per level. [`PmError::NotFound`] when `key` names no octant of this
/// store under `root`.
pub(crate) fn descend<S: LineStore>(
    store: &mut S,
    root: S::Id,
    key: OctKey,
) -> Result<Vec<Frame<S::Id>>, PmError> {
    let mut cursor = Cursor::new(root);
    let Locate::Found(p) = cursor.locate(store, key) else {
        return Err(PmError::NotFound(format!("{key:?}")));
    };
    cursor.path_to(store, p, key);
    Ok(cursor.frames)
}

/// Make the last frame's octant exclusive, payload untouched: the
/// possibly-new root and the octant's frame (links and mask still valid).
pub(crate) fn own<S: LineStore>(
    store: &mut S,
    root: S::Id,
    mut frames: Vec<Frame<S::Id>>,
    epoch: u32,
) -> Result<(S::Id, Frame<S::Id>), PmError> {
    let root = store.make_exclusive(&mut frames, epoch, None)?.unwrap_or(root);
    Ok((root, frames[frames.len() - 1]))
}

/// One mesh mutation, as the per-op API applies it.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Split a leaf into 8 children inheriting its payload.
    Refine(OctKey),
    /// Remove an octant's children, all leaves, keeping their mean.
    Coarsen(OctKey),
    /// Overwrite an octant's payload.
    SetData(OctKey, CellData),
}

impl Op {
    /// The key the op names.
    pub fn key(&self) -> OctKey {
        match *self {
            Op::Refine(k) | Op::Coarsen(k) | Op::SetData(k, _) => k,
        }
    }
}

/// Apply `op` under `root`: one walk to its key, then what the op writes.
/// Returns the possibly-new root and the target's id. A refusal
/// ([`PmError::NotFound`], [`PmError::NotALeaf`],
/// [`PmError::NotCoarsenable`]) comes off the walk and stores nothing.
pub(crate) fn apply<S: LineStore>(
    store: &mut S,
    root: S::Id,
    op: Op,
    epoch: u32,
) -> Result<(S::Id, S::Id), PmError> {
    match op {
        Op::Refine(k) => refine(store, root, k, epoch),
        Op::Coarsen(k) => coarsen(store, root, k, epoch),
        Op::SetData(k, d) => update_data(store, root, k, &d, epoch),
    }
}

/// Refine the leaf at `key` into 8 one-line children inheriting the
/// payload its frame holds. All eight are allocated before the parent
/// turns interior, so a [`PmError::Full`] mid-way leaves the leaf a leaf
/// and rolls back what was copied and allocated for it.
pub(crate) fn refine<S: LineStore>(
    store: &mut S,
    root: S::Id,
    key: OctKey,
    epoch: u32,
) -> Result<(S::Id, S::Id), PmError> {
    let frames = descend(store, root, key)?;
    let Some(data) = frames[frames.len() - 1].nav.leaf else {
        return Err(PmError::NotALeaf(format!("{key:?}")));
    };
    let before = store.mark();
    let (new_root, leaf) = own(store, root, frames, epoch)?;
    let copied = store.mark();
    let mut cs = [ChildPtr::Null; FANOUT];
    for (i, slot) in cs.iter_mut().enumerate() {
        match store.alloc(&Octant::leaf(key.child(i), epoch, data)) {
            Ok(p) => *slot = ChildPtr::Node(p),
            Err(e) => {
                // A published path copy stays; a copied root goes.
                store.roll_back(if new_root == root { copied } else { before }, epoch);
                return Err(e);
            }
        }
    }
    store.set_children(leaf.off, &cs, &data);
    Ok((new_root, leaf.off))
}

/// Coarsen the octant at `key` into a leaf holding its children's mean.
/// The children, which must be leaves of this store, are unlinked, not
/// written. Refusals come off the walk and the children's lines, before
/// anything is copied.
pub(crate) fn coarsen<S: LineStore>(
    store: &mut S,
    root: S::Id,
    key: OctKey,
    epoch: u32,
) -> Result<(S::Id, S::Id), PmError> {
    let frames = descend(store, root, key)?;
    let node = frames[frames.len() - 1].nav;
    if node.mask == 0 {
        return Err(PmError::NotALeaf(format!("{key:?}")));
    }
    let refuse = |child: &dyn std::fmt::Debug| {
        PmError::NotCoarsenable(format!("coarsen at {key:?}: child {child:?} is not a leaf here"))
    };
    let mut kids = [None; FANOUT];
    for (kid, c) in kids.iter_mut().zip(node.children) {
        match c {
            ChildPtr::Node(c) => {
                let nav = store.nav(c);
                let d = nav.leaf.ok_or_else(|| refuse(&OctKey::from_raw(nav.code, nav.level)))?;
                *kid = Some((nav.epoch, c, d));
            }
            ChildPtr::Null => {}
            ChildPtr::Volatile(id) => return Err(refuse(&format!("C0 tree {id}"))),
        }
    }
    let mean = CellData::restrict(kids.iter().flatten().map(|(_, _, d)| d));
    let (root, node) = own(store, root, frames, epoch)?;
    store.set_children(node.off, &[ChildPtr::Null; FANOUT], &mean);
    for (stamp, c, _) in kids.into_iter().flatten() {
        store.unlink(stamp, c);
    }
    Ok((root, node.off))
}

/// Overwrite the payload of the octant at `key`: in place when exclusive,
/// else in the copy that makes it so, stored once with its record.
pub(crate) fn update_data<S: LineStore>(
    store: &mut S,
    root: S::Id,
    key: OctKey,
    data: &CellData,
    epoch: u32,
) -> Result<(S::Id, S::Id), PmError> {
    let mut frames = descend(store, root, key)?;
    let last = frames[frames.len() - 1];
    if store.exclusive(&last.nav, epoch) {
        store.set_payload(last.off, &last.nav, data);
        return Ok((root, last.off));
    }
    let root = store.make_exclusive(&mut frames, epoch, Some(*data))?.unwrap_or(root);
    Ok((root, frames[frames.len() - 1].off))
}

/// Visit the octants under `root` in pre-order, children in Morton order,
/// one line read each; `f` holds the store, to read a payload. Volatile
/// handles are not descended.
pub(crate) fn visit<S: LineStore>(
    store: &mut S,
    root: S::Id,
    mut f: impl FnMut(&mut S, S::Id, &NavLine<S::Id>),
) {
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        let nav = store.nav(id);
        stack.extend(nav.children.iter().rev().filter_map(|c| match *c {
            ChildPtr::Node(c) => Some(c),
            _ => None,
        }));
        f(store, id, &nav);
    }
}

/// Pre-order sweep over the leaves under `root`: `f` sees each leaf's key
/// and payload and returns `Some(new)` to overwrite it. Volatile handles
/// go to `on_volatile` (highest slot first, before the octant's own
/// callback), not descended. Returns the possibly-new root.
///
/// Every octant costs one line read, and an exclusive leaf it rewrites
/// one payload store. A shared leaf gets the copies [`update_data`] would
/// reserve, but their links stay in the frames, each stored once when the
/// walk leaves it: the store ends byte for byte as a per-op loop leaves
/// it, without the loop's link store per leaf. On [`PmError::Full`] the
/// failing chain is rolled back and every frame on the stack settles:
/// earlier leaves keep their updates under an exclusive `root`, and a
/// shared `root` still walks to the pre-sweep tree.
pub(crate) fn sweep_leaves<S: LineStore>(
    store: &mut S,
    root: S::Id,
    epoch: u32,
    f: &mut impl FnMut(OctKey, &CellData) -> Option<CellData>,
    on_volatile: &mut impl FnMut(u32),
) -> Result<S::Id, PmError> {
    let mut root = root;
    let mut frames: Vec<Frame<S::Id>> = Vec::new();
    // Each turn either enters an octant — `(id, slot in the top frame)` —
    // or scans the top frame from slot `from` for the next one and pops
    // the frame when it has none, storing what it owes.
    let mut enter = Some((root, 0));
    let mut from = 0;
    loop {
        if let Some((off, slot)) = enter.take() {
            let nav = push_frame(store, &mut frames, off, slot);
            for c in nav.children.iter().rev() {
                if let ChildPtr::Volatile(id) = *c {
                    on_volatile(id);
                }
            }
            if let Some(new) = nav.leaf.and_then(|d| f(OctKey::from_raw(nav.code, nav.level), &d)) {
                if store.exclusive(&nav, epoch) {
                    store.set_payload(off, &nav, &new);
                } else {
                    match store.copy_chain(&mut frames, epoch, Some(new)) {
                        Ok(Some(0)) => root = frames[0].off,
                        Ok(Some(top)) => {
                            let anc = &mut frames[top - 1];
                            if let Owed::Nothing = anc.owed {
                                anc.owed = Owed::Links;
                            }
                        }
                        Ok(None) => unreachable!("a shared leaf is copied"),
                        Err(e) => {
                            for frame in frames.iter_mut().rev() {
                                store.settle(frame);
                            }
                            return Err(e);
                        }
                    }
                }
            }
            from = 0;
        }
        let Some(top) = frames.last_mut() else {
            return Ok(root);
        };
        enter = (from..FANOUT).find_map(|i| match top.nav.children[i] {
            ChildPtr::Node(c) => Some((c, i)),
            _ => None,
        });
        if enter.is_none() {
            from = top.slot + 1;
            store.settle(top);
            frames.pop();
        }
    }
}

/// A copy's image in `dst`, and the shadow octants it drops.
pub(crate) type Image<P> = (P, Vec<Retired<P>>);

/// Copy the subtree under `from` in `src` into `dst` at `epoch`: a C0
/// tree merged into NVBM, or an NVBM subtree promoted into DRAM. Each
/// source line is read once, in pre-order; each copy is one record store,
/// children first. `None` if the source holds a volatile handle.
///
/// Against a `shadow` (the region's image at the last persist) an octant
/// is reused iff its payload is bit-identical and every child resolved to
/// the same id, which keeps the Fig. 3 overlap high. The shadow octants
/// the image drops come back with it, for the caller to retire once it
/// links the image: a subtree the source no longer has whole and unread
/// when older than `epoch`. On [`PmError::Full`] the partial image is
/// retired instead.
pub(crate) fn copy<S: LineStore, T: LineStore>(
    src: &mut S,
    from: S::Id,
    dst: &mut T,
    shadow: Option<T::Id>,
    epoch: u32,
) -> Result<Option<Image<T::Id>>, PmError> {
    let mark = dst.mark();
    let mut dropped = Vec::new();
    match copy_rec(src, from, dst, shadow, epoch, &mut dropped) {
        Ok(copied) => Ok(copied.map(|(off, _)| (off, dropped))),
        Err(e) => {
            dst.roll_back(mark, epoch);
            Err(e)
        }
    }
}

/// [`copy`] of one octant: its image, and whether that is the shadow's. A
/// shadow's payload line is read only when all else says it is shared.
fn copy_rec<S: LineStore, T: LineStore>(
    src: &mut S,
    at: S::Id,
    dst: &mut T,
    shadow: Option<T::Id>,
    epoch: u32,
    dropped: &mut Vec<Retired<T::Id>>,
) -> Result<Option<(T::Id, bool)>, PmError> {
    let nav = src.nav(at);
    let data = src.payload(at, &nav);
    let key = OctKey::from_raw(nav.code, nav.level);
    let shadow = shadow.map(|s| (s, dst.nav(s)));
    let mut children = [ChildPtr::Null; FANOUT];
    let mut all_children_shared = true;
    for (slot, c) in nav.children.into_iter().enumerate() {
        let c = match c {
            ChildPtr::Null => continue,
            ChildPtr::Volatile(_) => return Ok(None),
            ChildPtr::Node(c) => c,
        };
        let below = shadow.and_then(|(_, old)| match old.children[slot] {
            ChildPtr::Node(p) => Some(p),
            _ => None,
        });
        let Some((off, shared)) = copy_rec(src, c, dst, below, epoch, dropped)? else {
            return Ok(None);
        };
        children[slot] = ChildPtr::Node(off);
        all_children_shared &= shared;
    }
    if let Some((s, old)) = shadow {
        for (c, copied) in old.children.into_iter().zip(children) {
            if let (ChildPtr::Node(c), ChildPtr::Null) = (c, copied) {
                if old.epoch < epoch {
                    dropped.push(Retired { stamp: old.epoch, off: c, whole: true });
                } else {
                    visit(dst, c, |_, off, nav| {
                        dropped.push(Retired { stamp: nav.epoch, off, whole: false })
                    });
                }
            }
        }
        let same_octant = all_children_shared
            && old.children == children
            && (old.code, old.level) == (key.raw(), key.level());
        if same_octant {
            let old = dst.payload(s, &old);
            let bits = |d: CellData| [d.phi, d.pressure, d.vof, d.work].map(f64::to_bits);
            if bits(old) == bits(data) {
                return Ok(Some((s, true)));
            }
        }
        dropped.push(Retired { stamp: old.epoch, off: s, whole: false });
    }
    let off = dst.alloc(&Octant { children, key, epoch, data })?;
    Ok(Some((off, false)))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::c0::C0Tree;
    use crate::octant::{read_octant, PmStore};
    use pmoctree_nvbm::{DeviceModel, NvbmArena};
    use proptest::prelude::*;

    fn dram(s: &PmStore) -> (u64, u64) {
        (s.arena.stats.dram.read_lines, s.arena.stats.dram.write_lines)
    }

    fn nvbm(s: &PmStore) -> (u64, u64) {
        (s.arena.stats.nvbm.read_lines, s.arena.stats.nvbm.write_lines)
    }

    fn since(now: (u64, u64), then: (u64, u64)) -> (u64, u64) {
        (now.0 - then.0, now.1 - then.1)
    }

    /// One tree shape in both tiers, everything exclusive to the working
    /// epoch 1: a C0 tree at the root key, charging the arena of `s`, and
    /// the same octants in NVBM under the returned root, each built by
    /// refining the nodes at `paths` in order.
    fn both(paths: &[&[usize]]) -> (C0Tree, PmStore, POffset) {
        let mut s = PmStore::new(NvbmArena::new(4 << 20, DeviceModel::default()));
        let mut t = C0Tree::new(OctKey::root(), CellData::default(), &mut s.arena);
        let leaf = Octant::leaf(OctKey::root(), 1, CellData::default());
        let mut root = s.alloc_octant(&leaf).unwrap();
        for path in paths {
            let k = path.iter().fold(OctKey::root(), |k, &i| k.child(i));
            t.apply(Op::Refine(k), &mut s.arena).unwrap();
            root = refine(&mut s, root, k, 1).unwrap().0;
        }
        (t, s, root)
    }

    /// Run `$body` once over each tier, `$store` and `$root` bound to that
    /// tier's store and root: per tier the body's value and the (read,
    /// write) lines it charged to that tier. The C0 run touches no NVBM
    /// line, the NVBM run no DRAM line.
    macro_rules! on_both {
        ($t:expr, $s:expr, |$store:ident, $root:ident| $body:expr) => {{
            let (d0, n0) = (dram(&$s), nvbm(&$s));
            let c0 = {
                let $root = $t.root;
                let $store = &mut $t.store(&mut $s.arena);
                $body
            };
            let (d1, n1) = (dram(&$s), nvbm(&$s));
            let c1 = {
                let $root = $s.1;
                let $store = &mut $s.0;
                $body
            };
            let (d2, n2) = (dram(&$s), nvbm(&$s));
            assert_eq!(
                (since(n1, n0), since(d2, d1)),
                ((0, 0), (0, 0)),
                "a tier charged the other"
            );
            ((c0, since(d1, d0)), (c1, since(n2, n1)))
        }};
    }

    /// The NVBM store and root of a [`both`] pair, as one value the
    /// macro can borrow field by field.
    struct Pm(PmStore, POffset);

    impl std::ops::Deref for Pm {
        type Target = PmStore;
        fn deref(&self) -> &PmStore {
            &self.0
        }
    }

    impl std::ops::DerefMut for Pm {
        fn deref_mut(&mut self) -> &mut PmStore {
            &mut self.0
        }
    }

    fn pair(paths: &[&[usize]]) -> (C0Tree, Pm) {
        let (t, s, root) = both(paths);
        (t, Pm(s, root))
    }

    /// A walk reads one navigation line per octant on its path, in either
    /// tier: a chain root → child 3 → … → level 5, every lookup, op and
    /// refusal counted in lines read, written once for both stores.
    #[test]
    fn an_op_walks_its_path_once() {
        let at = |d: u8| (0..d).fold(OctKey::root(), |k, _| k.child(3));
        let (mut t, mut s) = pair(&[&[], &[3], &[3, 3], &[3, 3, 3], &[3, 3, 3, 3]]);
        for d in 0..=5u8 {
            let key = at(d);
            let reads = d as u64 + 1;
            // The frames of the path, the target's own line included; its
            // payload with it for the leaf, one more line for an interior
            // octant.
            let ((c0, l0), (c1, l1)) = on_both!(t, s, |st, root| {
                let f = *descend(st, root, key).unwrap().last().unwrap();
                (f.nav.mask == 0, st.payload(f.off, &f.nav))
            });
            assert_eq!((c0, l0), (c1, l1), "payload at {d}");
            assert_eq!(l0, (reads + u64::from(d < 5), 0), "payload at {d}");
            // A lookup stops above its target (it reads the root, though, to
            // learn the root's key); `containing_leaf` reads the target.
            let (c0, c1) = on_both!(t, s, |st, root| locate(st, root, key));
            let above = (d.max(1) as u64, 0);
            assert_eq!((c0.1, c1.1), (above, above), "locate at {d}");
            let (c0, c1) = on_both!(t, s, |st, root| containing_leaf(st, root, key));
            assert_eq!(c0, c1);
            assert_eq!(c0, (Ok((d == 5).then_some(key)), (reads, 0)), "containing_leaf at {d}");
        }
        // Below a leaf: the walk to it, which is the answer.
        for (key, leaf) in
            [(at(5).child(0).child(0), at(5)), (at(2).child(0).child(0), at(2).child(0))]
        {
            let (c0, c1) = on_both!(t, s, |st, root| containing_leaf(st, root, key));
            assert_eq!(c0, c1);
            assert_eq!(c0, (Ok(Some(leaf)), (leaf.level() as u64 + 1, 0)), "{key:?}");
        }
        // Refusals come off the walk and write nothing: the path, and for
        // a coarsen the children up to the first that is not a leaf.
        for (op, want, lines) in [
            (Op::Refine(at(5).child(1)), "not-found", 6),
            (Op::SetData(at(2).child(0).child(0), CellData::default()), "not-found", 4),
            (Op::Refine(at(2)), "not-a-leaf", 3),
            (Op::Coarsen(at(5)), "not-a-leaf", 6),
            (Op::Coarsen(at(3)), "not-coarsenable", 4 + 4),
        ] {
            let kind = |r: Result<(), PmError>| match r {
                Err(PmError::NotFound(_)) => "not-found",
                Err(PmError::NotALeaf(_)) => "not-a-leaf",
                Err(PmError::NotCoarsenable(_)) => "not-coarsenable",
                _ => "ok",
            };
            let (c0, c1) = on_both!(t, s, |st, root| kind(apply(st, root, op, 1).map(|_| ())));
            assert_eq!(c0, c1);
            assert_eq!(c0, (want, (lines, 0)), "{op:?}");
        }
        // A refine reads its path; a coarsen its path and the 8 children
        // its mean needs.
        let (c0, c1) = on_both!(t, s, |st, root| apply(st, root, Op::Refine(at(5)), 1).is_ok());
        assert_eq!((c0.0, c0.1 .0, c1.0, c1.1 .0), (true, 6, true, 6));
        let (c0, c1) = on_both!(t, s, |st, root| apply(st, root, Op::Coarsen(at(5)), 1).is_ok());
        assert_eq!((c0.0, c0.1 .0, c1.0, c1.1 .0), (true, 6 + 8, true, 6 + 8));
    }

    /// A sweep reads one line per octant in either tier, a leaf's payload
    /// with it, and an exclusive leaf it rewrites costs one line written;
    /// a read-only visit is the same walk.
    #[test]
    fn a_sweep_reads_one_line_per_octant() {
        let (mut t, mut s) = pair(&[&[], &[2], &[5], &[2, 7], &[2, 7, 0]]);
        let (octants, leaves) = (41, 36);
        assert_eq!((t.octant_count(), t.leaf_count(), s.registry.len()), (41, 36, 41));
        let bump = |_: OctKey, d: &CellData| Some(CellData { phi: d.phi + 1.0, ..*d });
        for rewrite in [false, true] {
            let (c0, c1) = on_both!(t, s, |st, root| {
                let mut seen = Vec::new();
                let mut f = |k, d: &CellData| {
                    seen.push((k, *d));
                    if rewrite {
                        bump(k, d)
                    } else {
                        None
                    }
                };
                assert_eq!(sweep_leaves(st, root, 1, &mut f, &mut |_| {}), Ok(root));
                seen
            });
            assert_eq!(c0.0, c1.0, "the same leaves, payloads and order");
            assert_eq!(c0.0.len(), leaves);
            let want = (octants, if rewrite { leaves as u64 } else { 0 });
            assert_eq!((c0.1, c1.1), (want, want), "rewrite: {rewrite}");
            for (k, d) in c1.0 {
                let Locate::Found(p) = locate(&mut s.0, s.1, k) else { panic!("{k:?}") };
                let d = if rewrite { bump(k, &d).unwrap() } else { d };
                assert_eq!(read_octant(&mut s.0, p).data, d);
            }
        }
        let (c0, c1) = on_both!(t, s, |st, root| visit(st, root, |_, _, _| {}));
        assert_eq!((c0.1, c1.1), ((octants, 0), (octants, 0)));
    }

    /// The tier-to-tier copy, both ways: a C0 tree merged into NVBM reads
    /// each of its lines once and writes as many; promoted back, the NVBM
    /// image costs the same lines read, lands as the same lines, and
    /// re-merged against the image it came from shares all of it.
    #[test]
    fn a_copy_round_trips_between_the_tiers() {
        let mut s = PmStore::new(NvbmArena::new(1 << 20, DeviceModel::default()));
        let k = OctKey::root().child(7);
        let mut t = C0Tree::new(k, CellData { vof: 0.5, ..Default::default() }, &mut ());
        t.apply(Op::Refine(k), &mut ()).unwrap();
        t.apply(Op::Refine(k.child(0)), &mut ()).unwrap();
        t.sweep(&mut (), |k, d| Some(CellData { vof: k.raw() as f64, ..*d }));
        // 15 leaves and 2 interior octants: 15 + 2 × 2 lines either way.
        let (octants, leaves, lines) = (17, 15, 15 + 2 * 2);
        assert_eq!((t.octant_count(), t.leaf_count(), t.lines()), (octants, leaves, lines));
        let (d0, n0) = (dram(&s), nvbm(&s));
        let (image, dropped) = t.merge(&mut s, None, 1).unwrap();
        assert!(dropped.is_empty());
        assert_eq!(
            (since(dram(&s), d0), since(nvbm(&s), n0)),
            ((lines as u64, 0), (0, lines as u64))
        );
        let (d0, n0) = (dram(&s), nvbm(&s));
        let mut back = C0Tree::copy_of(&mut s, image).unwrap();
        assert_eq!((since(dram(&s), d0), since(nvbm(&s), n0)), ((0, 0), (lines as u64, 0)));
        assert_eq!(
            (back.octant_count(), back.leaf_count(), back.lines()),
            (octants, leaves, lines)
        );
        assert_eq!(back.subtree_key, k);
        let (mut before, mut after) = (Vec::new(), Vec::new());
        t.octants(&mut (), |k, d, leaf| before.push((k, d, leaf)));
        back.octants(&mut (), |k, d, leaf| after.push((k, d, leaf)));
        assert_eq!(after, before, "every octant, payload and shape, in pre-order");
        assert_eq!(after[0], (k, CellData { vof: 0.5, ..Default::default() }, false));
        assert_eq!(back.merge(&mut s, Some(image), 2), Ok((image, vec![])));
    }

    /// One random step of the differential test: an op on the leaf (or
    /// its parent) that `pick` selects among the current leaves.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Refine(usize),
        Coarsen(usize),
        SetData(usize, bool, f64),
        Sweep(u64),
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let step =
            (0u8..4, any::<usize>(), any::<bool>(), 0u64..64).prop_map(|(kind, at, up, x)| {
                match kind {
                    0 => Step::Refine(at),
                    1 => Step::Coarsen(at),
                    2 => Step::SetData(at, up, x as f64 * 0.25),
                    _ => Step::Sweep(x),
                }
            });
        prop::collection::vec(step, 1..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The same random refine/coarsen/set_data/sweep sequence on one
        /// subtree held in C0 and in NVBM at one working epoch: after
        /// every op both tiers give the same answer, hold the same leaves
        /// and payloads, and charge a read-only sweep and a tier-to-tier
        /// copy the same lines; and a merge → promote → merge round trip
        /// shares the whole shadow.
        #[test]
        fn both_tiers_agree_op_for_op(steps in steps()) {
            let (mut t, mut s) = pair(&[&[]]);
            for step in steps {
                let mut leaves = Vec::new();
                t.leaves(&mut (), |_, k, _| leaves.push(k));
                let leaf = |at: usize| leaves[at % leaves.len()];
                let parent = |k: OctKey| k.parent().unwrap_or(k);
                let op = match step {
                    Step::Refine(at) if leaf(at).level() < 4 => Some(Op::Refine(leaf(at))),
                    Step::Refine(at) | Step::Coarsen(at) => Some(Op::Coarsen(parent(leaf(at)))),
                    Step::SetData(at, up, phi) => {
                        let k = if up { parent(leaf(at)) } else { leaf(at) };
                        Some(Op::SetData(k, CellData { phi, ..Default::default() }))
                    }
                    Step::Sweep(_) => None,
                };
                let (c0, c1) = match (op, step) {
                    (Some(op), _) => on_both!(t, s, |st, root| apply(st, root, op, 1).map(|_| ())),
                    (None, Step::Sweep(x)) => on_both!(t, s, |st, root| {
                        let mut f = |k: OctKey, d: &CellData| {
                            (k.raw() % 3 == x % 3).then_some(CellData { pressure: d.pressure + 1.0, ..*d })
                        };
                        sweep_leaves(st, root, 1, &mut f, &mut |_| {}).map(|_| ())
                    }),
                    _ => unreachable!(),
                };
                prop_assert_eq!(&c0.0, &c1.0, "{:?}", step);
                prop_assert_eq!(c0.1 .0, c1.1 .0, "reads of {:?}", step);
                let (c0, c1) = on_both!(t, s, |st, root| {
                    let mut out = Vec::new();
                    sweep_leaves(st, root, 1, &mut |k, d| { out.push((k, *d)); None }, &mut |_| {})
                        .unwrap();
                    out
                });
                prop_assert_eq!(&c0.0, &c1.0, "leaves after {:?}", step);
                prop_assert_eq!((c0.1, c1.1), ((t.octant_count() as u64, 0), (t.octant_count() as u64, 0)));
                // The copy out of each tier reads the same lines: C0 → C1
                // charges the tree's lines, C1 → C0 reads as many.
                let mut x = PmStore::new(NvbmArena::new(1 << 20, DeviceModel::default()));
                let d0 = dram(&x);
                let (image, dropped) = t.merge(&mut x, None, 1).unwrap();
                let merged = since(dram(&x), d0).0;
                prop_assert!(dropped.is_empty());
                let n0 = nvbm(&s);
                let mut back = C0Tree::copy_of(&mut s.0, s.1).unwrap();
                prop_assert_eq!(since(nvbm(&s), n0).0, merged);
                prop_assert_eq!(back.lines() as u64, merged);
                // Round trip: the promoted copy of the image re-merges
                // into the image itself.
                let mut promoted = C0Tree::copy_of(&mut x, image).unwrap();
                prop_assert_eq!(promoted.merge(&mut x, Some(image), 2), Ok((image, vec![])));
                let (mut a, mut b) = (Vec::new(), Vec::new());
                back.octants(&mut (), |k, d, l| a.push((k, d, l)));
                t.octants(&mut (), |k, d, l| b.push((k, d, l)));
                prop_assert_eq!(a, b);
            }
        }
    }
}
