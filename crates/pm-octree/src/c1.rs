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
//! 3. **Deletion writes only the parent.** Unlinking rewrites the
//!    (exclusive) parent's links and nothing else: the unlinked octant,
//!    shared or exclusive, is left as it is. A shared one is still
//!    `V_{i-1}`'s; either kind is reclaimed by the next GC mark that no
//!    longer reaches it from a root ([`crate::gc`]). Nothing recovery
//!    reads lives in an unlinked octant, so there is nothing to store
//!    there.
//! 4. **Only refine and coarsen move a payload, and only on an exclusive
//!    octant.** A leaf keeps its payload in the bytes an interior octant
//!    keeps its links in (layout v3, [`crate::octant`]), so turning one
//!    into the other moves the payload. [`refine`] does it after [`own`]:
//!    the leaf's payload to line 1, then the links. [`coarsen`] does it
//!    after [`own`]: the children's mean together with the null links.
//!    Every other store keeps the mask: a copy's record carries the
//!    original's, and [`replace_slot`] only re-points an occupied slot.
//!
//! Because of (1)–(4), a crash at *any* point leaves the tree reachable
//! from the persisted `V_{i-1}` root byte-identical to what
//! `pm_persistent` flushed — no fence or flush ordering is required on
//! the octant writes themselves.
//!
//! For the same reason nothing constrains *how* a copy is put together:
//! it is unreachable until the one link store (or root swap) that
//! publishes it. So a copy is stored once — one record built from the
//! navigation line the walker already holds ([`Frame`]), one line for a
//! leaf (its payload came with that line) and two for an interior octant
//! (its payload line read once), and, for an octant being overwritten,
//! carrying its new payload — and the publication re-points an occupied
//! slot with the link store alone. Nothing is read twice and no line of a
//! copy is stored twice.
//!
//! There is one root walk, [`Cursor::locate`]: every lookup ([`locate`])
//! and every mutation ([`refine`], [`coarsen`], [`update_data`],
//! `cow_path`, [`replace_slot`]) steps down the child links through it,
//! reading one navigation line per level and keeping it, so whatever is
//! asked of an octant on the path afterwards — leaf? exclusive? which
//! links? — is answered from the frame, not from the device.
//!
//! Every mutation entry point is fallible: a key that names no NVBM
//! octant under the root is [`PmError::NotFound`] and an unmet
//! precondition [`PmError::NotALeaf`] or [`PmError::NotCoarsenable`],
//! all before anything is copied — a refusal stores nothing;
//! allocation exhaustion surfaces as [`PmError::Full`] *before* any
//! publication write, so the pre-mutation version stays reachable and the
//! partially-allocated copies are unreachable garbage for GC. The
//! functions are generic over [`OctAccess`], which [`PmStore`] implements
//! over the live arena.

use pmoctree_morton::OctKey;
use pmoctree_nvbm::POffset;

use crate::api::PmError;
use crate::octant::{CellData, ChildPtr, NavLine, OctAccess, Octant, PmStore, FANOUT};

/// Outcome of a root walk towards `key`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Locate {
    /// Found as a persistent octant.
    Nvbm(POffset),
    /// The walk hit a volatile handle; the octant, if it exists, lives in
    /// C0 tree `id`.
    Volatile(u32),
    /// No such octant in the tree. `Some(level)`: the walk stopped at
    /// `key`'s ancestor of that level, an NVBM octant with no link
    /// towards `key` — in a well-formed tree the leaf that contains it.
    /// `None`: `key` lies outside the root.
    Missing(Option<u8>),
}

/// Walk from `root` towards `key`; stop at the octant, a volatile handle,
/// or a missing link. A fresh [`Cursor`]'s lookup: one navigation line
/// per level above `key`'s, the target's own line not read.
pub fn locate<S: OctAccess>(store: &mut S, root: POffset, key: OctKey) -> Locate {
    Cursor::new(root).locate(store, key)
}

/// One level of a remembered root-to-octant path: the navigation line a
/// single read delivered about the octant, plus where the octant lives
/// and hangs in its parent. Path walks ([`Cursor`], [`sweep_leaves`])
/// keep these instead of re-descending from the root, and
/// [`make_exclusive`] builds every copy *from* them instead of reading
/// the original again.
///
/// Invariants over a frame stack `frames[0..n]` (`frames[0]` the root):
///
/// * `frames[i + 1]` is the child in slot `frames[i + 1].slot` of
///   `frames[i]`.
/// * A frame whose `nav.epoch` is older than the working epoch is
///   *shared* and has not been written since it was read, so `nav` is its
///   on-media navigation line — all a copy of a leaf needs, payload
///   included, and all a copy of an interior octant needs besides its
///   payload line. A frame at the working epoch is exclusive, and —
///   exclusivity being hereditary — so is every frame above it. A payload
///   stored through a frame does not refresh its `nav.leaf`; nothing
///   reads it after.
/// * [`make_exclusive`] re-points `off` at the copy it allocates and
///   stamps `nav.epoch`; only the link in the slot of the frame below
///   ever changes in a copied or exclusive octant, and only from one
///   octant to another, so `nav.children` stays valid for every slot not
///   yet entered and `nav.mask` for all of them.
#[derive(Clone, Copy)]
struct Frame {
    off: POffset,
    slot: usize,
    nav: NavLine,
}

/// Read the navigation line of the octant at `off` (one charged line)
/// and push its frame.
fn push_frame<S: OctAccess>(
    store: &mut S,
    frames: &mut Vec<Frame>,
    off: POffset,
    slot: usize,
) -> NavLine {
    let nav = store.nav_line(off);
    frames.push(Frame { off, slot, nav });
    nav
}

/// The root walk. It remembers the frames of its last root-to-octant path
/// and resumes each lookup from the deepest ancestor shared with the
/// previous key, so a Z-ordered batch reads every navigation line on a
/// shared prefix once instead of once per key; a fresh cursor's first
/// lookup is the plain per-key walk ([`locate`], [`descend`]).
///
/// Valid only while the tree under `root` is not mutated between
/// lookups (the remembered child links would go stale).
pub struct Cursor {
    root: POffset,
    /// Key of `frames[0]` (set by the first lookup, which reads the root).
    root_key: OctKey,
    /// The previous lookup's key: `frames[i]` is its ancestor at level
    /// `root_key.level() + i`.
    last: OctKey,
    frames: Vec<Frame>,
}

impl Cursor {
    /// A cursor over the tree under `root`. Reads nothing yet.
    pub fn new(root: POffset) -> Self {
        debug_assert!(!root.is_null());
        Cursor { root, root_key: OctKey::root(), last: OctKey::root(), frames: Vec::new() }
    }

    /// Walk towards `key`, re-reading only the part of its path that the
    /// previous lookup did not already walk. The target's own line is not
    /// read (a later, deeper key reads it if it has to pass through).
    pub fn locate<S: OctAccess>(&mut self, store: &mut S, key: OctKey) -> Locate {
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
                return Locate::Nvbm(top.off);
            }
            let idx = key.ancestor_at(level + 1).sibling_index();
            match top.nav.children[idx] {
                ChildPtr::Null => return Locate::Missing(Some(level)),
                ChildPtr::Volatile(id) => return Locate::Volatile(id),
                ChildPtr::Nvbm(p) if level + 1 == key.level() => return Locate::Nvbm(p),
                ChildPtr::Nvbm(p) => {
                    push_frame(store, &mut self.frames, p, idx);
                }
            }
        }
    }
}

/// The frames of the path from `root` to the NVBM octant at `key`: the
/// [`locate`] walk plus the target's own frame, one navigation-line read
/// per level. [`PmError::NotFound`] when `key` names no NVBM octant under
/// `root` — it lies outside the root, or the path ends in an empty slot
/// or a volatile handle.
fn descend<S: OctAccess>(store: &mut S, root: POffset, key: OctKey) -> Result<Vec<Frame>, PmError> {
    let mut cursor = Cursor::new(root);
    let Locate::Nvbm(p) = cursor.locate(store, key) else {
        return Err(PmError::NotFound(format!("{key:?}")));
    };
    let mut frames = cursor.frames;
    if frames[frames.len() - 1].off != p {
        push_frame(store, &mut frames, p, key.sibling_index());
    }
    Ok(frames)
}

/// Make the octant of the last frame exclusive to `epoch` (the paper's
/// Figure 4 walk: copy 9→9', copy u→u', link, repeat to the root): copy
/// it and its shared ancestors bottom-up until the first exclusive frame,
/// re-pointing each copied frame, then publish with one link store there
/// — or return the new root when the root itself was copied.
///
/// Each copy is one record store built from its frame — a shared frame
/// *is* the original's navigation line — with the epoch stamped and the
/// link to the copy below already in place: one line for a leaf, two for
/// an interior octant. The last frame's copy carries `payload` when the
/// caller is about to overwrite it anyway; otherwise it carries the
/// original's, which a leaf's frame holds and an interior octant's
/// payload line is read for. A copy is unreachable until the
/// publication, so `V_{i-1}` cannot tell how it was put together.
///
/// On [`PmError::Full`] no link has been published: the copies allocated
/// so far are unreachable and the tree is unchanged — but the frames
/// below the failed copy already name those orphans, so the caller must
/// drop the stack.
fn make_exclusive<S: OctAccess>(
    store: &mut S,
    frames: &mut [Frame],
    epoch: u32,
    mut payload: Option<CellData>,
) -> Result<Option<POffset>, PmError> {
    let first_shared = frames.iter().rposition(|f| f.nav.epoch == epoch).map_or(0, |i| i + 1);
    debug_assert!(
        frames[..first_shared].iter().all(|f| f.nav.epoch == epoch),
        "exclusive under shared"
    );
    if first_shared == frames.len() {
        return Ok(None);
    }
    let mut below: Option<(usize, POffset)> = None;
    for frame in frames[first_shared..].iter_mut().rev() {
        let mut children = frame.nav.children;
        if let Some((slot, child)) = below {
            children[slot] = ChildPtr::Nvbm(child);
        }
        let copy = Octant {
            children,
            key: OctKey::from_raw(frame.nav.code, frame.nav.level),
            epoch,
            data: payload.take().unwrap_or_else(|| store.payload(frame.off, &frame.nav)),
        };
        let off = store.alloc_octant(&copy)?;
        frame.off = off;
        frame.nav.epoch = epoch;
        below = Some((frame.slot, off));
    }
    let (slot, top) = below.expect("at least one shared frame was copied");
    match first_shared.checked_sub(1) {
        // Exclusive ancestor: this is the single publication write for
        // the whole walk — every copy below is fully written before it
        // lands. It re-points an occupied slot, so the mask stands.
        Some(anc) => {
            debug_assert!(
                !frames[anc].nav.children[slot].is_null(),
                "publishing into an empty slot"
            );
            store.set_link(frames[anc].off, slot, ChildPtr::Nvbm(top));
            Ok(None)
        }
        None => Ok(Some(top)),
    }
}

/// Make the last frame's octant exclusive without touching its payload.
/// Hands back the possibly-new root and the octant's whole frame: its
/// offset and the navigation line the walk read (every link and the mask
/// still valid — no frame was entered below it).
fn own<S: OctAccess>(
    store: &mut S,
    root: POffset,
    mut frames: Vec<Frame>,
    epoch: u32,
) -> Result<(POffset, Frame), PmError> {
    let root = make_exclusive(store, &mut frames, epoch, None)?.unwrap_or(root);
    Ok((root, frames[frames.len() - 1]))
}

/// Make the octant at `key` exclusive to the current epoch, copying the
/// shared suffix of its root path. Returns the possibly-new root and the
/// exclusive octant's offset.
///
/// [`PmError::NotFound`] when `key` is not an NVBM octant under `root`.
/// On [`PmError::Full`] no link has been published: copies allocated so
/// far are unreachable and the caller's tree is unchanged.
#[cfg(test)]
pub fn cow_path<S: OctAccess>(
    store: &mut S,
    root: POffset,
    key: OctKey,
    epoch: u32,
) -> Result<(POffset, POffset), PmError> {
    let frames = descend(store, root, key)?;
    own(store, root, frames, epoch).map(|(root, frame)| (root, frame.off))
}

/// Store `data` as the payload of the last frame's octant in `V_i`: in
/// place when the octant is already exclusive, otherwise *in* the copy
/// [`make_exclusive`] stores — a shared octant's new payload is written
/// once, with its record. Returns the new root if the root was copied.
fn store_payload<S: OctAccess>(
    store: &mut S,
    frames: &mut [Frame],
    epoch: u32,
    data: &CellData,
) -> Result<Option<POffset>, PmError> {
    let leaf = &frames[frames.len() - 1];
    if leaf.nav.epoch == epoch {
        store.set_payload(leaf.off, &leaf.nav, data);
        return Ok(None);
    }
    make_exclusive(store, frames, epoch, Some(*data))
}

/// Refine the NVBM leaf at `key`: create its 8 children (all exclusive,
/// one line each), each inheriting the parent's payload, which the
/// leaf's own navigation line delivered. Returns the possibly-new root.
/// One walk: the leaf test reads the frame the walk ended on, so a
/// non-leaf is refused ([`PmError::NotALeaf`]) before anything is copied.
///
/// All eight children are allocated before the parent turns interior, so
/// a [`PmError::Full`] mid-way leaves the leaf a leaf.
pub fn refine<S: OctAccess>(
    store: &mut S,
    root: POffset,
    key: OctKey,
    epoch: u32,
) -> Result<POffset, PmError> {
    let frames = descend(store, root, key)?;
    let Some(data) = frames[frames.len() - 1].nav.leaf else {
        return Err(PmError::NotALeaf(format!("{key:?}")));
    };
    let (root, leaf) = own(store, root, frames, epoch)?;
    let mut cs = [ChildPtr::Null; FANOUT];
    for (i, slot) in cs.iter_mut().enumerate() {
        let o = Octant::leaf(key.child(i), epoch, data);
        let p = store.alloc_octant(&o)?;
        *slot = ChildPtr::Nvbm(p);
    }
    // The payload to line 1, then the links over the bytes it held.
    store.set_children(leaf.off, &cs, &data);
    Ok(root)
}

/// Coarsen the NVBM octant at `key`: unlink its children (which must all
/// be NVBM leaves), making it a leaf. The children themselves are not
/// written — shared ones stay `V_{i-1}`'s, exclusive ones are garbage the
/// moment the parent's links are gone. Every refusal comes off the one
/// walk before anything is copied: a leaf ([`PmError::NotALeaf`]) off the
/// frame it ended on, a child that is not an NVBM leaf
/// ([`PmError::NotCoarsenable`]) off the children's lines, read through
/// that frame's links — so a refused coarsen stores and allocates
/// nothing, at any epoch.
pub fn coarsen<S: OctAccess>(
    store: &mut S,
    root: POffset,
    key: OctKey,
    epoch: u32,
) -> Result<POffset, PmError> {
    let frames = descend(store, root, key)?;
    let node = frames[frames.len() - 1].nav;
    if node.mask == 0 {
        return Err(PmError::NotALeaf(format!("{key:?}")));
    }
    // The children's payloads come with the lines the validation reads;
    // the new leaf takes their restriction.
    let mut kids = [None; FANOUT];
    for (kid, c) in kids.iter_mut().zip(node.children) {
        match c {
            ChildPtr::Nvbm(c) => {
                let nav = store.nav_line(c);
                let Some(d) = nav.leaf else {
                    return Err(PmError::NotCoarsenable(format!(
                        "coarsen at {key:?}: child {:?} is not a leaf",
                        OctKey::from_raw(nav.code, nav.level)
                    )));
                };
                *kid = Some(d);
            }
            ChildPtr::Null => {}
            ChildPtr::Volatile(id) => {
                return Err(PmError::NotCoarsenable(format!(
                    "coarsen at {key:?} reaches across the DRAM boundary (C0 tree {id})"
                )))
            }
        }
    }
    let mean = CellData::restrict(kids.iter().flatten());
    let (root, node) = own(store, root, frames, epoch)?;
    // The mean over the links, then the null mask.
    store.set_children(node.off, &[ChildPtr::Null; FANOUT], &mean);
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
    let mut frames = descend(store, root, key)?;
    Ok(store_payload(store, &mut frames, epoch, data)?.unwrap_or(root))
}

/// Re-point the occupied child slot that holds `key`'s position under
/// `root` at the non-null `ptr` (used to attach merged subtrees and
/// volatile handles). `key` must not be the root itself, and its parent
/// must be an NVBM octant under `root` with something at `key`
/// ([`PmError::NotFound`] otherwise, before anything is copied). The
/// parent stays interior, so its mask and payload stay where they are —
/// filling or emptying a slot is refine's and coarsen's business. Returns
/// the possibly-new root.
pub fn replace_slot<S: OctAccess>(
    store: &mut S,
    root: POffset,
    key: OctKey,
    ptr: ChildPtr,
    epoch: u32,
) -> Result<POffset, PmError> {
    if ptr.is_null() {
        return Err(PmError::Corrupt(format!("replace_slot cannot empty the slot of {key:?}")));
    }
    let parent_key =
        key.parent().ok_or_else(|| PmError::Corrupt("cannot replace the root slot".to_string()))?;
    let frames = descend(store, root, parent_key)?;
    let slot = key.sibling_index();
    if frames[frames.len() - 1].nav.children[slot].is_null() {
        return Err(PmError::NotFound(format!("{key:?}: no slot to re-point")));
    }
    let (root, parent) = own(store, root, frames, epoch)?;
    store.set_link(parent.off, slot, ptr);
    Ok(root)
}

/// Pre-order sweep over the NVBM leaves under `root`: `f` sees each
/// leaf's key and payload once and returns `Some(new)` to overwrite it.
/// Volatile handles are reported to `on_volatile` (per octant, highest
/// slot first, before the octant's own callback) and not descended.
/// Returns the possibly-new root.
///
/// The walker carries its root-to-leaf path as [`Frame`]s, so an update
/// is made copy-on-write *through the path it is standing on* instead of
/// re-entering from the root, and from the lines it already holds: it is
/// [`update_data`] on the same leaf minus the descent — the same
/// allocations in the same order and the same bytes on the media. Every
/// octant costs the walk one line read, a leaf's payload included. A
/// shared leaf then costs one record store per copy (the leaf's one line,
/// carrying the new payload; an ancestor's two) and one link store; an
/// exclusive leaf one payload store.
///
/// On [`PmError::Full`] the sweep stops: no link of the failing leaf has
/// been published, earlier leaves keep their updates, and a shared
/// `root` still walks to the pre-sweep tree.
pub fn sweep_leaves<S: OctAccess>(
    store: &mut S,
    root: POffset,
    epoch: u32,
    f: &mut impl FnMut(OctKey, &CellData) -> Option<CellData>,
    on_volatile: &mut impl FnMut(u32),
) -> Result<POffset, PmError> {
    let mut root = root;
    let mut frames: Vec<Frame> = Vec::new();
    // Each turn either enters an octant — `(offset, slot in the top
    // frame)` — or, with none left to enter, scans the top frame from
    // slot `from` for the next one and pops the frame when it has none.
    let mut enter = Some((root, 0));
    let mut from = 0;
    loop {
        if let Some((off, slot)) = enter.take() {
            // One navigation-line read delivers children, key and mask —
            // and a leaf's payload.
            let nav = push_frame(store, &mut frames, off, slot);
            for c in nav.children.iter().rev() {
                if let ChildPtr::Volatile(id) = *c {
                    on_volatile(id);
                }
            }
            if let Some(data) = nav.leaf {
                if let Some(new) = f(OctKey::from_raw(nav.code, nav.level), &data) {
                    if let Some(new_root) = store_payload(store, &mut frames, epoch, &new)? {
                        root = new_root;
                    }
                }
            }
            from = 0;
        }
        let Some(top) = frames.last() else {
            return Ok(root);
        };
        enter = (from..FANOUT).find_map(|i| match top.nav.children[i] {
            ChildPtr::Nvbm(c) => Some((c, i)),
            _ => None,
        });
        if enter.is_none() {
            from = top.slot + 1;
            frames.pop();
        }
    }
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

/// Returns (offset, was_shared, entries_consumed). A shadow octant costs
/// one navigation-line read — its links seed the children's shadows and
/// settle "same structure", and a leaf's payload comes with it — and an
/// interior octant's payload line only when everything else already says
/// it can be shared.
fn merge_rec(
    store: &mut PmStore,
    octants: &[(OctKey, CellData, bool)],
    at: usize,
    shadow: Option<POffset>,
    epoch: u32,
) -> Result<(POffset, bool, usize), PmError> {
    let (key, data, is_leaf) = octants[at];
    let shadow = shadow.map(|s| (s, store.nav_line(s)));
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
            let child_shadow = shadow.and_then(|(_, nav)| match nav.children[idx] {
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
    if let Some((s, old)) = shadow {
        let same_octant = all_children_shared
            && old.children == children
            && (old.code, old.level) == (key.raw(), key.level());
        if same_octant {
            let old = store.payload(s, &old);
            let data_same = old.phi.to_bits() == data.phi.to_bits()
                && old.pressure.to_bits() == data.pressure.to_bits()
                && old.vof.to_bits() == data.vof.to_bits()
                && old.work.to_bits() == data.work.to_bits();
            if data_same {
                return Ok((s, true, consumed));
            }
        }
    }
    let o = Octant { children, key, epoch, data };
    let off = store.alloc_octant(&o)?;
    Ok((off, false, consumed))
}

/// Collect an NVBM subtree into a pre-order (key, data) list (used when
/// promoting a hot subtree into DRAM): one line read per leaf, two per
/// interior octant. Returns
/// `None` when the subtree contains a volatile handle — such a region is
/// already partly DRAM-resident and cannot be promoted wholesale.
pub fn collect_subtree(store: &mut PmStore, p: POffset) -> Option<Vec<(OctKey, CellData)>> {
    let mut out = Vec::new();
    if collect_rec(store, p, &mut out) {
        Some(out)
    } else {
        None
    }
}

fn collect_rec(store: &mut PmStore, p: POffset, out: &mut Vec<(OctKey, CellData)>) -> bool {
    let nav = store.nav_line(p);
    out.push((OctKey::from_raw(nav.code, nav.level), store.payload(p, &nav)));
    for c in nav.children {
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
    use crate::octant::read_octant;
    use pmoctree_nvbm::{DeviceModel, FailPlan, NvbmArena};

    fn store() -> PmStore {
        PmStore::new(NvbmArena::new(4 << 20, DeviceModel::default()))
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
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        let k = OctKey::root().child(3);
        match locate(&mut s, root, k) {
            Locate::Nvbm(p) => assert_eq!(read_octant(&mut s, p).key, k),
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
                assert_eq!(s.nav_line(p).mask, 0, "old version mutated!");
            }
            other => panic!("{other:?}"),
        }
        // New version has the refinement.
        match locate(&mut s, new_root, OctKey::root().child(2).child(5)) {
            Locate::Nvbm(p) => {
                assert_eq!(read_octant(&mut s, p).key, OctKey::root().child(2).child(5))
            }
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
    fn cow_path_returns_the_copy_it_allocated() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        root = refine(&mut s, root, OctKey::root().child(4), 1).unwrap();
        let key = OctKey::root().child(4).child(6);
        let at = |s: &mut PmStore, root, key| match locate(s, root, key) {
            Locate::Nvbm(p) => p,
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
                root = refine(&mut s, root, deep.ancestor_at(l), 1).unwrap();
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
            root = refine(&mut s, root, OctKey::root(), 1).unwrap();
            root = cow_path(&mut s, root, OctKey::root(), 2).unwrap().0;
            let allocated = s.registry.len();
            let update = |s: &mut PmStore, d: CellData| {
                let new_root = if sweep {
                    sweep_leaves(s, root, 2, &mut |k, _| (k == key).then_some(d), &mut |_| {})
                } else {
                    update_data(s, root, key, &d, 2)
                };
                assert_eq!(new_root, Ok(root));
            };
            // What the walk reads whether or not it updates: the sweep a
            // navigation line per octant, payloads included, the per-op
            // form the two navigation lines of its descent.
            let walk = if sweep { 1 + 8 } else { 2 };
            // Shared: the record store (one line, the new payload on
            // board) and the link store that publishes it.
            let d = CellData { phi: 4.5, work: 1.0, ..Default::default() };
            assert_eq!(cost(&mut s, |s| update(s, d)), (walk, 2, 2), "sweep: {sweep}");
            assert_eq!(s.registry.len(), allocated + 1);
            let copy = *s.registry.last().unwrap();
            assert_eq!(locate(&mut s, root, key), Locate::Nvbm(copy));
            assert_eq!(read_octant(&mut s, copy), Octant::leaf(key, 2, d));
            // Exclusive now: the payload store and nothing else.
            let d = CellData { phi: -1.0, ..d };
            assert_eq!(cost(&mut s, |s| update(s, d)), (walk, 1, 1), "sweep: {sweep}");
            assert_eq!(s.registry.len(), allocated + 1);
            assert_eq!(read_octant(&mut s, copy), Octant::leaf(key, 2, d));
        }
    }

    #[test]
    fn full_mid_sweep_publishes_nothing_of_the_failing_leaf() {
        // Fill a small device breadth-first at epoch 1, then sweep it at
        // epoch 2 rewriting every leaf: the copies cannot fit.
        let mut s = PmStore::new(NvbmArena::new(64 << 10, DeviceModel::default()));
        let mut root = root_tree(&mut s, 1);
        let mut frontier = std::collections::VecDeque::from([OctKey::root()]);
        while let Some(k) = frontier.pop_front() {
            match refine(&mut s, root, k, 1) {
                Ok(r) => root = r,
                Err(PmError::Full(_)) => break,
                Err(other) => panic!("unexpected error: {other}"),
            }
            frontier.extend(k.children());
        }
        let leaves_of = |s: &mut PmStore, root| {
            let mut out = Vec::new();
            let f = &mut |k, d: &CellData| {
                out.push((k, *d));
                None
            };
            sweep_leaves(s, root, 2, f, &mut |_| {}).unwrap();
            out
        };
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
                ChildPtr::Nvbm(p) => p,
                other => panic!("{other:?}"),
            })
            .collect()
    }

    #[test]
    fn coarsen_unlinks_without_writing_shared_children() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        root = refine(&mut s, root, OctKey::root().child(0), 1).unwrap();
        let old_root = root;
        let Locate::Nvbm(old_c0) = locate(&mut s, old_root, OctKey::root().child(0)) else {
            panic!()
        };
        let grandchildren = nvbm_children(&mut s, old_c0);
        let before = images(&mut s, &grandchildren);
        let new_root = coarsen(&mut s, root, OctKey::root().child(0), 2).unwrap();
        // New version: child 0 is a leaf again.
        match locate(&mut s, new_root, OctKey::root().child(0)) {
            Locate::Nvbm(p) => assert_eq!(s.nav_line(p).mask, 0),
            other => panic!("{other:?}"),
        }
        // Old version: grandchildren still reachable, not a byte changed.
        assert_eq!(
            locate(&mut s, old_root, OctKey::root().child(0).child(4)),
            Locate::Nvbm(grandchildren[4])
        );
        assert_eq!(images(&mut s, &grandchildren), before);
    }

    #[test]
    fn coarsen_stores_nothing_in_the_children_it_unlinks() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        // Children created at epoch 1; coarsen at the SAME epoch: they are
        // exclusive, and garbage the moment the root's links are gone.
        let children = nvbm_children(&mut s, root);
        let before = images(&mut s, &children);
        let (reads, writes) = (s.arena.stats.nvbm.read_lines, s.arena.stats.nvbm.write_lines);
        s.arena.set_fail_plan(FailPlan::count());
        assert_eq!(coarsen(&mut s, root, OctKey::root(), 1), Ok(root));
        let stores = s.arena.take_fail_plan().unwrap().opportunities();
        // Two stores, one line each: the root's mean over its links, then
        // its mask. A flag per child was eight more, and eight more reads.
        // Read: the root, then the one line of every child, its payload
        // included.
        let stats = &s.arena.stats.nvbm;
        assert_eq!((stats.read_lines - reads, stats.write_lines - writes, stores), (9, 2, 2));
        assert_eq!(images(&mut s, &children), before, "an unlinked child was written");
        assert_eq!(s.nav_line(root).mask, 0);
        assert_eq!(crate::gc::collect(&mut s, &[root], 1).0.freed, 8);
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
    fn descend_outside_the_root_is_not_found() {
        // Release builds too: this used to be a debug_assert and then a
        // walk down whatever links the wrong subtree happened to hold.
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
        root = refine(&mut s, root, OctKey::root().child(2), 1).unwrap();
        root = refine(&mut s, root, OctKey::root().child(5), 1).unwrap();
        root =
            replace_slot(&mut s, root, OctKey::root().child(6), ChildPtr::Volatile(4), 1).unwrap();
        let Locate::Nvbm(sub) = locate(&mut s, root, OctKey::root().child(2)) else { panic!() };
        let sibling = OctKey::root().child(5);
        let (writes, allocated) = (s.arena.stats.nvbm.write_lines, s.registry.len());
        let not_found =
            |r: Result<POffset, PmError>| assert!(matches!(r, Err(PmError::NotFound(_))));
        // A sibling subtree's keys, under the subtree at child 2...
        assert_eq!(locate(&mut s, sub, sibling.child(1)), Locate::Missing(None));
        not_found(cow_path(&mut s, sub, sibling.child(1), 2).map(|(root, _)| root));
        not_found(replace_slot(&mut s, sub, sibling.child(1), ChildPtr::Volatile(9), 2));
        not_found(update_data(&mut s, sub, sibling, &CellData::default(), 2));
        // ...an ancestor of the walk's root...
        not_found(refine(&mut s, sub, OctKey::root(), 2));
        // ...a path that ends in an empty slot, or in a volatile handle.
        not_found(coarsen(&mut s, root, OctKey::root().child(2).child(3).child(0), 2));
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
            root = refine(&mut s, root, k, 1).unwrap();
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

    /// Counts what an op reads from the device before its first store.
    struct Watch<'a, S> {
        inner: &'a mut S,
        nav_reads: usize,
        payload_reads: usize,
        stored: bool,
    }

    impl<S: OctAccess> OctAccess for Watch<'_, S> {
        fn io_read(&mut self, offset: u64, buf: &mut [u8]) {
            if !self.stored {
                match buf.len() {
                    64 => self.nav_reads += 1,
                    32 => self.payload_reads += 1,
                    n => panic!("a {n}-byte read: neither a navigation line nor a payload"),
                }
            }
            self.inner.io_read(offset, buf);
        }

        fn io_write(&mut self, offset: u64, data: &[u8]) {
            self.stored = true;
            self.inner.io_write(offset, data);
        }

        fn alloc_block(&mut self) -> Result<POffset, PmError> {
            self.inner.alloc_block()
        }
    }

    #[test]
    fn an_op_walks_its_path_once() {
        #[derive(Clone, Copy, Debug)]
        enum Op {
            Refine(OctKey),
            Coarsen(OctKey),
            SetData(OctKey),
        }
        fn apply<S: OctAccess>(
            s: &mut S,
            root: POffset,
            op: Op,
            epoch: u32,
        ) -> Result<POffset, PmError> {
            match op {
                Op::Refine(k) => refine(s, root, k, epoch),
                Op::Coarsen(k) => coarsen(s, root, k, epoch),
                Op::SetData(k) => {
                    update_data(s, root, k, &CellData { phi: 2.5, ..Default::default() }, epoch)
                }
            }
        }
        // A chain root → child 3 → … → level 5, built at epoch 1. Seen
        // from epoch 2 every octant is shared, so an op's first store is
        // the copy of its target, and what it read before that is its
        // walk. Copies never touch `root`'s tree: every op meets it whole.
        let at = |d: u8| (0..d).fold(OctKey::root(), |k, _| k.child(3));
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        for d in 0..5 {
            root = refine(&mut s, root, at(d), 1).unwrap();
        }
        for d in 0..=5 {
            let ops = [
                (d == 5).then_some(Op::Refine(at(d))),
                (d == 4).then_some(Op::Coarsen(at(d))),
                Some(Op::SetData(at(d))),
            ];
            for op in ops.into_iter().flatten() {
                let mut w = Watch { inner: &mut s, nav_reads: 0, payload_reads: 0, stored: false };
                let new_root = apply(&mut w, root, op, 2).unwrap();
                // d + 1 navigation lines, root to target; a coarsen then
                // reads its 8 children, and its target's copy reads a
                // payload line (the target is interior, and the op brings
                // none to carry) — all before the first store.
                let (nav, payload) = match op {
                    Op::Coarsen(_) => (d as usize + 1 + 8, 1),
                    _ => (d as usize + 1, 0),
                };
                let got = (w.nav_reads, w.payload_reads, w.stored, new_root != root);
                assert_eq!(got, (nav, payload, true, true), "{op:?} at level {d}");
            }
        }
        // Refusals come off the same walk, before the first copy: nothing
        // is stored and nothing allocated, whether the target is shared
        // (epoch 2) or exclusive (epoch 1).
        let (writes, allocated) = (s.arena.stats.nvbm.write_lines, s.registry.len());
        for (op, epoch, want) in [
            (Op::Refine(at(5).child(1)), 2, "not-found"),
            (Op::SetData(at(2).child(0).child(0)), 2, "not-found"),
            (Op::Coarsen(at(4).child(6).child(6)), 2, "not-found"),
            (Op::Refine(at(2)), 2, "not-a-leaf"),
            (Op::Coarsen(at(5)), 2, "not-a-leaf"),
            (Op::Coarsen(at(3)), 1, "not-coarsenable"),
            (Op::Coarsen(at(3)), 2, "not-coarsenable"),
        ] {
            let mut w = Watch { inner: &mut s, nav_reads: 0, payload_reads: 0, stored: false };
            let got = match apply(&mut w, root, op, epoch) {
                Err(PmError::NotFound(_)) => "not-found",
                Err(PmError::NotALeaf(_)) => "not-a-leaf",
                Err(PmError::NotCoarsenable(_)) => "not-coarsenable",
                other => panic!("{op:?}: {other:?}"),
            };
            assert_eq!(
                (got, w.stored, w.payload_reads),
                (want, false, 0),
                "{op:?} at epoch {epoch}"
            );
            let level = match op {
                Op::Refine(k) | Op::Coarsen(k) | Op::SetData(k) => k.level() as usize,
            };
            assert!(w.nav_reads <= level + 9, "{op:?}: {} reads", w.nav_reads);
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
            Locate::Nvbm(p) => assert_eq!(s.nav_line(p).mask, 0, "partial refine was published"),
            other => panic!("{other:?}"),
        }
        // Every octant reachable from the root still decodes cleanly.
        let count = crate::gc::mark(&mut s, &[root], 1).live.len();
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
        let census = crate::gc::mark(&mut s, &[merged2], 2);
        assert_eq!(census.live.len(), 9);
        assert_eq!(census.shared, 7);
    }

    #[test]
    fn merge_reads_each_shadow_octant_once() {
        let mut s = store();
        // A shadow of n = 1 + 8 + 16 octants: two of the children refined.
        let sub_key = OctKey::root().child(6);
        let leaf = |k: OctKey| (k, CellData { phi: k.raw() as f64, ..Default::default() }, true);
        let mut octants = vec![(sub_key, CellData::default(), false)];
        for i in 0..8 {
            if i == 2 || i == 5 {
                octants.push((sub_key.child(i), CellData::default(), false));
                octants.extend(sub_key.child(i).children().map(leaf));
            } else {
                octants.push(leaf(sub_key.child(i)));
            }
        }
        let n = octants.len() as u64;
        let shadow = merge_subtree(&mut s, &octants, None, 1).unwrap();
        let reads = |s: &PmStore| s.arena.stats.nvbm.read_lines;
        // Fully shared: the navigation line of every shadow octant — a
        // leaf's payload with it — and the payload line of the 3 interior
        // ones, each once, and not a store.
        let (before, writes) = (reads(&s), s.arena.stats.nvbm.write_lines);
        assert_eq!(merge_subtree(&mut s, &octants, Some(shadow), 2), Ok(shadow));
        assert_eq!(reads(&s) - before, n + 3);
        assert_eq!(s.arena.stats.nvbm.write_lines, writes);
        // One payload differs: its ancestors' payload lines are not read
        // (a changed child already rules sharing out), child 5's is.
        let mut changed = octants.clone();
        changed[4].1.phi = -1.0; // a leaf under child 2: depth 2 in the subtree
        let before = reads(&s);
        assert_ne!(merge_subtree(&mut s, &changed, Some(shadow), 2), Ok(shadow));
        assert_eq!(reads(&s) - before, n + 1);
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
        let census = crate::gc::mark(&mut s, &[merged], 2);
        assert_eq!(census.live.len(), 17);
        assert_eq!(census.shared, 7, "the 7 untouched leaves are shared");
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

    #[test]
    fn a_sweep_reads_one_line_per_octant() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        for path in [&[][..], &[2], &[5], &[2, 7], &[2, 7, 0]] {
            let key = path.iter().fold(OctKey::root(), |k, &i| k.child(i));
            root = refine(&mut s, root, key, 1).unwrap();
        }
        let (octants, leaves) = (s.registry.len(), 1 + 5 * 7);
        let mut seen = Vec::new();
        let before = s.arena.stats.nvbm.read_lines;
        let f = &mut |k, d: &CellData| {
            seen.push((k, *d));
            None
        };
        assert_eq!(sweep_leaves(&mut s, root, 1, f, &mut |_| {}), Ok(root));
        // Every octant's navigation line once; a leaf's payload is on it.
        assert_eq!(s.arena.stats.nvbm.read_lines - before, octants as u64);
        assert_eq!(seen.len(), leaves);
        for (k, d) in seen {
            let Locate::Nvbm(p) = locate(&mut s, root, k) else { panic!("{k:?}") };
            assert_eq!(read_octant(&mut s, p).data, d);
        }
    }

    #[test]
    fn sweep_visits_every_leaf_and_reports_volatile() {
        let mut s = store();
        let mut root = root_tree(&mut s, 1);
        root = refine(&mut s, root, OctKey::root(), 1).unwrap();
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
