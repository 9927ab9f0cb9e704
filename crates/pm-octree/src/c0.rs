//! The volatile `C0` forest: frequently-accessed subtrees held in DRAM.
//!
//! Each [`C0Tree`] is a *complete* subtree of `V_i` rooted at
//! `subtree_key`, updated in place at DRAM latency; its attachment point
//! in the NVBM tree holds a [`ChildPtr::Volatile`] handle carrying the
//! tree's forest id. A C0 node is the record image of octant layout v3
//! ([`crate::octant`]) with slab ids for links: a leaf is one 64-byte
//! line, key and payload; an interior node its navigation line, key and
//! child ids, plus a payload line in a second slab.
//!
//! A tree with the DRAM it charges ([`C0Tree::store`]) is the C0
//! [`LineStore`]: ids are slab ids, and each line is charged to a [`Dram`]
//! meter as it is touched. Its write policy is the trait's default: C0 is
//! exclusive everywhere (it keeps no epoch) and writes in place, and any
//! write makes the tree dirty. Every walk is the shared one ([`crate::walk`]), so a node costs
//! what an NVBM octant of the same shape costs, at DRAM latency.

use pmoctree_morton::OctKey;
use pmoctree_nvbm::{MemLatency, MemStats, NvbmArena, POffset, VirtualClock, CACHELINE};

use crate::api::PmError;
use crate::octant::{CellData, ChildPtr, NavLine, Octant, PmStore, Retired, FANOUT};
use crate::walk::{self, LineStore, Op};

/// Slab index of the absent node.
const NIL: u32 = u32::MAX;

/// The DRAM a C0 node store runs in: where it charges the lines it reads
/// and writes. The PM-octree charges its arena's clock and counters; the
/// in-core baseline its own.
pub trait Dram {
    /// Charge `reads` line reads and `writes` line writes.
    fn charge(&mut self, reads: u64, writes: u64);
}

impl Dram for NvbmArena {
    fn charge(&mut self, reads: u64, writes: u64) {
        let lat = self.model().dram;
        (&mut self.clock, &mut self.stats, lat).charge(reads, writes);
    }
}

/// A clock and counters at a DRAM latency (the in-core baseline's own).
impl Dram for (&mut VirtualClock, &mut MemStats, MemLatency) {
    fn charge(&mut self, reads: u64, writes: u64) {
        self.0.advance(reads * self.2.read_ns + writes * self.2.write_ns);
        self.1.dram_read(reads as usize * CACHELINE, reads);
        self.1.dram_write(writes as usize * CACHELINE, writes);
    }
}

/// Host bookkeeping: lines charged elsewhere, or not at all.
impl Dram for () {
    fn charge(&mut self, _: u64, _: u64) {}
}

/// What a navigation line holds besides the key: a leaf's payload, or an
/// interior node's child slab ids (`NIL` for an empty slot) and the slab
/// id of its payload line.
#[derive(Clone, Copy, Debug)]
enum Body {
    Leaf(CellData),
    Interior { children: [u32; 8], payload: u32 },
}

/// A C0 node's navigation line.
#[repr(C, align(64))]
#[derive(Clone, Copy, Debug)]
struct Node {
    key: OctKey,
    body: Body,
}

/// An interior node's payload line.
#[repr(C, align(64))]
#[derive(Clone, Copy, Debug)]
struct PayloadLine(CellData);

const _: () = assert!(std::mem::size_of::<Node>() == CACHELINE);
const _: () = assert!(std::mem::align_of::<Node>() == CACHELINE);
const _: () = assert!(std::mem::size_of::<PayloadLine>() == CACHELINE);
const _: () = assert!(std::mem::align_of::<PayloadLine>() == CACHELINE);

/// Lines of one kind, addressed by slab id; freed ids are reused. The
/// store charges for them.
#[derive(Clone, Debug)]
struct Slab<T> {
    lines: Vec<T>,
    free: Vec<u32>,
    /// Which ids are free, for the debug-build check that no access
    /// reaches a line through a stale id (it would read whatever line took
    /// the slot).
    freed: Vec<bool>,
}

impl<T: Copy> Slab<T> {
    fn new() -> Self {
        Slab { lines: Vec::new(), free: Vec::new(), freed: Vec::new() }
    }

    fn get(&mut self, i: u32) -> &mut T {
        debug_assert!(!self.freed[i as usize], "access to a freed C0 line");
        &mut self.lines[i as usize]
    }

    fn alloc(&mut self, line: T) -> u32 {
        let i = self.free.pop().unwrap_or_else(|| {
            self.lines.push(line);
            self.freed.push(true);
            (self.lines.len() - 1) as u32
        });
        self.freed[i as usize] = false;
        self.lines[i as usize] = line;
        i
    }

    fn free(&mut self, i: u32) {
        self.get(i);
        self.freed[i as usize] = true;
        self.free.push(i);
    }

    fn live(&self) -> usize {
        self.lines.len() - self.free.len()
    }
}

/// One DRAM-resident subtree of `V_i`.
#[derive(Clone, Debug)]
pub struct C0Tree {
    /// Key of the subtree root (its position inside the octree).
    pub(crate) subtree_key: OctKey,
    nodes: Slab<Node>,
    payloads: Slab<PayloadLine>,
    pub(crate) root: u32,
    leaves: usize,
    /// Access-frequency estimate used for LFU eviction and transformation
    /// decisions; decayed once per time step.
    pub(crate) access: f64,
    /// Has the tree been modified since the last persist? Clean trees
    /// skip the merge entirely (their shadow is still exact).
    pub(crate) dirty: bool,
    /// The tree's NVBM shadow: its image at the last persist, or the NVBM
    /// subtree it was promoted from (null when it has none), which the
    /// next merge diffs against.
    pub(crate) shadow: POffset,
}

/// A [`C0Tree`] with the DRAM it charges: the C0 [`LineStore`].
pub(crate) struct InDram<'a, D> {
    tree: &'a mut C0Tree,
    dram: &'a mut D,
}

impl<D: Dram> InDram<'_, D> {
    /// The body of a record with links `cs` and payload `d`; an interior
    /// node's payload line is stored first.
    fn body(&mut self, cs: &[ChildPtr<u32>; FANOUT], d: &CellData) -> Body {
        if cs.iter().all(ChildPtr::is_null) {
            self.tree.leaves += 1;
            return Body::Leaf(*d);
        }
        let children = cs.map(|c| if let ChildPtr::Node(c) = c { c } else { NIL });
        self.wrote();
        Body::Interior { children, payload: self.tree.payloads.alloc(PayloadLine(*d)) }
    }

    fn wrote(&mut self) {
        self.dram.charge(0, 1);
        self.tree.dirty = true;
    }

    /// Give up what node `i` holds besides its navigation line.
    fn release(&mut self, i: u32) {
        match self.tree.nodes.get(i).body {
            Body::Leaf(_) => self.tree.leaves -= 1,
            Body::Interior { payload, .. } => self.tree.payloads.free(payload),
        }
    }
}

impl<D: Dram> LineStore for InDram<'_, D> {
    type Id = u32;

    fn nav(&mut self, i: u32) -> NavLine<u32> {
        self.dram.charge(1, 0);
        let Node { key, body } = *self.tree.nodes.get(i);
        let (mut children, mut leaf, mut mask) = ([ChildPtr::Null; FANOUT], None, 0);
        match body {
            Body::Leaf(d) => leaf = Some(d),
            Body::Interior { children: ids, .. } => {
                for (slot, id) in ids.into_iter().enumerate().filter(|&(_, id)| id != NIL) {
                    children[slot] = ChildPtr::Node(id);
                    mask |= 1 << slot;
                }
            }
        }
        NavLine { children, leaf, code: key.raw(), level: key.level(), mask, epoch: 0 }
    }

    fn payload(&mut self, i: u32, nav: &NavLine<u32>) -> CellData {
        nav.leaf.unwrap_or_else(|| {
            self.dram.charge(1, 0);
            let Body::Interior { payload, .. } = self.tree.nodes.get(i).body else {
                unreachable!("a navigation line without a payload is interior")
            };
            self.tree.payloads.get(payload).0
        })
    }

    fn set_payload(&mut self, i: u32, _: &NavLine<u32>, d: &CellData) {
        match &mut self.tree.nodes.get(i).body {
            Body::Leaf(old) => *old = *d,
            &mut Body::Interior { payload, .. } => {
                *self.tree.payloads.get(payload) = PayloadLine(*d)
            }
        }
        self.wrote();
    }

    fn set_children(&mut self, i: u32, cs: &[ChildPtr<u32>; FANOUT], d: &CellData) {
        self.release(i);
        let body = self.body(cs, d);
        self.tree.nodes.get(i).body = body;
        self.wrote();
    }

    fn alloc(&mut self, o: &Octant<u32>) -> Result<u32, PmError> {
        let body = self.body(&o.children, &o.data);
        self.wrote();
        Ok(self.tree.nodes.alloc(Node { key: o.key, body }))
    }

    fn unlink(&mut self, _: u32, i: u32) {
        self.release(i);
        self.tree.nodes.free(i);
    }
}

impl C0Tree {
    fn empty(subtree_key: OctKey) -> Self {
        C0Tree {
            subtree_key,
            nodes: Slab::new(),
            payloads: Slab::new(),
            root: NIL,
            leaves: 0,
            access: 0.0,
            dirty: true,
            shadow: POffset::NULL,
        }
    }

    /// A single-leaf subtree rooted at `key`: one line written.
    pub fn new(key: OctKey, data: CellData, dram: &mut impl Dram) -> Self {
        let mut tree = C0Tree::empty(key);
        tree.root = tree.store(dram).alloc(&Octant::leaf(key, 0, data)).expect("C0 never fills");
        tree
    }

    /// The tree as the C0 line store, charging `dram`.
    pub(crate) fn store<'a, D: Dram>(&'a mut self, dram: &'a mut D) -> InDram<'a, D> {
        InDram { tree: self, dram }
    }

    /// Number of live octants.
    pub fn octant_count(&self) -> usize {
        self.nodes.live()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// Lines the tree occupies: one per leaf, two per interior node.
    pub(crate) fn lines(&self) -> usize {
        self.nodes.live() + self.payloads.live()
    }

    /// The subtree root, if `key` is inside this subtree (else no line).
    fn inside(&self, key: OctKey) -> Result<u32, PmError> {
        let inside = self.subtree_key.contains(&key);
        inside.then_some(self.root).ok_or_else(|| PmError::NotFound(format!("{key:?}")))
    }

    /// The frame of the node at `key`, by its walk; an access.
    fn find(&mut self, key: OctKey, dram: &mut impl Dram) -> Option<walk::Frame<u32>> {
        let root = self.inside(key).ok()?;
        let frames = walk::descend(&mut self.store(dram), root, key).ok()?;
        self.access += 1.0;
        frames.last().copied()
    }

    /// Does the octant at `key` exist, and is it a leaf? Its walk.
    pub fn is_leaf(&mut self, key: OctKey, dram: &mut impl Dram) -> Option<bool> {
        self.find(key, dram).map(|f| f.nav.mask == 0)
    }

    /// The leaf containing `key`'s region (`None` if `key` is internal or
    /// outside this subtree): one walk.
    pub fn containing_leaf(&mut self, key: OctKey, dram: &mut impl Dram) -> Option<OctKey> {
        let root = self.inside(key).ok()?;
        walk::containing_leaf(&mut self.store(dram), root, key).ok().flatten()
    }

    /// The payload of the octant at `key`, if it exists: the walk to it,
    /// and an interior octant's payload line.
    pub fn get_data(&mut self, key: OctKey, dram: &mut impl Dram) -> Option<CellData> {
        let f = self.find(key, dram)?;
        Some(self.store(dram).payload(f.off, &f.nav))
    }

    /// The payload of node `i`, reached without a walk (a leaf index
    /// named it): its line, and an interior node's payload line.
    pub fn data_at(&mut self, i: u32, dram: &mut impl Dram) -> CellData {
        let mut store = self.store(dram);
        let nav = store.nav(i);
        store.payload(i, &nav)
    }

    /// Apply `op` in place ([`walk::apply`]): the slab id of the node it
    /// names. Finding the node is an access, a refine 9 more, a coarsen
    /// or a payload write one.
    pub fn apply(&mut self, op: Op, dram: &mut impl Dram) -> Result<u32, PmError> {
        let root = self.inside(op.key())?;
        let done = walk::apply(&mut self.store(dram), root, op, 0);
        if !matches!(done, Err(PmError::NotFound(_))) {
            self.access += 1.0;
        }
        let (_, i) = done?;
        self.access += if let Op::Refine(_) = op { 9.0 } else { 1.0 };
        Ok(i)
    }

    /// The child slab ids of node `i` (host bookkeeping: uncharged).
    pub fn children(&mut self, i: u32) -> [u32; 8] {
        match self.nodes.get(i).body {
            Body::Interior { children, .. } => children,
            Body::Leaf(_) => [NIL; 8],
        }
    }

    /// Visit the leaves in pre-order ([`walk::visit`]), each with its slab
    /// id: one line read per node.
    pub fn leaves(&mut self, dram: &mut impl Dram, mut f: impl FnMut(u32, OctKey, &CellData)) {
        let root = self.root;
        walk::visit(&mut self.store(dram), root, |_, i, nav| {
            if let Some(d) = &nav.leaf {
                f(i, OctKey::from_raw(nav.code, nav.level), d);
            }
        });
    }

    /// Visit every node in pre-order with its payload and whether it is a
    /// leaf: every line read once.
    pub fn octants(&mut self, dram: &mut impl Dram, mut f: impl FnMut(OctKey, CellData, bool)) {
        let root = self.root;
        walk::visit(&mut self.store(dram), root, |store, i, nav| {
            f(OctKey::from_raw(nav.code, nav.level), store.payload(i, nav), nav.mask == 0);
        });
    }

    /// Leaf sweep ([`walk::sweep_leaves`]): `f` returns a leaf's new data.
    /// Each line it reads or writes is an access.
    pub fn sweep(
        &mut self,
        dram: &mut impl Dram,
        mut f: impl FnMut(OctKey, &CellData) -> Option<CellData>,
    ) {
        let (root, mut writes) = (self.root, 0);
        let mut count = |k, d: &CellData| {
            let new = f(k, d);
            writes += u64::from(new.is_some());
            new
        };
        let swept = walk::sweep_leaves(&mut self.store(dram), root, 0, &mut count, &mut |_| {});
        debug_assert_eq!(swept, Ok(root), "C0 writes in place");
        self.access += (self.octant_count() as u64 + writes) as f64;
    }

    /// The leaves numbered `ranks` in pre-order, in the order asked: one
    /// line read per rank. Numbering the leaves is host bookkeeping, not
    /// charged.
    pub(crate) fn leaves_at(
        &mut self,
        ranks: &[usize],
        dram: &mut impl Dram,
    ) -> Vec<(OctKey, CellData)> {
        let mut want: Vec<(usize, usize)> =
            ranks.iter().enumerate().map(|(at, &r)| (r, at)).collect();
        want.sort_unstable();
        let mut next = want.iter().peekable();
        let mut slot = vec![NIL; ranks.len()];
        let mut rank = 0;
        self.leaves(&mut (), |i, _, _| {
            while let Some(&(_, at)) = next.next_if(|w| w.0 == rank) {
                slot[at] = i;
            }
            rank += 1;
        });
        let mut store = self.store(dram);
        slot.into_iter()
            .map(|i| {
                let nav = store.nav(i);
                (OctKey::from_raw(nav.code, nav.level), store.payload(i, &nav))
            })
            .collect()
    }

    /// Merge the tree into C1 against its `shadow` ([`walk::copy`]). The
    /// copy reads every line of the tree once while the NVBM store holds
    /// the arena, so those lines are charged first.
    pub(crate) fn merge(
        &mut self,
        pm: &mut PmStore,
        shadow: Option<POffset>,
        epoch: u32,
    ) -> Result<(POffset, Vec<Retired>), PmError> {
        pm.arena.charge(self.lines() as u64, 0);
        let root = self.root;
        let image = walk::copy(&mut self.store(&mut ()), root, pm, shadow, epoch)?;
        Ok(image.expect("a C0 tree holds no volatile handle"))
    }

    /// A clean DRAM copy of the NVBM subtree at `off` ([`walk::copy`]), or
    /// `None` if it holds a volatile handle. Its own lines are charged when
    /// it lands ([`C0Tree::lines`]).
    pub(crate) fn copy_of(pm: &mut PmStore, off: POffset) -> Option<C0Tree> {
        let mut tree = C0Tree::empty(OctKey::root());
        let (root, _) = walk::copy(pm, off, &mut tree.store(&mut ()), None, 0).ok()??;
        tree.subtree_key = tree.nodes.get(root).key;
        tree.root = root;
        // A promoted tree is its NVBM shadow, line for line.
        tree.dirty = false;
        tree.shadow = off;
        Some(tree)
    }
}

/// The forest of DRAM subtrees, addressed by volatile id.
#[derive(Default)]
pub struct C0Forest {
    trees: Vec<Option<C0Tree>>,
    /// Total live octants across all trees (compared against
    /// `c0_capacity_octants`).
    pub total_octants: usize,
}

impl C0Forest {
    /// Register a tree; returns its volatile id.
    pub fn insert(&mut self, tree: C0Tree) -> u32 {
        self.total_octants += tree.octant_count();
        let Some(i) = self.trees.iter().position(Option::is_none) else {
            self.trees.push(Some(tree));
            return (self.trees.len() - 1) as u32;
        };
        self.trees[i] = Some(tree);
        i as u32
    }

    /// Remove and return a tree.
    pub fn remove(&mut self, id: u32) -> C0Tree {
        let t = self.trees[id as usize].take().expect("removing absent C0 tree");
        self.total_octants -= t.octant_count();
        t
    }

    /// Borrow a tree.
    pub fn get(&self, id: u32) -> &C0Tree {
        self.trees[id as usize].as_ref().expect("absent C0 tree")
    }

    /// Borrow a tree mutably; [`Self::with_tree`] when octants change.
    pub fn get_mut(&mut self, id: u32) -> &mut C0Tree {
        self.trees[id as usize].as_mut().expect("absent C0 tree")
    }

    /// Run `f` on tree `id`, keeping the forest-wide octant count in sync.
    pub fn with_tree<R>(&mut self, id: u32, f: impl FnOnce(&mut C0Tree) -> R) -> R {
        let t = self.trees[id as usize].as_mut().expect("absent C0 tree");
        let before = t.octant_count();
        let r = f(t);
        let after = t.octant_count();
        self.total_octants = self.total_octants + after - before;
        r
    }

    /// Which tree (if any) owns `key`?
    pub fn owner_of(&self, key: &OctKey) -> Option<u32> {
        let owns = |t: &Option<C0Tree>| t.as_ref().is_some_and(|t| t.subtree_key.contains(key));
        self.trees.iter().position(owns).map(|i| i as u32)
    }

    /// Ids of all live trees.
    pub fn ids(&self) -> Vec<u32> {
        self.trees.iter().enumerate().filter_map(|(i, t)| t.as_ref().map(|_| i as u32)).collect()
    }

    /// Id of the least-frequently-accessed tree (LFU eviction victim).
    pub fn coldest(&self) -> Option<u32> {
        self.trees
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (i as u32, t.access)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
    }

    /// Decay all access counters (once per time step).
    pub fn decay_access(&mut self, factor: f64) {
        for t in self.trees.iter_mut().flatten() {
            t.access *= factor;
        }
    }

    /// Is the forest empty?
    pub fn is_empty(&self) -> bool {
        self.trees.iter().all(Option::is_none)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pmoctree_nvbm::DeviceModel;

    fn arena() -> NvbmArena {
        NvbmArena::new(1 << 16, DeviceModel::default())
    }

    /// DRAM (read, write) lines `f` charges; the clock advances by their
    /// latency, exactly.
    fn lines(a: &mut NvbmArena, f: impl FnOnce(&mut NvbmArena)) -> (u64, u64) {
        let (r0, w0, t0) = (a.stats.dram.read_lines, a.stats.dram.write_lines, a.clock.now_ns());
        f(a);
        let (r, w) = (a.stats.dram.read_lines - r0, a.stats.dram.write_lines - w0);
        let lat = a.model().dram;
        assert_eq!(a.clock.now_ns() - t0, r * lat.read_ns + w * lat.write_ns, "clock");
        (r, w)
    }

    #[test]
    fn single_leaf_tree() {
        let mut a = arena();
        let k = OctKey::root().child(2);
        let d = CellData { phi: 1.0, ..Default::default() };
        let mut t = C0Tree::new(k, d, &mut a);
        assert_eq!((t.octant_count(), t.leaf_count()), (1, 1));
        assert_eq!(t.is_leaf(k, &mut a), Some(true));
        assert_eq!(t.get_data(k, &mut a).unwrap().phi, 1.0);
    }

    #[test]
    fn refine_creates_eight_children() {
        let mut a = arena();
        let k = OctKey::root().child(0);
        let mut t = C0Tree::new(k, CellData::default(), &mut a);
        let root = t.apply(Op::Refine(k), &mut a).unwrap();
        assert_eq!((t.octant_count(), t.leaf_count()), (9, 8));
        assert_eq!(t.is_leaf(k, &mut a), Some(false));
        for (c, ki) in t.children(root).into_iter().enumerate() {
            assert_eq!(t.nodes.get(ki).key, k.child(c));
            assert_eq!(t.is_leaf(k.child(c), &mut a), Some(true));
        }
    }

    #[test]
    fn coarsen_restores_leaf() {
        let mut a = arena();
        let k = OctKey::root().child(0);
        let mut t = C0Tree::new(k, CellData::default(), &mut a);
        t.apply(Op::Refine(k), &mut a).unwrap();
        t.apply(Op::Refine(k.child(1)), &mut a).unwrap();
        let refused = t.apply(Op::Coarsen(k), &mut a);
        assert!(matches!(refused, Err(PmError::NotCoarsenable(_))), "{refused:?}");
        t.apply(Op::Coarsen(k.child(1)), &mut a).unwrap();
        t.apply(Op::Coarsen(k), &mut a).unwrap();
        assert_eq!((t.octant_count(), t.leaf_count(), t.lines()), (1, 1, 1));
        assert!(matches!(t.apply(Op::Coarsen(k), &mut a), Err(PmError::NotALeaf(_))));
        assert_eq!(t.is_leaf(k, &mut a), Some(true));
    }

    #[test]
    fn refine_writes_ten_lines_and_coarsen_nine() {
        let mut a = arena();
        let k = OctKey::root().child(4);
        let d = CellData { vof: 0.25, ..Default::default() };
        let mut t = C0Tree::new(k, d, &mut a);
        let mut root = 0;
        // The walk's one line; 8 child lines, the parent's navigation and
        // payload lines.
        assert_eq!(lines(&mut a, |a| root = t.apply(Op::Refine(k), a).unwrap()), (1, 10));
        // The parent's payload moved to its payload line: one more read.
        assert_eq!(lines(&mut a, |a| assert_eq!(t.data_at(root, a), d)), (2, 0));
        // The walk; the 8 child lines the mean needs, and the one line the
        // parent becomes.
        assert_eq!(lines(&mut a, |a| _ = t.apply(Op::Coarsen(k), a).unwrap()), (1 + 8, 1));
        assert_eq!(lines(&mut a, |a| assert_eq!(t.data_at(root, a), d)), (1, 0));
        assert_eq!(a.stats.nvbm.total_lines(), 0, "no NVBM traffic from C0 ops");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "access to a freed C0 line")]
    fn a_freed_id_is_not_read() {
        let mut a = arena();
        let k = OctKey::root().child(4);
        let mut t = C0Tree::new(k, CellData::default(), &mut a);
        let root = t.apply(Op::Refine(k), &mut a).unwrap();
        let kids = t.children(root);
        t.apply(Op::Coarsen(k), &mut a).unwrap();
        t.data_at(kids[3], &mut a);
    }

    #[test]
    fn find_descends_by_key() {
        let mut a = arena();
        let k = OctKey::root().child(5);
        let mut t = C0Tree::new(k, CellData::default(), &mut a);
        t.apply(Op::Refine(k), &mut a).unwrap();
        t.apply(Op::Refine(k.child(3)), &mut a).unwrap();
        let deep = k.child(3).child(6);
        assert_eq!(t.is_leaf(deep, &mut a), Some(true));
        assert_eq!(t.is_leaf(k.child(2).child(0), &mut a), None, "unrefined region");
        assert_eq!(t.is_leaf(OctKey::root().child(1), &mut a), None, "outside subtree");
    }

    #[test]
    fn leaves_at_numbers_the_leaves_in_pre_order() {
        let mut a = arena();
        let k = OctKey::root().child(1);
        let mut t = C0Tree::new(k, CellData::default(), &mut a);
        t.apply(Op::Refine(k), &mut a).unwrap();
        t.apply(Op::Refine(k.child(2)), &mut a).unwrap();
        let mut leaves = Vec::new();
        t.leaves(&mut (), |_, k, d| leaves.push((k, *d)));
        let ranks = [9, 0, 14, 9, 3];
        let mut got = Vec::new();
        assert_eq!(lines(&mut a, |a| got = t.leaves_at(&ranks, a)), (5, 0), "a line per rank");
        assert_eq!(got, ranks.map(|r| leaves[r]));
    }

    #[test]
    fn update_leaves_sweep() {
        let mut a = arena();
        let k = OctKey::root();
        let mut t = C0Tree::new(k, CellData::default(), &mut a);
        t.apply(Op::Refine(k), &mut a).unwrap();
        t.sweep(&mut a, |_, d| Some(CellData { pressure: d.pressure + 1.0, ..*d }));
        t.leaves(&mut a, |_, _, d| assert_eq!(d.pressure, 1.0));
        // Internal node untouched.
        assert_eq!(t.get_data(k, &mut a).unwrap().pressure, 0.0);
    }

    #[test]
    fn forest_bookkeeping() {
        let mut a = arena();
        let mut f = C0Forest::default();
        let id0 = f.insert(C0Tree::new(OctKey::root().child(0), CellData::default(), &mut a));
        let id1 = f.insert(C0Tree::new(OctKey::root().child(1), CellData::default(), &mut a));
        assert_eq!(f.total_octants, 2);
        f.with_tree(id0, |t| t.apply(Op::Refine(OctKey::root().child(0)), &mut a)).unwrap();
        assert_eq!(f.total_octants, 10);
        assert_eq!(f.owner_of(&OctKey::root().child(0).child(3)), Some(id0));
        assert_eq!(f.owner_of(&OctKey::root().child(2)), None);
        let t = f.remove(id1);
        assert_eq!(t.octant_count(), 1);
        assert_eq!(f.total_octants, 9);
        // Slot reuse.
        let id2 = f.insert(C0Tree::new(OctKey::root().child(2), CellData::default(), &mut a));
        assert_eq!(id2, id1);
    }

    /// What a lookup costs besides its walk (`walk::tests::an_op_walks_its_path_once`
    /// counts that in both tiers): the tree counts it as an access when it
    /// finds the node, never for `containing_leaf`, and a key outside the
    /// subtree costs nothing.
    #[test]
    fn a_lookup_is_an_access_when_it_finds() {
        let mut a = arena();
        let k = OctKey::root().child(5);
        let mut t = C0Tree::new(k, CellData::default(), &mut a);
        t.apply(Op::Refine(k), &mut a).unwrap();
        t.apply(Op::Refine(k.child(3)), &mut a).unwrap();
        // (lines charged, `access` bumps) of one lookup.
        let mut cost = |t: &mut C0Tree, f: &mut dyn FnMut(&mut C0Tree, &mut NvbmArena)| {
            let (lines, access) = (a.stats.dram.read_lines, t.access);
            f(t, &mut a);
            (a.stats.dram.read_lines - lines, t.access - access)
        };
        let deep = k.child(3).child(6);
        assert_eq!(cost(&mut t, &mut |t, a| assert!(t.is_leaf(deep, a).is_some())), (3, 1.0));
        assert_eq!(cost(&mut t, &mut |t, a| assert!(t.get_data(k, a).is_some())), (2, 1.0));
        let below_a_leaf = k.child(2).child(0).child(0);
        assert_eq!(
            cost(&mut t, &mut |t, a| assert!(t.is_leaf(below_a_leaf, a).is_none())),
            (2, 0.0)
        );
        let outside = OctKey::root().child(1);
        assert_eq!(cost(&mut t, &mut |t, a| assert!(t.is_leaf(outside, a).is_none())), (0, 0.0));
        assert_eq!(
            cost(&mut t, &mut |t, a| assert!(t.containing_leaf(outside, a).is_none())),
            (0, 0.0)
        );
        assert_eq!(
            cost(&mut t, &mut |t, a| assert_eq!(t.containing_leaf(deep, a), Some(deep))),
            (3, 0.0)
        );
        // A refused op found its node: an access. A refine counts 9 more.
        let refused = cost(&mut t, &mut |t, a| assert!(t.apply(Op::Refine(k), a).is_err()));
        assert_eq!(refused, (1, 1.0));
        let before = t.access;
        t.apply(Op::Refine(deep), &mut a).unwrap();
        assert_eq!(t.access - before, 1.0 + 9.0);
    }

    #[test]
    fn lfu_coldest() {
        let mut arena = arena();
        let mut f = C0Forest::default();
        let a = f.insert(C0Tree::new(OctKey::root().child(0), CellData::default(), &mut arena));
        let b = f.insert(C0Tree::new(OctKey::root().child(1), CellData::default(), &mut arena));
        f.get_mut(a).access = 10.0;
        f.get_mut(b).access = 2.0;
        assert_eq!(f.coldest(), Some(b));
        f.decay_access(0.1);
        assert!((f.get(a).access - 1.0).abs() < 1e-12);
    }
}
