//! The volatile `C0` forest: frequently-accessed subtrees held in DRAM.
//!
//! `V_i`'s hot subtrees live here as slab-allocated trees — updates are
//! in place and cost DRAM latency, not NVBM latency. Each [`C0Tree`] is a
//! *complete* subtree of `V_i` rooted at `subtree_key`; its attachment
//! point in the NVBM tree holds a
//! [`ChildPtr::Volatile`](crate::octant::ChildPtr) handle carrying the
//! tree's forest id.
//!
//! A C0 node is the record image of octant layout v3 ([`crate::octant`]),
//! with slab ids for links. A leaf is one 64-byte line: key and payload.
//! An interior node is its navigation line — key and child slab ids — plus
//! a payload line in a second slab. The variant of the line is the
//! record's mask switch (a leaf has no links). Lines are read and written
//! only through the slab accessors, each of which counts the one line it
//! touches, and an operation charges what it counted to a [`Dram`] meter.
//! So a node costs what an NVBM octant of the same shape costs, at DRAM
//! latency:
//! - a sweep reads one line per node and writes one per rewritten leaf;
//! - a walk reads one line per node on its path, and a leaf's payload
//!   comes with its line; an interior node's is one more;
//! - refine writes 8 child lines and the parent's two; coarsen reads the
//!   8 child lines its mean needs and writes the one line the parent
//!   becomes.
//!
//! An operation handed a node by slab id (one a walk just found) holds its
//! navigation line and does not read it again.

use pmoctree_morton::OctKey;
use pmoctree_nvbm::{DeviceModel, MemLatency, MemStats, NvbmArena, VirtualClock, CACHELINE};

use crate::octant::CellData;

/// Slab index of the absent node.
const NIL: u32 = u32::MAX;

/// Why a C0 coarsening was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoarsenError {
    /// The target is itself a leaf.
    Leaf,
    /// Some child is refined deeper (removing it would drop a subtree).
    DeepChildren,
}

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
        charge(&mut self.clock, &mut self.stats, lat, reads, writes);
    }
}

/// A clock and counters of their own (the in-core baseline's), at the
/// default device's DRAM latency.
impl Dram for (&mut VirtualClock, &mut MemStats) {
    fn charge(&mut self, reads: u64, writes: u64) {
        charge(self.0, self.1, DeviceModel::default().dram, reads, writes);
    }
}

fn charge(
    clock: &mut VirtualClock,
    stats: &mut MemStats,
    lat: MemLatency,
    reads: u64,
    writes: u64,
) {
    clock.advance(reads * lat.read_ns + writes * lat.write_ns);
    stats.dram_read(reads as usize * CACHELINE, reads);
    stats.dram_write(writes as usize * CACHELINE, writes);
}

/// The lines one operation touched, counted by the slab accessors.
#[derive(Default)]
struct Touched {
    reads: u64,
    writes: u64,
}

/// Run one operation `f` and charge `dram` the lines it touched.
fn touching<R>(dram: &mut impl Dram, f: impl FnOnce(&mut Touched) -> R) -> R {
    let mut t = Touched::default();
    let r = f(&mut t);
    dram.charge(t.reads, t.writes);
    r
}

/// What a navigation line holds besides the key.
#[derive(Clone, Copy, Debug)]
enum Body {
    /// A leaf's payload.
    Leaf(CellData),
    /// An interior node's child slab ids (`NIL` for an empty slot) and
    /// the slab id of its payload line.
    Interior { children: [u32; 8], payload: u32 },
}

/// A C0 node's navigation line: all of a leaf, the first line of an
/// interior node.
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

/// Lines of one kind, addressed by slab id; freed ids are reused.
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

    /// Line `i`, uncounted: one the operation already holds, or host
    /// bookkeeping.
    fn held(&self, i: u32) -> &T {
        debug_assert!(!self.freed[i as usize], "access to a freed C0 line");
        &self.lines[i as usize]
    }

    /// Read line `i`: one line.
    fn read(&self, i: u32, t: &mut Touched) -> T {
        t.reads += 1;
        *self.held(i)
    }

    /// Overwrite line `i`: one line.
    fn write(&mut self, i: u32, line: T, t: &mut Touched) {
        self.held(i);
        t.writes += 1;
        self.lines[i as usize] = line;
    }

    /// Store `line` at a free id: one line.
    fn alloc(&mut self, line: T, t: &mut Touched) -> u32 {
        t.writes += 1;
        let i = self.free.pop().unwrap_or_else(|| {
            self.lines.push(line);
            self.freed.push(true);
            (self.lines.len() - 1) as u32
        });
        self.freed[i as usize] = false;
        self.lines[i as usize] = line;
        i
    }

    /// Give line `i` back: nothing touched.
    fn free(&mut self, i: u32) {
        self.held(i);
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
    root: u32,
    leaves: usize,
    /// Access-frequency estimate used for LFU eviction and transformation
    /// decisions; decayed once per time step.
    pub(crate) access: f64,
    /// Has the tree been modified since the last persist? Clean trees
    /// skip the merge entirely (their shadow is still exact).
    pub(crate) dirty: bool,
}

impl C0Tree {
    /// A single-leaf subtree rooted at `key`: one line written.
    pub fn new(key: OctKey, data: CellData, dram: &mut impl Dram) -> Self {
        let mut nodes = Slab::new();
        let root = touching(dram, |t| nodes.alloc(Node { key, body: Body::Leaf(data) }, t));
        C0Tree {
            subtree_key: key,
            nodes,
            payloads: Slab::new(),
            root,
            leaves: 1,
            access: 0.0,
            dirty: true,
        }
    }

    /// Number of live octants.
    pub fn octant_count(&self) -> usize {
        self.nodes.live()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// Node `i`'s navigation line, held by the caller.
    fn node(&self, i: u32) -> &Node {
        self.nodes.held(i)
    }

    /// The one walk: from the subtree root down the child links towards
    /// `key`, which must lie inside this subtree, reading each node's line.
    /// Returns the last node on the path that exists — `key`'s own, or the
    /// ancestor whose slot towards it is empty — with its line.
    fn walk(&self, key: OctKey, t: &mut Touched) -> (u32, Node) {
        let mut cur = self.root;
        let mut node = self.nodes.read(cur, t);
        for l in self.subtree_key.level()..key.level() {
            let Body::Interior { children, .. } = node.body else { break };
            let next = children[key.ancestor_at(l + 1).sibling_index()];
            if next == NIL {
                break;
            }
            cur = next;
            node = self.nodes.read(cur, t);
        }
        (cur, node)
    }

    /// Walk from the subtree root to `key`; returns the slab index if the
    /// octant exists. Charges one line per node on the path.
    pub fn find(&mut self, key: OctKey, dram: &mut impl Dram) -> Option<u32> {
        if !self.subtree_key.contains(&key) {
            return None;
        }
        let (i, node) = touching(dram, |t| self.walk(key, t));
        if node.key != key {
            return None;
        }
        self.access += 1.0;
        Some(i)
    }

    /// The leaf containing `key`'s region (one incremental descent —
    /// `None` if `key` is internal or outside this subtree).
    pub fn containing_leaf(&self, key: OctKey, dram: &mut impl Dram) -> Option<OctKey> {
        if !self.subtree_key.contains(&key) {
            return None;
        }
        let (_, node) = touching(dram, |t| self.walk(key, t));
        (node.key != key || matches!(node.body, Body::Leaf(_))).then_some(node.key)
    }

    /// Is node `i` a leaf?
    pub fn is_leaf(&self, i: u32) -> bool {
        matches!(self.node(i).body, Body::Leaf(_))
    }

    /// The payload that goes with navigation line `node`: a leaf's is on
    /// it; an interior node's is its payload line, one more read.
    fn payload(&self, node: &Node, t: &mut Touched) -> CellData {
        match node.body {
            Body::Leaf(d) => d,
            Body::Interior { payload, .. } => self.payloads.read(payload, t).0,
        }
    }

    /// The payload of the octant at `key`, if it exists: the walk to it,
    /// and an interior octant's payload line.
    pub fn get_data(&mut self, key: OctKey, dram: &mut impl Dram) -> Option<CellData> {
        let i = self.find(key, dram)?;
        Some(touching(dram, |t| self.payload(self.node(i), t)))
    }

    /// The payload of node `i`, reached without a walk (a leaf index
    /// named it): its line, and an interior node's payload line.
    pub fn data_at(&self, i: u32, dram: &mut impl Dram) -> CellData {
        touching(dram, |t| self.payload(&self.nodes.read(i, t), t))
    }

    /// Overwrite the payload of node `i`, which the caller found: one line
    /// written, a leaf's own or an interior node's payload line.
    pub fn set_data(&mut self, i: u32, d: CellData, dram: &mut impl Dram) {
        touching(dram, |t| match *self.node(i) {
            Node { key, body: Body::Leaf(_) } => {
                self.nodes.write(i, Node { key, body: Body::Leaf(d) }, t)
            }
            Node { body: Body::Interior { payload, .. }, .. } => {
                self.payloads.write(payload, PayloadLine(d), t)
            }
        });
        self.access += 1.0;
        self.dirty = true;
    }

    /// Split leaf `i`, which the caller found, into 8 children each
    /// inheriting its data: the 8 child lines written, then the parent's
    /// payload line and its navigation line. Returns the child slab
    /// indices. Panics if `i` is not a leaf.
    pub fn refine(&mut self, i: u32, dram: &mut impl Dram) -> [u32; 8] {
        let Node { key, body: Body::Leaf(data) } = *self.node(i) else {
            panic!("refine of non-leaf C0 node")
        };
        let children = touching(dram, |t| {
            let children = std::array::from_fn(|c| {
                self.nodes.alloc(Node { key: key.child(c), body: Body::Leaf(data) }, t)
            });
            let payload = self.payloads.alloc(PayloadLine(data), t);
            self.nodes.write(i, Node { key, body: Body::Interior { children, payload } }, t);
            children
        });
        self.leaves += 7;
        self.access += 9.0;
        self.dirty = true;
        children
    }

    /// Remove the children of node `i`, which the caller found (all must
    /// be leaves), making `i` a leaf again with the restriction of their
    /// payloads: the child lines read, the one line `i` becomes written.
    /// Fails (with no mutation) when `i` is a leaf or has non-leaf
    /// children.
    pub fn coarsen(&mut self, i: u32, dram: &mut impl Dram) -> Result<(), CoarsenError> {
        let Node { key, body: Body::Interior { children, payload } } = *self.node(i) else {
            return Err(CoarsenError::Leaf);
        };
        let live = children.into_iter().filter(|&c| c != NIL);
        let n = touching(dram, |t| {
            // Restriction: the surviving leaf takes the mean of its
            // children (all backends agree on this operator, including the
            // linear octree which has no stored internal payload to fall
            // back on).
            let mut kids = [CellData::default(); 8];
            let mut n = 0;
            let mut deep = false;
            for c in live.clone() {
                match self.nodes.read(c, t).body {
                    Body::Leaf(d) => {
                        kids[n] = d;
                        n += 1;
                    }
                    Body::Interior { .. } => deep = true,
                }
            }
            if deep {
                return Err(CoarsenError::DeepChildren);
            }
            live.for_each(|c| self.nodes.free(c));
            self.payloads.free(payload);
            let body = Body::Leaf(CellData::restrict(&kids[..n]));
            self.nodes.write(i, Node { key, body }, t);
            Ok(n)
        })?;
        self.leaves = self.leaves + 1 - n;
        self.access += 1.0;
        self.dirty = true;
        Ok(())
    }

    /// Visit the nodes in pre-order (children in Morton order), reading
    /// each node's line once.
    fn visit(&self, t: &mut Touched, mut f: impl FnMut(u32, &Node, &mut Touched)) {
        let mut stack = vec![self.root];
        while let Some(i) = stack.pop() {
            let node = self.nodes.read(i, t);
            if let Body::Interior { children, .. } = node.body {
                stack.extend(children.iter().rev().filter(|&&c| c != NIL));
            }
            f(i, &node, t);
        }
    }

    /// Leaf-only pre-order traversal: one line read per node.
    pub fn for_each_leaf(&self, dram: &mut impl Dram, mut f: impl FnMut(OctKey, &CellData)) {
        self.for_each_leaf_slot(dram, |_, k, d| f(k, d));
    }

    /// [`C0Tree::for_each_leaf`], also naming each leaf's slab id.
    pub fn for_each_leaf_slot(
        &self,
        dram: &mut impl Dram,
        mut f: impl FnMut(u32, OctKey, &CellData),
    ) {
        touching(dram, |t| {
            self.visit(t, |i, node, _| {
                if let Body::Leaf(d) = &node.body {
                    f(i, node.key, d);
                }
            })
        });
    }

    /// Mutable leaf sweep (solver relaxation): `f` returns the new data.
    /// One line read per node, one written per rewritten leaf.
    pub fn update_leaves(
        &mut self,
        dram: &mut impl Dram,
        mut f: impl FnMut(OctKey, &CellData) -> Option<CellData>,
    ) {
        let (reads, writes) = touching(dram, |t| {
            let mut stack = vec![self.root];
            while let Some(i) = stack.pop() {
                let Node { key, body } = self.nodes.read(i, t);
                match body {
                    Body::Leaf(d) => {
                        if let Some(nd) = f(key, &d) {
                            self.nodes.write(i, Node { key, body: Body::Leaf(nd) }, t);
                        }
                    }
                    Body::Interior { children, .. } => {
                        stack.extend(children.iter().rev().filter(|&&c| c != NIL))
                    }
                }
            }
            (t.reads, t.writes)
        });
        self.access += (reads + writes) as f64;
        self.dirty |= writes > 0;
    }

    /// Every live octant in pre-order, `(key, data, is_leaf)` — what a
    /// merge writes out to NVBM: each node's lines read once, one for a
    /// leaf and two for an interior node.
    pub fn collect(&self, dram: &mut impl Dram) -> Vec<(OctKey, CellData, bool)> {
        let mut out = Vec::with_capacity(self.octant_count());
        touching(dram, |t| {
            self.visit(t, |_, node, t| {
                let leaf = matches!(node.body, Body::Leaf(_));
                out.push((node.key, self.payload(node, t), leaf));
            })
        });
        out
    }

    /// The leaves numbered `ranks` (each below [`C0Tree::leaf_count`]) in
    /// pre-order, in the order asked: one line read per rank. Numbering
    /// the leaves is host bookkeeping, so the walk that numbers them is
    /// not charged, and no list of them is built.
    pub fn leaves_at(&self, ranks: &[usize], dram: &mut impl Dram) -> Vec<(OctKey, CellData)> {
        let mut want: Vec<(usize, usize)> =
            ranks.iter().enumerate().map(|(at, &r)| (r, at)).collect();
        want.sort_unstable();
        let mut next = want.iter().peekable();
        let mut slot = vec![NIL; ranks.len()];
        let mut rank = 0;
        self.visit(&mut Touched::default(), |i, node, _| {
            if let Body::Leaf(_) = node.body {
                while let Some(&(_, at)) = next.next_if(|w| w.0 == rank) {
                    slot[at] = i;
                }
                rank += 1;
            }
        });
        touching(dram, |t| {
            let leaf = |i| match self.nodes.read(i, t) {
                Node { key, body: Body::Leaf(d) } => (key, d),
                _ => unreachable!("a rank numbers a leaf"),
            };
            slot.into_iter().map(leaf).collect()
        })
    }

    /// Lines the tree occupies: one per leaf, two per interior node.
    pub(crate) fn lines(&self) -> usize {
        self.nodes.live() + self.payloads.live()
    }

    /// Rebuild a subtree from a pre-order octant list (used when promoting
    /// a hot NVBM subtree into DRAM): every line of it written once, one
    /// per leaf and two per interior node. The first entry must be the
    /// subtree root; parents must precede children.
    pub fn from_octants(
        subtree_key: OctKey,
        octants: &[(OctKey, CellData)],
        dram: &mut impl Dram,
    ) -> Self {
        assert!(
            !octants.is_empty() && octants[0].0 == subtree_key,
            "first octant must be the root"
        );
        // Host bookkeeping first: each entry's children, by list position,
        // which is also its slab id.
        let mut children = vec![[NIL; 8]; octants.len()];
        let mut path = vec![0usize];
        for (j, &(key, _)) in octants.iter().enumerate().skip(1) {
            while path.last().is_some_and(|&p| !octants[p].0.contains(&key)) {
                path.pop();
            }
            let p = *path.last().expect("octant outside the subtree");
            assert!(
                key.parent() == Some(octants[p].0),
                "pre-order promotion: parent must precede child"
            );
            children[p][key.sibling_index()] = j as u32;
            path.push(j);
        }
        let mut tree = C0Tree {
            subtree_key,
            nodes: Slab::new(),
            payloads: Slab::new(),
            root: 0,
            leaves: 0,
            access: 0.0,
            // A promoted tree is byte-identical to its NVBM shadow.
            dirty: false,
        };
        touching(dram, |t| {
            for (&(key, data), children) in octants.iter().zip(children) {
                let body = if children == [NIL; 8] {
                    tree.leaves += 1;
                    Body::Leaf(data)
                } else {
                    let payload = tree.payloads.alloc(PayloadLine(data), t);
                    Body::Interior { children, payload }
                };
                tree.nodes.alloc(Node { key, body }, t);
            }
        });
        tree
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
    /// Empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a tree; returns its volatile id.
    pub fn insert(&mut self, tree: C0Tree) -> u32 {
        self.total_octants += tree.octant_count();
        for (i, slot) in self.trees.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(tree);
                return i as u32;
            }
        }
        self.trees.push(Some(tree));
        (self.trees.len() - 1) as u32
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

    /// Borrow a tree mutably. Note: callers adjusting octant counts must
    /// go through [`Self::with_tree`] so `total_octants` stays accurate.
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
        self.trees
            .iter()
            .enumerate()
            .find(|(_, t)| t.as_ref().is_some_and(|t| t.subtree_key.contains(key)))
            .map(|(i, _)| i as u32)
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

    /// Decay all access counters (called once per time step so frequency
    /// reflects the recent past, not all history).
    pub fn decay_access(&mut self, factor: f64) {
        for t in self.trees.iter_mut().flatten() {
            t.access *= factor;
        }
    }

    /// Number of live trees.
    pub fn len(&self) -> usize {
        self.trees.iter().flatten().count()
    }

    /// Is the forest empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::c1::{merge_subtree, sweep_leaves};
    use crate::octant::PmStore;
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
        let i = t.find(k, &mut a).unwrap();
        assert!(t.is_leaf(i));
        assert_eq!(t.get_data(k, &mut a).unwrap().phi, 1.0);
    }

    #[test]
    fn refine_creates_eight_children() {
        let mut a = arena();
        let k = OctKey::root().child(0);
        let mut t = C0Tree::new(k, CellData::default(), &mut a);
        let root = t.find(k, &mut a).unwrap();
        let kids = t.refine(root, &mut a);
        assert_eq!((t.octant_count(), t.leaf_count()), (9, 8));
        assert!(!t.is_leaf(root));
        for (c, &ki) in kids.iter().enumerate() {
            assert_eq!(t.node(ki).key, k.child(c));
            assert!(t.is_leaf(ki));
        }
    }

    #[test]
    fn coarsen_restores_leaf() {
        let mut a = arena();
        let k = OctKey::root().child(0);
        let mut t = C0Tree::new(k, CellData::default(), &mut a);
        let root = t.find(k, &mut a).unwrap();
        let kids = t.refine(root, &mut a);
        t.refine(kids[1], &mut a);
        assert_eq!(t.coarsen(root, &mut a), Err(CoarsenError::DeepChildren));
        t.coarsen(kids[1], &mut a).unwrap();
        t.coarsen(root, &mut a).unwrap();
        assert_eq!((t.octant_count(), t.leaf_count(), t.lines()), (1, 1, 1));
        assert_eq!(t.coarsen(root, &mut a), Err(CoarsenError::Leaf));
        assert!(t.is_leaf(root));
    }

    #[test]
    fn refine_writes_ten_lines_and_coarsen_nine() {
        let mut a = arena();
        let k = OctKey::root().child(4);
        let d = CellData { vof: 0.25, ..Default::default() };
        let mut t = C0Tree::new(k, d, &mut a);
        let root = t.find(k, &mut a).unwrap();
        // 8 child lines, the parent's navigation and payload lines.
        assert_eq!(lines(&mut a, |a| _ = t.refine(root, a)), (0, 10));
        // The parent's payload moved to its payload line: one more read.
        assert_eq!(lines(&mut a, |a| assert_eq!(t.data_at(root, a), d)), (2, 0));
        // The 8 child lines the mean needs, and the one line the parent
        // becomes.
        assert_eq!(lines(&mut a, |a| t.coarsen(root, a).unwrap()), (8, 1));
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
        let root = t.find(k, &mut a).unwrap();
        let kids = t.refine(root, &mut a);
        t.coarsen(root, &mut a).unwrap();
        t.is_leaf(kids[3]);
    }

    #[test]
    fn find_descends_by_key() {
        let mut a = arena();
        let k = OctKey::root().child(5);
        let mut t = C0Tree::new(k, CellData::default(), &mut a);
        let root = t.find(k, &mut a).unwrap();
        let kids = t.refine(root, &mut a);
        t.refine(kids[3], &mut a);
        let deep = k.child(3).child(6);
        let i = t.find(deep, &mut a).unwrap();
        assert_eq!(t.node(i).key, deep);
        assert!(t.find(k.child(2).child(0), &mut a).is_none(), "unrefined region");
        assert!(t.find(OctKey::root().child(1), &mut a).is_none(), "outside subtree");
    }

    #[test]
    fn collect_and_rebuild_roundtrip() {
        let mut a = arena();
        let k = OctKey::root().child(7);
        let mut t = C0Tree::new(k, CellData { vof: 0.5, ..Default::default() }, &mut a);
        let root = t.find(k, &mut a).unwrap();
        let kids = t.refine(root, &mut a);
        t.refine(kids[0], &mut a);
        // 15 leaves and 2 interior nodes: 15 + 2 × 2 lines either way.
        let mut collected = Vec::new();
        assert_eq!(lines(&mut a, |a| collected = t.collect(a)), (19, 0));
        assert_eq!(collected.len(), 17);
        let pairs: Vec<_> = collected.iter().map(|&(k, d, _)| (k, d)).collect();
        let mut rebuilt = None;
        assert_eq!(lines(&mut a, |a| rebuilt = Some(C0Tree::from_octants(k, &pairs, a))), (0, 19));
        let rebuilt = rebuilt.unwrap();
        assert_eq!((rebuilt.octant_count(), rebuilt.leaf_count()), (17, 15));
        assert_eq!(rebuilt.collect(&mut a), collected);
    }

    #[test]
    fn leaves_at_numbers_the_leaves_in_pre_order() {
        let mut a = arena();
        let k = OctKey::root().child(1);
        let mut t = C0Tree::new(k, CellData::default(), &mut a);
        let root = t.find(k, &mut a).unwrap();
        let kids = t.refine(root, &mut a);
        t.refine(kids[2], &mut a);
        let leaves: Vec<_> =
            t.collect(&mut a).into_iter().filter(|o| o.2).map(|(k, d, _)| (k, d)).collect();
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
        let root = t.find(k, &mut a).unwrap();
        t.refine(root, &mut a);
        t.update_leaves(&mut a, |_, d| Some(CellData { pressure: d.pressure + 1.0, ..*d }));
        t.for_each_leaf(&mut a, |_, d| assert_eq!(d.pressure, 1.0));
        // Internal node untouched.
        assert_eq!(t.get_data(k, &mut a).unwrap().pressure, 0.0);
    }

    /// The two tiers charge a sweep alike: one subtree held in C0, then
    /// merged into NVBM exclusive to the working epoch, swept read-only
    /// and with every leaf rewritten.
    #[test]
    fn a_c0_sweep_reads_one_line_per_octant() {
        let mut s = PmStore::new(NvbmArena::new(1 << 20, DeviceModel::default()));
        let k = OctKey::root();
        let mut t = C0Tree::new(k, CellData::default(), &mut s.arena);
        let root = t.find(k, &mut s.arena).unwrap();
        let kids = t.refine(root, &mut s.arena);
        let grand = t.refine(kids[2], &mut s.arena);
        t.refine(grand[7], &mut s.arena);
        t.refine(kids[5], &mut s.arena);
        let (octants, leaves) = (t.octant_count() as u64, t.leaf_count() as u64);
        assert_eq!((octants, leaves), (33, 29));
        let image = t.collect(&mut s.arena);
        let (off, _) = merge_subtree(&mut s, &image, None, 1).unwrap();
        let nvbm = |s: &PmStore| (s.arena.stats.nvbm.read_lines, s.arena.stats.nvbm.write_lines);
        let dram = |s: &PmStore| (s.arena.stats.dram.read_lines, s.arena.stats.dram.write_lines);
        let bump = |_: OctKey, d: &CellData| Some(CellData { phi: d.phi + 1.0, ..*d });
        for rewrite in [false, true] {
            let f = |k, d: &CellData| if rewrite { bump(k, d) } else { None };
            let (r0, w0) = nvbm(&s);
            assert_eq!(sweep_leaves(&mut s, off, 1, &mut f.clone(), &mut |_| {}), Ok(off));
            let (r1, w1) = nvbm(&s);
            let (d0, e0) = dram(&s);
            t.update_leaves(&mut s.arena, f);
            let (d1, e1) = dram(&s);
            let want = (octants, if rewrite { leaves } else { 0 });
            assert_eq!((r1 - r0, w1 - w0), want, "NVBM, rewrite: {rewrite}");
            assert_eq!((d1 - d0, e1 - e0), want, "C0, rewrite: {rewrite}");
        }
        // A read-only leaf sweep is the same walk.
        let (d0, _) = dram(&s);
        t.for_each_leaf(&mut s.arena, |_, _| {});
        assert_eq!(dram(&s).0 - d0, octants);
    }

    #[test]
    fn forest_bookkeeping() {
        let mut a = arena();
        let mut f = C0Forest::new();
        let id0 = f.insert(C0Tree::new(OctKey::root().child(0), CellData::default(), &mut a));
        let id1 = f.insert(C0Tree::new(OctKey::root().child(1), CellData::default(), &mut a));
        assert_eq!(f.total_octants, 2);
        f.with_tree(id0, |t| {
            let r = t.find(OctKey::root().child(0), &mut a).unwrap();
            t.refine(r, &mut a);
        });
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

    #[test]
    fn lookups_charge_a_line_per_node_visited() {
        let mut a = arena();
        let k = OctKey::root().child(5);
        let mut t = C0Tree::new(k, CellData::default(), &mut a);
        let root = t.find(k, &mut a).unwrap();
        let kids = t.refine(root, &mut a);
        t.refine(kids[3], &mut a);
        // (lines charged, `access` bumps) of one lookup.
        let mut cost = |t: &mut C0Tree, f: &mut dyn FnMut(&mut C0Tree, &mut NvbmArena)| {
            let (lines, access) = (a.stats.dram.read_lines, t.access);
            f(t, &mut a);
            (a.stats.dram.read_lines - lines, t.access - access)
        };
        let deep = k.child(3).child(6);
        // Found: every node on the path, and the tree counts as accessed.
        assert_eq!(cost(&mut t, &mut |t, a| assert!(t.find(deep, a).is_some())), (3, 1.0));
        assert_eq!(cost(&mut t, &mut |t, a| assert!(t.find(k, a).is_some())), (1, 1.0));
        // A found leaf's payload came with its line; an interior node's is
        // its payload line.
        assert_eq!(cost(&mut t, &mut |t, a| assert!(t.get_data(deep, a).is_some())), (3, 1.0));
        assert_eq!(cost(&mut t, &mut |t, a| assert!(t.get_data(k, a).is_some())), (2, 1.0));
        // Missing: the nodes up to the empty slot, no access.
        let below_a_leaf = k.child(2).child(0).child(0);
        assert_eq!(cost(&mut t, &mut |t, a| assert!(t.find(below_a_leaf, a).is_none())), (2, 0.0));
        // Outside the subtree: nothing is visited.
        let outside = OctKey::root().child(1);
        assert_eq!(cost(&mut t, &mut |t, a| assert!(t.find(outside, a).is_none())), (0, 0.0));
        assert_eq!(
            cost(&mut t, &mut |t, a| assert!(t.containing_leaf(outside, a).is_none())),
            (0, 0.0)
        );
        // `containing_leaf` visits the same nodes and never counts as access.
        let mut leaf_of = |key, want, lines| {
            assert_eq!(
                cost(&mut t, &mut |t, a| assert_eq!(t.containing_leaf(key, a), want)),
                (lines, 0.0)
            );
        };
        leaf_of(deep, Some(deep), 3);
        leaf_of(below_a_leaf, Some(k.child(2)), 2);
        leaf_of(k.child(3), None, 2); // internal
    }

    #[test]
    fn lfu_coldest() {
        let mut arena = arena();
        let mut f = C0Forest::new();
        let a = f.insert(C0Tree::new(OctKey::root().child(0), CellData::default(), &mut arena));
        let b = f.insert(C0Tree::new(OctKey::root().child(1), CellData::default(), &mut arena));
        f.get_mut(a).access = 10.0;
        f.get_mut(b).access = 2.0;
        assert_eq!(f.coldest(), Some(b));
        f.decay_access(0.1);
        assert!((f.get(a).access - 1.0).abs() < 1e-12);
    }
}
