//! The volatile `C0` forest: frequently-accessed subtrees held in DRAM.
//!
//! `V_i`'s hot subtrees live here as ordinary slab-allocated trees —
//! updates are in place and cost DRAM latency, not NVBM latency. Each
//! [`C0Tree`] is a *complete* subtree of `V_i` rooted at `subtree_key`;
//! its attachment point in the NVBM tree holds a
//! [`ChildPtr::Volatile`](crate::octant::ChildPtr) handle carrying the
//! tree's forest id.
//!
//! DRAM traffic is metered through the owning arena's clock/stats so the
//! write-fraction and execution-time experiments see both tiers.

use pmoctree_morton::OctKey;
use pmoctree_nvbm::NvbmArena;

use crate::octant::{CellData, OCTANT_SIZE};

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

/// Cachelines per whole-node visit (a node is octant-sized).
const NODE_LINES: u64 = (OCTANT_SIZE / 64) as u64;

/// C0 nodes are charged like their on-media image, which since octant
/// layout v2 is split hot/cold: children + key + presence mask share the
/// first cacheline, the payload lives on the second. A descent hop or a
/// payload touch therefore costs one line, not `NODE_LINES`.
const CACHELINE: u64 = 64;

#[derive(Clone, Debug)]
struct C0Node {
    key: OctKey,
    children: [u32; 8],
    data: CellData,
    live: bool,
}

/// One DRAM-resident subtree of `V_i`.
#[derive(Clone, Debug)]
pub struct C0Tree {
    /// Key of the subtree root (its position inside the octree).
    pub subtree_key: OctKey,
    nodes: Vec<C0Node>,
    free: Vec<u32>,
    root: u32,
    live: usize,
    /// Access-frequency estimate used for LFU eviction and transformation
    /// decisions; decayed once per time step.
    pub access: f64,
    /// Has the tree been modified since the last persist? Clean trees
    /// skip the merge entirely (their shadow is still exact).
    pub dirty: bool,
}

fn charge_read(arena: &mut NvbmArena, nodes: u64) {
    let m = arena.model().dram;
    arena.clock.advance(nodes * NODE_LINES * m.read_ns);
    arena.stats.dram_read((nodes * OCTANT_SIZE as u64) as usize, nodes * NODE_LINES);
    arena.tracer.counter_add("c0.node_reads", nodes);
}

fn charge_write(arena: &mut NvbmArena, nodes: u64) {
    let m = arena.model().dram;
    arena.clock.advance(nodes * NODE_LINES * m.write_ns);
    arena.stats.dram_write((nodes * OCTANT_SIZE as u64) as usize, nodes * NODE_LINES);
    arena.tracer.counter_add("c0.node_writes", nodes);
}

/// Charge `lines` single-cacheline reads (hot-line hops, payload reads).
fn charge_read_lines(arena: &mut NvbmArena, lines: u64) {
    let m = arena.model().dram;
    arena.clock.advance(lines * m.read_ns);
    arena.stats.dram_read((lines * CACHELINE) as usize, lines);
    arena.tracer.counter_add("c0.line_reads", lines);
}

/// Charge `lines` single-cacheline writes.
fn charge_write_lines(arena: &mut NvbmArena, lines: u64) {
    let m = arena.model().dram;
    arena.clock.advance(lines * m.write_ns);
    arena.stats.dram_write((lines * CACHELINE) as usize, lines);
    arena.tracer.counter_add("c0.line_writes", lines);
}

impl C0Tree {
    /// A single-leaf subtree rooted at `key`.
    pub fn new(key: OctKey, data: CellData) -> Self {
        C0Tree {
            subtree_key: key,
            nodes: vec![C0Node { key, children: [NIL; 8], data, live: true }],
            free: Vec::new(),
            root: 0,
            live: 1,
            access: 0.0,
            dirty: true,
        }
    }

    /// Number of live octants.
    pub fn octant_count(&self) -> usize {
        self.live
    }

    fn node(&self, i: u32) -> &C0Node {
        let n = &self.nodes[i as usize];
        debug_assert!(n.live, "access to freed C0 node");
        n
    }

    fn alloc_node(&mut self, n: C0Node) -> u32 {
        self.live += 1;
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = n;
            i
        } else {
            self.nodes.push(n);
            (self.nodes.len() - 1) as u32
        }
    }

    fn free_node(&mut self, i: u32) {
        self.nodes[i as usize].live = false;
        self.free.push(i);
        self.live -= 1;
    }

    /// The one walk: from the subtree root down the child links towards
    /// `key`, which must lie inside this subtree. Returns the last node on
    /// the path that exists — `key`'s own, or the ancestor whose slot
    /// towards it is empty — and the number of nodes visited. Charges
    /// nothing; the callers do.
    fn walk(&self, key: OctKey) -> (u32, u64) {
        let mut cur = self.root;
        let mut hops = 1u64;
        for l in self.subtree_key.level()..key.level() {
            let next = self.node(cur).children[key.ancestor_at(l + 1).sibling_index()];
            if next == NIL {
                break;
            }
            cur = next;
            hops += 1;
        }
        (cur, hops)
    }

    /// Walk from the subtree root to `key`; returns the slab index if the
    /// octant exists. Charges one DRAM node-read per hop.
    pub fn find(&mut self, key: OctKey, arena: &mut NvbmArena) -> Option<u32> {
        if !self.subtree_key.contains(&key) {
            return None;
        }
        let (node, hops) = self.walk(key);
        charge_read_lines(arena, hops);
        if self.node(node).key != key {
            return None;
        }
        self.access += 1.0;
        Some(node)
    }

    /// The leaf containing `key`'s region (one incremental descent —
    /// `None` if `key` is internal or outside this subtree).
    pub fn containing_leaf(&mut self, key: OctKey, arena: &mut NvbmArena) -> Option<OctKey> {
        if !self.subtree_key.contains(&key) {
            return None;
        }
        let (node, hops) = self.walk(key);
        charge_read_lines(arena, hops);
        let stopped_at = self.node(node).key;
        (stopped_at != key || self.is_leaf(node)).then_some(stopped_at)
    }

    /// Is node `i` a leaf?
    pub fn is_leaf(&self, i: u32) -> bool {
        self.node(i).children.iter().all(|&c| c == NIL)
    }

    /// Read a node's payload.
    pub fn data_of(&mut self, i: u32, arena: &mut NvbmArena) -> CellData {
        charge_read_lines(arena, 1);
        self.node(i).data
    }

    /// Overwrite a node's payload (in place — this is DRAM).
    pub fn set_data(&mut self, i: u32, d: CellData, arena: &mut NvbmArena) {
        charge_write_lines(arena, 1);
        self.access += 1.0;
        self.dirty = true;
        self.nodes[i as usize].data = d;
    }

    /// Split leaf `i` into 8 children, each inheriting the parent's data.
    /// Returns the child slab indices. Panics if `i` is not a leaf or is
    /// at the maximum level.
    pub fn refine(&mut self, i: u32, arena: &mut NvbmArena) -> [u32; 8] {
        assert!(self.is_leaf(i), "refine of non-leaf C0 node");
        let (key, data) = {
            let n = self.node(i);
            (n.key, n.data)
        };
        let mut out = [NIL; 8];
        for (c, slot) in out.iter_mut().enumerate() {
            let ck = key.child(c);
            *slot = self.alloc_node(C0Node { key: ck, children: [NIL; 8], data, live: true });
        }
        self.nodes[i as usize].children = out;
        charge_write_lines(arena, 8 * NODE_LINES + 1); // 8 whole children + parent's nav line
        self.access += 9.0;
        self.dirty = true;
        out
    }

    /// Remove the children of node `i` (all must be leaves), making `i` a
    /// leaf again. The parent keeps its own payload. Fails (with no
    /// mutation) when `i` is a leaf or has non-leaf children.
    pub fn coarsen(&mut self, i: u32, arena: &mut NvbmArena) -> Result<(), CoarsenError> {
        let children = self.node(i).children;
        if children.iter().all(|&c| c == NIL) {
            return Err(CoarsenError::Leaf);
        }
        if children.iter().any(|&c| c != NIL && !self.is_leaf(c)) {
            return Err(CoarsenError::DeepChildren);
        }
        // Restriction: the surviving leaf takes the mean of its children
        // (all backends agree on this operator, including the linear
        // octree which has no stored internal payload to fall back on).
        let mut mean = CellData::default();
        for &c in &children {
            if c != NIL {
                let d = &self.nodes[c as usize].data;
                mean.phi += d.phi / 8.0;
                mean.pressure += d.pressure / 8.0;
                mean.vof += d.vof / 8.0;
                mean.work += d.work / 8.0;
                self.free_node(c);
            }
        }
        self.nodes[i as usize].data = mean;
        self.nodes[i as usize].children = [NIL; 8];
        charge_write_lines(arena, NODE_LINES);
        self.access += 1.0;
        self.dirty = true;
        Ok(())
    }

    /// Pre-order traversal of live octants: `(key, data, is_leaf)`.
    /// Charges one DRAM read per visited node.
    pub fn for_each(&mut self, arena: &mut NvbmArena, mut f: impl FnMut(OctKey, &CellData, bool)) {
        let mut stack = vec![self.root];
        let mut visited = 0u64;
        while let Some(i) = stack.pop() {
            visited += 1;
            let n = &self.nodes[i as usize];
            let leaf = n.children.iter().all(|&c| c == NIL);
            f(n.key, &n.data, leaf);
            for &c in n.children.iter().rev() {
                if c != NIL {
                    stack.push(c);
                }
            }
        }
        charge_read(arena, visited);
    }

    /// Leaf-only traversal.
    pub fn for_each_leaf(&mut self, arena: &mut NvbmArena, mut f: impl FnMut(OctKey, &CellData)) {
        self.for_each(arena, |k, d, leaf| {
            if leaf {
                f(k, d);
            }
        });
    }

    /// Mutable leaf sweep (solver relaxation): `f` returns the new data.
    pub fn update_leaves(
        &mut self,
        arena: &mut NvbmArena,
        mut f: impl FnMut(OctKey, &CellData) -> Option<CellData>,
    ) {
        let mut stack = vec![self.root];
        let mut reads = 0u64;
        let mut writes = 0u64;
        while let Some(i) = stack.pop() {
            reads += 1;
            let leaf = self.nodes[i as usize].children.iter().all(|&c| c == NIL);
            if leaf {
                let n = &self.nodes[i as usize];
                if let Some(nd) = f(n.key, &n.data) {
                    self.nodes[i as usize].data = nd;
                    writes += 1;
                }
            } else {
                for &c in self.nodes[i as usize].children.iter().rev() {
                    if c != NIL {
                        stack.push(c);
                    }
                }
            }
        }
        charge_read(arena, reads);
        charge_write(arena, writes);
        self.access += (reads + writes) as f64;
        if writes > 0 {
            self.dirty = true;
        }
    }

    /// Collect all live octants in pre-order (used when merging the
    /// subtree out to NVBM). No DRAM charge: the merge itself charges.
    pub fn collect(&self) -> Vec<(OctKey, CellData, bool)> {
        let mut out = Vec::with_capacity(self.live);
        let mut stack = vec![self.root];
        while let Some(i) = stack.pop() {
            let n = &self.nodes[i as usize];
            let leaf = n.children.iter().all(|&c| c == NIL);
            out.push((n.key, n.data, leaf));
            for &c in n.children.iter().rev() {
                if c != NIL {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// Rebuild a subtree from a pre-order octant list (used when promoting
    /// a hot NVBM subtree into DRAM). The first entry must be the subtree
    /// root; parents must precede children.
    pub fn from_octants(subtree_key: OctKey, octants: &[(OctKey, CellData)]) -> Self {
        assert!(
            !octants.is_empty() && octants[0].0 == subtree_key,
            "first octant must be the root"
        );
        let mut t = C0Tree::new(subtree_key, octants[0].1);
        // A promoted tree is byte-identical to its NVBM shadow.
        t.dirty = false;
        for &(key, data) in &octants[1..] {
            // Parent is guaranteed present (pre-order).
            let parent_key = key.parent().expect("non-root octant has a parent");
            let (pi, _) = t.walk(parent_key);
            assert!(t.node(pi).key == parent_key, "pre-order promotion: parent must precede child");
            let idx = key.sibling_index();
            let ni = t.alloc_node(C0Node { key, children: [NIL; 8], data, live: true });
            t.nodes[pi as usize].children[idx] = ni;
        }
        t
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
    use pmoctree_nvbm::DeviceModel;

    fn arena() -> NvbmArena {
        NvbmArena::new(1 << 16, DeviceModel::default())
    }

    #[test]
    fn single_leaf_tree() {
        let mut a = arena();
        let k = OctKey::root().child(2);
        let mut t = C0Tree::new(k, CellData { phi: 1.0, ..Default::default() });
        assert_eq!(t.octant_count(), 1);
        let i = t.find(k, &mut a).unwrap();
        assert!(t.is_leaf(i));
        assert_eq!(t.data_of(i, &mut a).phi, 1.0);
    }

    #[test]
    fn refine_creates_eight_children() {
        let mut a = arena();
        let k = OctKey::root().child(0);
        let mut t = C0Tree::new(k, CellData::default());
        let root = t.find(k, &mut a).unwrap();
        let kids = t.refine(root, &mut a);
        assert_eq!(t.octant_count(), 9);
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
        let mut t = C0Tree::new(k, CellData::default());
        let root = t.find(k, &mut a).unwrap();
        t.refine(root, &mut a);
        t.coarsen(root, &mut a).unwrap();
        assert_eq!(t.octant_count(), 1);
        assert_eq!(t.coarsen(root, &mut a), Err(CoarsenError::Leaf));
        assert!(t.is_leaf(root));
    }

    #[test]
    fn find_descends_by_key() {
        let mut a = arena();
        let k = OctKey::root().child(5);
        let mut t = C0Tree::new(k, CellData::default());
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
        let mut t = C0Tree::new(k, CellData { vof: 0.5, ..Default::default() });
        let root = t.find(k, &mut a).unwrap();
        let kids = t.refine(root, &mut a);
        t.refine(kids[0], &mut a);
        let collected = t.collect();
        assert_eq!(collected.len(), 17);
        let rebuilt =
            C0Tree::from_octants(k, &collected.iter().map(|&(k, d, _)| (k, d)).collect::<Vec<_>>());
        assert_eq!(rebuilt.octant_count(), 17);
        let mut got = rebuilt.collect();
        let mut want = collected;
        got.sort_by_key(|x| x.0);
        want.sort_by_key(|x| x.0);
        assert_eq!(got, want);
    }

    #[test]
    fn update_leaves_sweep() {
        let mut a = arena();
        let k = OctKey::root();
        let mut t = C0Tree::new(k, CellData::default());
        let root = t.find(k, &mut a).unwrap();
        t.refine(root, &mut a);
        t.update_leaves(&mut a, |_, d| Some(CellData { pressure: d.pressure + 1.0, ..*d }));
        t.for_each_leaf(&mut a, |_, d| assert_eq!(d.pressure, 1.0));
        // Internal node untouched.
        let i = t.find(k, &mut a).unwrap();
        assert_eq!(t.data_of(i, &mut a).pressure, 0.0);
    }

    #[test]
    fn dram_charges_metered() {
        let mut a = arena();
        let k = OctKey::root();
        let mut t = C0Tree::new(k, CellData::default());
        let before_w = a.stats.dram.write_lines;
        let root = t.find(k, &mut a).unwrap();
        t.refine(root, &mut a);
        assert!(a.stats.dram.write_lines > before_w);
        assert_eq!(a.stats.nvbm.write_lines, 0, "no NVBM traffic from C0 ops");
        assert!(a.clock.now_ns() > 0);
    }

    #[test]
    fn forest_bookkeeping() {
        let mut a = arena();
        let mut f = C0Forest::new();
        let id0 = f.insert(C0Tree::new(OctKey::root().child(0), CellData::default()));
        let id1 = f.insert(C0Tree::new(OctKey::root().child(1), CellData::default()));
        assert_eq!(f.total_octants, 2);
        f.with_tree(id0, |t| {
            let (r, _) = t.walk(OctKey::root().child(0));
            t.refine(r, &mut a);
        });
        assert_eq!(f.total_octants, 10);
        assert_eq!(f.owner_of(&OctKey::root().child(0).child(3)), Some(id0));
        assert_eq!(f.owner_of(&OctKey::root().child(2)), None);
        let t = f.remove(id1);
        assert_eq!(t.octant_count(), 1);
        assert_eq!(f.total_octants, 9);
        // Slot reuse.
        let id2 = f.insert(C0Tree::new(OctKey::root().child(2), CellData::default()));
        assert_eq!(id2, id1);
    }

    #[test]
    fn lookups_charge_a_line_per_node_visited() {
        let mut a = arena();
        let k = OctKey::root().child(5);
        let mut t = C0Tree::new(k, CellData::default());
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
        let mut f = C0Forest::new();
        let a = f.insert(C0Tree::new(OctKey::root().child(0), CellData::default()));
        let b = f.insert(C0Tree::new(OctKey::root().child(1), CellData::default()));
        f.get_mut(a).access = 10.0;
        f.get_mut(b).access = 2.0;
        assert_eq!(f.coldest(), Some(b));
        f.decay_access(0.1);
        assert!((f.get(a).access - 1.0).abs() < 1e-12);
    }
}
