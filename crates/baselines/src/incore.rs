//! The *in-core-octree* baseline: Gerris' ephemeral pointer octree.
//!
//! All octants live in DRAM; there is no persistence in the data
//! structure itself. Durability comes from whole-tree **snapshot files**
//! written through the file-system interface every N time steps (the
//! paper snapshots every 10). On failure, the entire snapshot is read
//! back — that file I/O is exactly what makes this baseline slow to
//! recover (42.9 s vs PM-octree's 2.1 s in §5.6).

use pmoctree_morton::{LeafIndex, OctKey};
use pmoctree_nvbm::{MemStats, VirtualClock};
use pmoctree_simfs::SimFs;

use crate::snapshot::{decode_octants, encode_octants, OctantRecord};

const NIL: u32 = u32::MAX;
/// Bytes per node charged to the DRAM model (same record size as the
/// PM-octree octant so comparisons are fair).
const NODE_BYTES: usize = 128;
const NODE_LINES: u64 = (NODE_BYTES / 64) as u64;

/// DRAM latency (matches `DeviceModel::default().dram`).
const DRAM_READ_NS: u64 = 60;
const DRAM_WRITE_NS: u64 = 60;

#[derive(Clone, Debug)]
struct Node {
    key: OctKey,
    children: [u32; 8],
    data: [f64; 4],
    live: bool,
}

/// Gerris-style in-core octree: slab-allocated, DRAM-only, with
/// snapshot-file persistence.
pub struct InCoreOctree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    leaves: usize,
    depth: u8,
    /// Virtual clock charged with DRAM latencies and (via [`SimFs`]) I/O.
    pub clock: VirtualClock,
    /// Access statistics (DRAM tier only).
    pub stats: MemStats,
    /// Morton-sorted leaf view (DRAM): slot = node slab index. Maintained
    /// incrementally by `refine`/`coarsen`, rebuilt lazily on first use.
    index: LeafIndex<3>,
}

impl Default for InCoreOctree {
    fn default() -> Self {
        Self::new()
    }
}

impl InCoreOctree {
    /// A tree holding the single root cell.
    pub fn new() -> Self {
        InCoreOctree {
            nodes: vec![Node {
                key: OctKey::root(),
                children: [NIL; 8],
                data: [0.0; 4],
                live: true,
            }],
            free: Vec::new(),
            root: 0,
            leaves: 1,
            depth: 0,
            clock: VirtualClock::new(),
            stats: MemStats::new(0),
            index: LeafIndex::new(),
        }
    }

    /// Charge the DRAM clock/stats for touching `entries` leaf-index
    /// entries (the index lives in DRAM; it never costs NVBM accesses).
    fn charge_index_entries(&mut self, entries: usize) {
        let lines = LeafIndex::<3>::lines_for_entries(entries);
        self.clock.advance(lines * DRAM_READ_NS);
        self.stats.dram_read(entries * pmoctree_morton::index::ENTRY_BYTES, lines);
    }

    /// Bring the leaf index up to date before a query: fold the edits the
    /// mutation hooks recorded since the last query, or rebuild it if a
    /// wholesale change invalidated it. The rebuild enumerates every node
    /// once and charges that DRAM traversal.
    fn ensure_index(&mut self) {
        if self.index.is_valid() {
            self.index.settle();
            return;
        }
        let mut entries = Vec::with_capacity(self.leaves);
        let mut stack = vec![self.root];
        let mut hops = 0u64;
        while let Some(i) = stack.pop() {
            hops += 1;
            let n = &self.nodes[i as usize];
            if n.children.iter().all(|&c| c == NIL) {
                entries.push((n.key, i as u64));
            } else {
                for &c in n.children.iter().rev() {
                    if c != NIL {
                        stack.push(c);
                    }
                }
            }
        }
        self.charge_read(hops);
        let n = self.index.rebuild(entries);
        self.stats.index_rebuild(n as u64);
    }

    /// Z-order-sorted leaf keys, answered from the DRAM leaf index.
    pub fn leaf_keys_sorted(&mut self) -> Vec<OctKey> {
        self.ensure_index();
        self.charge_index_entries(self.index.len());
        self.index.entries().iter().map(|e| e.0).collect()
    }

    /// The index half of a batched query: per key (input order) the
    /// index entry of its containing leaf, with the merge-scan charged as
    /// DRAM index reads.
    fn resolve_charged(&mut self, keys: &[OctKey]) -> Vec<Option<usize>> {
        self.ensure_index();
        let (resolved, touched) = self.index.resolve_batch(keys);
        self.charge_index_entries(touched);
        self.stats.index_hits(keys.len() as u64);
        resolved
    }

    /// Resolve a batch of containment queries against the sorted leaf
    /// index in one merge-scan. Input order is arbitrary; results match
    /// input order. Each query costs DRAM index reads only.
    pub fn containing_leaf_many(&mut self, keys: &[OctKey]) -> Vec<Option<OctKey>> {
        let resolved = self.resolve_charged(keys);
        resolved.into_iter().map(|r| r.map(|e| self.index.entries()[e].0)).collect()
    }

    /// Batched leaf payload reads: index probes (DRAM) locate each leaf's
    /// slab slot, then exactly one destination node read is charged per
    /// resolved key — no per-key root descent. Keys that are not current
    /// leaves fall back to [`InCoreOctree::get_data`].
    pub fn get_data_many(&mut self, keys: &[OctKey]) -> Vec<Option<[f64; 4]>> {
        let resolved = self.resolve_charged(keys);
        let mut out = vec![None; keys.len()];
        let mut payload_reads = 0u64;
        let mut fallbacks = Vec::new();
        for (pos, r) in resolved.into_iter().enumerate() {
            match r.map(|e| self.index.entries()[e]) {
                Some((leaf, slot)) if leaf == keys[pos] => {
                    out[pos] = Some(self.nodes[slot as usize].data);
                    payload_reads += 1;
                }
                _ => fallbacks.push(pos),
            }
        }
        self.charge_read(payload_reads);
        for pos in fallbacks {
            out[pos] = self.get_data(keys[pos]);
        }
        out
    }

    fn charge_read(&mut self, nodes: u64) {
        self.clock.advance(nodes * NODE_LINES * DRAM_READ_NS);
        self.stats.dram_read(nodes as usize * NODE_BYTES, nodes * NODE_LINES);
    }

    fn charge_write(&mut self, nodes: u64) {
        self.clock.advance(nodes * NODE_LINES * DRAM_WRITE_NS);
        self.stats.dram_write(nodes as usize * NODE_BYTES, nodes * NODE_LINES);
    }

    fn alloc(&mut self, n: Node) -> u32 {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = n;
            i
        } else {
            self.nodes.push(n);
            (self.nodes.len() - 1) as u32
        }
    }

    /// Number of leaf octants (mesh elements).
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// Deepest level seen.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Total live octants.
    pub fn octant_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn find(&mut self, key: OctKey) -> Option<u32> {
        let mut cur = self.root;
        let mut hops = 1u64;
        for l in 0..key.level() {
            let idx = key.ancestor_at(l + 1).sibling_index();
            let next = self.nodes[cur as usize].children[idx];
            if next == NIL {
                self.charge_read(hops);
                return None;
            }
            cur = next;
            hops += 1;
        }
        self.charge_read(hops);
        Some(cur)
    }

    fn is_leaf_idx(&self, i: u32) -> bool {
        self.nodes[i as usize].children.iter().all(|&c| c == NIL)
    }

    /// Does the octant exist, and is it a leaf?
    pub fn is_leaf(&mut self, key: OctKey) -> Option<bool> {
        self.find(key).map(|i| self.is_leaf_idx(i))
    }

    /// The leaf containing `key`'s region, or `None` if `key` is internal.
    pub fn containing_leaf(&mut self, key: OctKey) -> Option<OctKey> {
        let before = self.stats.total_lines_snapshot();
        let out = self.containing_leaf_inner(key);
        let lines = self.stats.total_lines_snapshot() - before;
        self.stats.descent_lines(lines);
        out
    }

    fn containing_leaf_inner(&mut self, key: OctKey) -> Option<OctKey> {
        self.stats.root_descent();
        let mut cur = self.root;
        let mut cur_key = OctKey::root();
        let mut hops = 1u64;
        for l in 0..key.level() {
            if self.is_leaf_idx(cur) {
                self.charge_read(hops);
                return Some(cur_key);
            }
            let idx = key.ancestor_at(l + 1).sibling_index();
            let next = self.nodes[cur as usize].children[idx];
            if next == NIL {
                self.charge_read(hops);
                return Some(cur_key);
            }
            cur = next;
            cur_key = key.ancestor_at(l + 1);
            hops += 1;
        }
        self.charge_read(hops);
        if self.is_leaf_idx(cur) {
            Some(cur_key)
        } else {
            None
        }
    }

    /// Read a cell payload.
    pub fn get_data(&mut self, key: OctKey) -> Option<[f64; 4]> {
        let i = self.find(key)?;
        self.charge_read(1);
        Some(self.nodes[i as usize].data)
    }

    /// Write a cell payload.
    pub fn set_data(&mut self, key: OctKey, data: [f64; 4]) -> bool {
        match self.find(key) {
            Some(i) => {
                self.charge_write(1);
                self.nodes[i as usize].data = data;
                true
            }
            None => false,
        }
    }

    /// Split the leaf at `key` into 8 children inheriting its payload. A
    /// leaf at `OctKey::MAX_LEVEL` has none to make: refused.
    pub fn refine(&mut self, key: OctKey) -> bool {
        let Some(i) = self.find(key) else {
            return false;
        };
        if !self.is_leaf_idx(i) || key.level() == OctKey::MAX_LEVEL {
            return false;
        }
        let (k, data) = {
            let n = &self.nodes[i as usize];
            (n.key, n.data)
        };
        let mut kids = [NIL; 8];
        for (c, slot) in kids.iter_mut().enumerate() {
            *slot = self.alloc(Node { key: k.child(c), children: [NIL; 8], data, live: true });
        }
        self.nodes[i as usize].children = kids;
        self.charge_write(9);
        self.leaves += 7;
        self.depth = self.depth.max(key.level() + 1);
        let slots: Vec<u64> = kids.iter().map(|&c| c as u64).collect();
        self.index.on_refine(key, &slots);
        true
    }

    /// Remove the (all-leaf) children of `key`.
    pub fn coarsen(&mut self, key: OctKey) -> bool {
        let Some(i) = self.find(key) else {
            return false;
        };
        if self.is_leaf_idx(i) {
            return false;
        }
        let children = self.nodes[i as usize].children;
        if children.iter().any(|&c| c != NIL && !self.is_leaf_idx(c)) {
            return false;
        }
        let mut mean = [0.0f64; 4];
        for &c in &children {
            if c != NIL {
                for (m, v) in mean.iter_mut().zip(self.nodes[c as usize].data) {
                    *m += v / 8.0;
                }
                self.nodes[c as usize].live = false;
                self.free.push(c);
            }
        }
        // Restriction: the surviving leaf takes the mean of its children.
        self.nodes[i as usize].data = mean;
        self.nodes[i as usize].children = [NIL; 8];
        self.charge_write(1);
        self.leaves -= 7;
        self.index.on_coarsen(key, i as u64);
        true
    }

    /// Visit every leaf in pre-order.
    pub fn for_each_leaf(&mut self, mut f: impl FnMut(OctKey, &[f64; 4])) {
        let mut stack = vec![self.root];
        let mut hops = 0u64;
        while let Some(i) = stack.pop() {
            hops += 1;
            let n = &self.nodes[i as usize];
            if n.children.iter().all(|&c| c == NIL) {
                f(n.key, &n.data);
            } else {
                for &c in n.children.iter().rev() {
                    if c != NIL {
                        stack.push(c);
                    }
                }
            }
        }
        self.charge_read(hops);
    }

    /// Solver sweep: `f` returns `Some(new_data)` to update a leaf.
    pub fn update_leaves(&mut self, mut f: impl FnMut(OctKey, &[f64; 4]) -> Option<[f64; 4]>) {
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
        self.charge_read(reads);
        self.charge_write(writes);
    }

    /// Collect all leaves sorted by Z-order.
    pub fn leaves_sorted(&mut self) -> Vec<(OctKey, [f64; 4])> {
        let mut out = Vec::with_capacity(self.leaves);
        self.for_each_leaf(|k, d| out.push((k, *d)));
        out.sort_by_key(|a| a.0);
        out
    }

    // ---- snapshots (gfs_output_write / gfs_output_read analogues) -------

    /// Serialize the whole tree into a snapshot file. Cost: one DRAM read
    /// per octant plus the FS write of every byte.
    pub fn snapshot(&mut self, fs: &mut SimFs, name: &str) {
        let mut records = Vec::with_capacity(self.octant_count());
        let mut stack = vec![self.root];
        while let Some(i) = stack.pop() {
            let n = &self.nodes[i as usize];
            let leaf = n.children.iter().all(|&c| c == NIL);
            records.push(OctantRecord { key: n.key, data: n.data, is_leaf: leaf });
            for &c in n.children.iter().rev() {
                if c != NIL {
                    stack.push(c);
                }
            }
        }
        self.charge_read(records.len() as u64);
        let bytes = encode_octants(&records);
        fs.write_all(name, &bytes);
        // A checkpoint that may still sit in the device write cache is no
        // checkpoint: pay the durability barrier, like fsync after
        // gfs_output_write.
        fs.sync();
        // The snapshot stall is part of this tree's execution time.
        self.clock.advance_to(self.clock.now_ns());
    }

    /// Rebuild a tree from a snapshot file.
    pub fn restore(fs: &mut SimFs, name: &str) -> Result<Self, String> {
        let bytes = fs.read_all(name)?;
        let records = decode_octants(&bytes)?;
        let mut t = InCoreOctree::new();
        // Pre-order: parents precede children; refine on demand.
        for r in &records[1..] {
            let parent = r.key.parent().expect("non-root record");
            // Ensure the parent has been refined.
            if t.is_leaf(parent) == Some(true) {
                t.refine(parent);
            }
        }
        for r in &records {
            t.set_data(r.key, r.data);
        }
        t.charge_write(records.len() as u64);
        Ok(t)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn refine_coarsen_roundtrip() {
        let mut t = InCoreOctree::new();
        assert!(t.refine(OctKey::root()));
        assert!(t.refine(OctKey::root().child(3)));
        assert_eq!(t.leaf_count(), 15);
        assert_eq!(t.octant_count(), 17);
        assert!(t.coarsen(OctKey::root().child(3)));
        assert_eq!(t.leaf_count(), 8);
        assert!(!t.coarsen(OctKey::root().child(3)), "now a leaf");
        assert!(!t.refine(OctKey::root()), "not a leaf");
    }

    #[test]
    fn data_roundtrip() {
        let mut t = InCoreOctree::new();
        t.refine(OctKey::root());
        let k = OctKey::root().child(6);
        assert!(t.set_data(k, [1.0, 2.0, 3.0, 4.0]));
        assert_eq!(t.get_data(k), Some([1.0, 2.0, 3.0, 4.0]));
        assert_eq!(t.get_data(k.child(0)), None);
    }

    #[test]
    fn containing_leaf_descends() {
        let mut t = InCoreOctree::new();
        t.refine(OctKey::root());
        t.refine(OctKey::root().child(0));
        let deep = OctKey::root().child(0).child(3).child(5);
        assert_eq!(t.containing_leaf(deep), Some(OctKey::root().child(0).child(3)));
        assert_eq!(
            t.containing_leaf(OctKey::root().child(1).child(0)),
            Some(OctKey::root().child(1))
        );
        assert_eq!(t.containing_leaf(OctKey::root()), None, "root is internal");
    }

    #[test]
    fn snapshot_restore_identical() {
        let mut fs = SimFs::on_nvbm();
        let mut t = InCoreOctree::new();
        t.refine(OctKey::root());
        t.refine(OctKey::root().child(2));
        t.set_data(OctKey::root().child(2).child(7), [9.0, 0.0, 0.5, 0.0]);
        t.snapshot(&mut fs, "snap.gfs");
        let before = t.leaves_sorted();
        let mut r = InCoreOctree::restore(&mut fs, "snap.gfs").unwrap();
        assert_eq!(r.leaves_sorted(), before);
        assert_eq!(r.leaf_count(), t.leaf_count());
    }

    #[test]
    fn snapshot_cost_scales_with_tree() {
        let mut fs = SimFs::on_nvbm();
        let mut t = InCoreOctree::new();
        t.refine(OctKey::root());
        t.snapshot(&mut fs, "small");
        let small = fs.clock.now_ns();
        for i in 0..8 {
            t.refine(OctKey::root().child(i));
        }
        let t0 = fs.clock.now_ns();
        t.snapshot(&mut fs, "big");
        assert!(fs.clock.now_ns() - t0 >= small, "bigger tree, costlier snapshot");
        assert!(fs.len("big").unwrap() > fs.len("small").unwrap());
    }

    #[test]
    fn snapshot_cost_strictly_increases_with_fsync() {
        use pmoctree_simfs::BlockDeviceModel;
        let barrier = BlockDeviceModel::nvbm_fs();
        assert!(barrier.sync_ns > 0, "model must charge a durability barrier");
        let mut no_barrier = barrier;
        no_barrier.sync_ns = 0;
        let cost = |model: BlockDeviceModel| {
            let mut fs = SimFs::new(model);
            let mut t = InCoreOctree::new();
            t.refine(OctKey::root());
            t.snapshot(&mut fs, "snap.gfs");
            fs.clock.now_ns()
        };
        assert!(
            cost(barrier) > cost(no_barrier),
            "fsync-charged checkpoint must cost strictly more than an unsynced one"
        );
    }

    #[test]
    fn update_leaves_only_touches_leaves() {
        let mut t = InCoreOctree::new();
        t.refine(OctKey::root());
        t.update_leaves(|_, d| Some([d[0] + 1.0, d[1], d[2], d[3]]));
        t.for_each_leaf(|_, d| assert_eq!(d[0], 1.0));
        assert_eq!(t.get_data(OctKey::root()).unwrap()[0], 0.0);
    }

    #[test]
    fn dram_accounting() {
        let mut t = InCoreOctree::new();
        t.refine(OctKey::root());
        assert!(t.stats.dram.write_lines > 0);
        assert!(t.stats.nvbm.write_lines == 0);
        assert!(t.clock.now_ns() > 0);
    }
}
