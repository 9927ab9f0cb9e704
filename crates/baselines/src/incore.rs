//! The *in-core-octree* baseline: Gerris' ephemeral pointer octree.
//!
//! All octants live in DRAM; there is no persistence in the data
//! structure itself. Durability comes from whole-tree **snapshot files**
//! written through the file-system interface every N time steps (the
//! paper snapshots every 10). On failure, the entire snapshot is read
//! back — that file I/O is exactly what makes this baseline slow to
//! recover (42.9 s vs PM-octree's 2.1 s in §5.6).
//!
//! The nodes are PM-octree's DRAM node store ([`C0Tree`]) holding the
//! whole tree: the same line image (a leaf one line, an interior node two)
//! and the same rule (every operation charges the lines it touches), so a
//! comparison with the PM-octree's C0 tier differs in where nodes live,
//! not in how they are charged.

use pm_octree::{C0Tree, CellData, Dram, Op, PmError};
use pmoctree_amr::{leaf_only, Cell, OctreeBackend};
use pmoctree_morton::{LeafIndex, OctKey};
use pmoctree_nvbm::{DeviceModel, MemLatency, MemStats, Tracer, VirtualClock};
use pmoctree_simfs::SimFs;

use crate::snapshot::{decode_octants, encode_octants, OctantRecord};
use crate::with_fs_traffic;

/// Gerris-style in-core octree: slab-allocated, DRAM-only, with
/// snapshot-file persistence.
pub struct InCoreOctree {
    tree: C0Tree,
    depth: u8,
    /// Virtual clock charged with DRAM latencies (snapshot I/O goes on `fs`'s).
    pub clock: VirtualClock,
    /// Access statistics (DRAM tier only).
    pub stats: MemStats,
    /// Morton-sorted leaf view (DRAM): slot = node slab index. Maintained
    /// incrementally by `refine`/`coarsen`, rebuilt lazily on first use.
    index: LeafIndex<3>,
    /// Snapshot target file system (NVBM via FS interface).
    pub fs: SimFs,
    /// Snapshot every N steps (paper: 10).
    pub snapshot_interval: usize,
    /// Tracing journal for the snapshot phase.
    pub tracer: Tracer,
}

impl Default for InCoreOctree {
    fn default() -> Self {
        Self::new()
    }
}

impl InCoreOctree {
    /// A tree holding the single root cell; 10-step snapshots on NVBM.
    pub fn new() -> Self {
        let (mut clock, mut stats) = (VirtualClock::new(), MemStats::new(0));
        let dram = &mut (&mut clock, &mut stats, DeviceModel::default().dram);
        let tree = C0Tree::new(OctKey::root(), CellData::default(), dram);
        InCoreOctree {
            tree,
            depth: 0,
            clock,
            stats,
            index: LeafIndex::new(),
            fs: SimFs::on_nvbm(),
            snapshot_interval: 10,
            tracer: Tracer::default(),
        }
    }

    /// The node store and the DRAM it charges.
    fn split(&mut self) -> (&mut C0Tree, (&mut VirtualClock, &mut MemStats, MemLatency)) {
        (&mut self.tree, (&mut self.clock, &mut self.stats, DeviceModel::default().dram))
    }

    /// Bring the leaf index up to date before a query: fold the edits the
    /// mutation hooks recorded since the last query, or rebuild it if a
    /// wholesale change invalidated it. The rebuild is one leaf sweep.
    fn ensure_index(&mut self) {
        if self.index.is_valid() {
            self.index.settle();
            return;
        }
        let mut entries = Vec::with_capacity(self.leaf_count());
        let (tree, mut dram) = self.split();
        tree.leaves(&mut dram, |i, k, _| entries.push((k, i as u64)));
        let n = self.index.rebuild(entries);
        self.stats.index_rebuild(n as u64);
    }

    /// The index half of a batched query: per key (input order) the
    /// index entry of its containing leaf, with the merge-scan charged as
    /// DRAM index reads.
    fn resolve_charged(&mut self, keys: &[OctKey]) -> Vec<Option<usize>> {
        self.ensure_index();
        let (resolved, lines) = self.index.resolve_batch(keys);
        self.split().1.charge(lines, 0);
        self.stats.index_hits(keys.len() as u64);
        resolved
    }

    /// Total live octants.
    pub fn octant_count(&self) -> usize {
        self.tree.octant_count()
    }

    /// Apply `op` to the node store; the slab id of the node it names.
    fn apply(&mut self, op: Op) -> Result<u32, PmError> {
        let (tree, mut dram) = self.split();
        tree.apply(op, &mut dram)
    }

    /// Write a cell payload, a leaf's or an interior octant's: a restore
    /// rebuilds both.
    fn write(&mut self, key: OctKey, data: Cell) -> Result<(), PmError> {
        self.apply(Op::SetData(key, data.into())).map(|_| ())
    }

    /// Collect all leaves sorted by Z-order.
    pub fn leaves_sorted(&mut self) -> Vec<(OctKey, Cell)> {
        let mut out = Vec::with_capacity(self.leaf_count());
        self.for_each_leaf(&mut |k, d| out.push((k, *d)));
        out.sort_by_key(|a| a.0);
        out
    }

    // ---- snapshots (gfs_output_write / gfs_output_read analogues) -------

    /// Serialize the whole tree into snapshot file `name` on [`Self::fs`].
    /// Cost: every line of every octant read once, plus the FS write of
    /// every byte.
    pub fn snapshot(&mut self, name: &str) {
        let (tree, mut dram) = self.split();
        let mut records = Vec::with_capacity(tree.octant_count());
        tree.octants(&mut dram, |key, d, is_leaf| {
            records.push(OctantRecord { key, data: d.into(), is_leaf })
        });
        let bytes = encode_octants(&records);
        self.fs.write_all(name, &bytes);
        // A checkpoint that may still sit in the device write cache is no
        // checkpoint: pay the durability barrier, like fsync after
        // gfs_output_write.
        self.fs.sync();
    }

    /// Rebuild a tree from snapshot file `name` on `fs`, which it keeps
    /// writing its snapshots to: each record's refine and payload store
    /// charge the lines they write.
    pub fn restore(mut fs: SimFs, name: &str) -> Result<Self, String> {
        let bytes = fs.read_all(name)?;
        let records = decode_octants(&bytes)?;
        let mut t = InCoreOctree { fs, ..InCoreOctree::new() };
        // Pre-order: a parent's record precedes its children's, so its
        // child 0's record is the point to refine it — no probe.
        for r in &records[1..] {
            if r.key.sibling_index() == 0 {
                let parent = r.key.parent().expect("non-root record");
                t.refine(parent).map_err(|e| format!("snapshot record {:?}: {e:?}", r.key))?;
            }
        }
        for r in &records {
            t.write(r.key, r.data).map_err(|e| format!("snapshot record {:?}: {e:?}", r.key))?;
        }
        Ok(t)
    }
}

impl OctreeBackend for InCoreOctree {
    /// Split the leaf at `key` into 8 children inheriting its payload. The
    /// refusal comes off the node store's walk; a leaf at
    /// `OctKey::MAX_LEVEL` has no children to make and is refused after
    /// one probe names it.
    fn refine(&mut self, key: OctKey) -> Result<(), PmError> {
        if key.level() == OctKey::MAX_LEVEL {
            return Err(match self.is_leaf(key) {
                Some(_) => PmError::NotALeaf(format!("{key:?} is at the deepest level")),
                None => PmError::NotFound(format!("{key:?}")),
            });
        }
        let i = self.apply(Op::Refine(key))?;
        self.depth = self.depth.max(key.level() + 1);
        let slots = self.tree.children(i).map(u64::from);
        self.index.on_refine(key, &slots);
        Ok(())
    }

    /// Remove the (all-leaf) children of `key`; the refusal comes off the
    /// node store's walk.
    fn coarsen(&mut self, key: OctKey) -> Result<(), PmError> {
        let i = self.apply(Op::Coarsen(key))?;
        self.index.on_coarsen(key, i as u64);
        Ok(())
    }

    fn is_leaf(&mut self, key: OctKey) -> Option<bool> {
        let (tree, mut dram) = self.split();
        tree.is_leaf(key, &mut dram)
    }

    fn containing_leaf(&mut self, key: OctKey) -> Option<OctKey> {
        let before = self.stats.total_lines_snapshot();
        self.stats.root_descent();
        let (tree, mut dram) = self.split();
        let out = tree.containing_leaf(key, &mut dram);
        let lines = self.stats.total_lines_snapshot() - before;
        self.stats.descent_lines(lines);
        out
    }

    /// Read a cell payload, a leaf's or an interior octant's.
    fn get_data(&mut self, key: OctKey) -> Option<Cell> {
        let (tree, mut dram) = self.split();
        tree.get_data(key, &mut dram).map(Cell::from)
    }

    fn set_data(&mut self, key: OctKey, data: Cell) -> Result<(), PmError> {
        leaf_only(key, self.is_leaf(key))?;
        self.write(key, data)
    }

    /// Visit every leaf in pre-order.
    fn for_each_leaf(&mut self, f: &mut dyn FnMut(OctKey, &Cell)) {
        let (tree, mut dram) = self.split();
        tree.leaves(&mut dram, |_, k, d| f(k, &(*d).into()));
    }

    fn update_leaves(&mut self, f: &mut dyn FnMut(OctKey, &Cell) -> Option<Cell>) {
        let (tree, mut dram) = self.split();
        tree.sweep(&mut dram, |k, d| f(k, &(*d).into()).map(CellData::from));
    }

    fn leaf_count(&self) -> usize {
        self.tree.leaf_count()
    }

    fn depth(&self) -> u8 {
        self.depth
    }

    fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns() + self.fs.clock.now_ns()
    }

    fn charge_external(&mut self, ns: u64) {
        self.clock.advance(ns);
    }

    fn barrier_to(&mut self, t_ns: u64) {
        let now = self.elapsed_ns();
        if t_ns > now {
            self.clock.advance(t_ns - now);
        }
    }

    fn end_of_step(&mut self, step: usize) {
        if self.snapshot_interval > 0 && step.is_multiple_of(self.snapshot_interval) {
            self.tracer.begin("snapshot", self.elapsed_ns(), Some(step as u64));
            self.snapshot(&format!("snapshot-{step}.gfs"));
            self.tracer.end("snapshot", self.elapsed_ns());
        }
    }

    fn name(&self) -> &'static str {
        "in-core"
    }

    fn as_dyn(&mut self) -> &mut dyn OctreeBackend {
        self
    }

    fn mem_stats(&self) -> MemStats {
        with_fs_traffic(&self.stats, &self.fs)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Z-order-sorted leaf keys, answered from the DRAM leaf index.
    fn leaf_keys_sorted(&mut self) -> Vec<OctKey> {
        self.ensure_index();
        let lines = self.index.sweep_lines();
        self.split().1.charge(lines, 0);
        self.index.entries().iter().map(|e| e.0).collect()
    }

    /// Resolve a batch of containment queries against the sorted leaf
    /// index in one merge-scan. Each query costs DRAM index reads only.
    fn containing_leaf_many(&mut self, keys: &[OctKey]) -> Vec<Option<OctKey>> {
        let resolved = self.resolve_charged(keys);
        resolved.into_iter().map(|r| r.map(|e| self.index.entries()[e].0)).collect()
    }

    /// Batched leaf payload reads: index probes (DRAM) locate each leaf's
    /// slab slot, then exactly one line — the leaf's, which carries its
    /// payload — is read per resolved key, with no per-key root descent.
    /// Keys that are not current leaves fall back to
    /// [`OctreeBackend::get_data`].
    fn get_data_many(&mut self, keys: &[OctKey]) -> Vec<Option<Cell>> {
        let resolved = self.resolve_charged(keys);
        let mut out = vec![None; keys.len()];
        let mut fallbacks = Vec::new();
        let lat = DeviceModel::default().dram;
        let (tree, mut dram) = (&mut self.tree, (&mut self.clock, &mut self.stats, lat));
        for (pos, r) in resolved.into_iter().enumerate() {
            match r.map(|e| self.index.entries()[e]) {
                Some((leaf, slot)) if leaf == keys[pos] => {
                    out[pos] = Some(tree.data_at(slot as u32, &mut dram).into());
                }
                _ => fallbacks.push(pos),
            }
        }
        for pos in fallbacks {
            out[pos] = self.get_data(keys[pos]);
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn refine_coarsen_roundtrip() {
        let mut t = InCoreOctree::new();
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(3)).unwrap();
        assert_eq!(t.leaf_count(), 15);
        assert_eq!(t.octant_count(), 17);
        t.coarsen(OctKey::root().child(3)).unwrap();
        assert_eq!(t.leaf_count(), 8);
        assert!(matches!(t.coarsen(OctKey::root().child(3)), Err(PmError::NotALeaf(_))));
        assert!(matches!(t.refine(OctKey::root()), Err(PmError::NotALeaf(_))));
    }

    #[test]
    fn data_roundtrip() {
        let mut t = InCoreOctree::new();
        t.refine(OctKey::root()).unwrap();
        let k = OctKey::root().child(6);
        t.set_data(k, [1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.get_data(k), Some([1.0, 2.0, 3.0, 4.0]));
        assert_eq!(t.get_data(k.child(0)), None);
    }

    #[test]
    fn containing_leaf_descends() {
        let mut t = InCoreOctree::new();
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(0)).unwrap();
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
        let mut t = InCoreOctree::new();
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(2)).unwrap();
        t.set_data(OctKey::root().child(2).child(7), [9.0, 0.0, 0.5, 0.0]).unwrap();
        t.snapshot("snap.gfs");
        let before = t.leaves_sorted();
        let fs = std::mem::replace(&mut t.fs, SimFs::on_nvbm());
        let mut r = InCoreOctree::restore(fs, "snap.gfs").unwrap();
        assert_eq!(r.leaves_sorted(), before);
        assert_eq!(r.leaf_count(), t.leaf_count());
    }

    #[test]
    fn snapshot_cost_scales_with_tree() {
        let mut t = InCoreOctree::new();
        t.refine(OctKey::root()).unwrap();
        t.snapshot("small");
        let small = t.fs.clock.now_ns();
        for i in 0..8 {
            t.refine(OctKey::root().child(i)).unwrap();
        }
        let (t0, tree0, read0) = (t.fs.clock.now_ns(), t.clock.now_ns(), t.stats.dram.read_lines);
        t.snapshot("big");
        assert!(t.fs.clock.now_ns() - t0 >= small, "bigger tree, costlier snapshot");
        // The in-core tree's elapsed time is its clock plus the file
        // system's: a snapshot advances it by exactly the file-system
        // time and the DRAM lines it read — every line of the tree, 64
        // leaves and 9 interior nodes of two lines each.
        let lines = t.stats.dram.read_lines - read0;
        assert_eq!(lines, 64 + 9 * 2);
        let elapsed = t.elapsed_ns() - t0 - tree0;
        assert_eq!(elapsed, t.fs.clock.now_ns() - t0 + lines * DeviceModel::default().dram.read_ns);
        assert!(t.fs.len("big").unwrap() > t.fs.len("small").unwrap());
    }

    #[test]
    fn snapshot_cost_strictly_increases_with_fsync() {
        use pmoctree_simfs::BlockDeviceModel;
        let barrier = BlockDeviceModel::nvbm_fs();
        assert!(barrier.sync_ns > 0, "model must charge a durability barrier");
        let mut no_barrier = barrier;
        no_barrier.sync_ns = 0;
        let cost = |model: BlockDeviceModel| {
            let mut t = InCoreOctree::new();
            t.fs = SimFs::new(model);
            t.refine(OctKey::root()).unwrap();
            t.snapshot("snap.gfs");
            t.fs.clock.now_ns()
        };
        assert!(
            cost(barrier) > cost(no_barrier),
            "fsync-charged checkpoint must cost strictly more than an unsynced one"
        );
    }

    #[test]
    fn update_leaves_only_touches_leaves() {
        let mut t = InCoreOctree::new();
        t.refine(OctKey::root()).unwrap();
        t.update_leaves(&mut |_, d| Some([d[0] + 1.0, d[1], d[2], d[3]]));
        t.for_each_leaf(&mut |_, d| assert_eq!(d[0], 1.0));
        assert_eq!(t.get_data(OctKey::root()).unwrap()[0], 0.0);
    }

    /// The C0 rule: refine writes the 8 child lines and the parent's two,
    /// coarsen reads the 8 child lines and writes one, and a point read
    /// costs its walk — plus the payload line of an interior octant, which
    /// a restore writes.
    #[test]
    fn every_access_charges_the_lines_it_touches() {
        let mut t = InCoreOctree::new();
        let cost = |t: &mut InCoreOctree, f: &mut dyn FnMut(&mut InCoreOctree)| {
            let (r, w) = (t.stats.dram.read_lines, t.stats.dram.write_lines);
            f(t);
            (t.stats.dram.read_lines - r, t.stats.dram.write_lines - w)
        };
        let k = OctKey::root().child(3);
        assert_eq!(cost(&mut t, &mut |t| t.refine(OctKey::root()).unwrap()), (1, 10));
        assert_eq!(cost(&mut t, &mut |t| t.refine(k).unwrap()), (2, 10));
        assert_eq!(cost(&mut t, &mut |t| assert!(t.get_data(k.child(1)).is_some())), (3, 0));
        assert_eq!(cost(&mut t, &mut |t| assert!(t.get_data(k).is_some())), (3, 0));
        assert_eq!(cost(&mut t, &mut |t| t.write(k, [1.0; 4]).unwrap()), (2, 1));
        assert_eq!(cost(&mut t, &mut |t| t.for_each_leaf(&mut |_, _| {})), (17, 0));
        assert_eq!(cost(&mut t, &mut |t| t.update_leaves(&mut |_, d| Some(*d))), (17, 15));
        assert_eq!(cost(&mut t, &mut |t| t.coarsen(k).unwrap()), (2 + 8, 1));
        assert_eq!(t.get_data(k), Some([0.0; 4]), "the mean of the children");
    }

    #[test]
    fn dram_accounting() {
        let mut t = InCoreOctree::new();
        t.refine(OctKey::root()).unwrap();
        assert!(t.stats.dram.write_lines > 0);
        assert!(t.stats.nvbm.write_lines == 0);
        assert!(t.clock.now_ns() > 0);
    }
}
