//! The common interface the meshing routines drive.
//!
//! The paper runs the same droplet-ejection simulation over three octree
//! implementations (§5.1); [`OctreeBackend`] is the seam that makes that
//! possible here. Each tree answers the contract itself — its mutators
//! name their refusals in [`PmError`]'s taxonomy from the lookup the op
//! makes anyway, so an adapter adds no access of its own — and an adapter
//! only pairs the tree with its persistence mechanism:
//!
//! * [`PmBackend`] — PM-octree; `end_of_step` calls `pm_persistent`.
//! * [`InCoreBackend`] — Gerris-style in-core tree; `end_of_step` writes a
//!   snapshot file every `snapshot_interval` steps (10 in the paper).
//! * [`EtreeBackend`] — Etree out-of-core tree; every op is already
//!   write-through, `end_of_step` flushes index pages.

use pm_octree::{CellData, PmError, PmOctree};
use pmoctree_baselines::{EtreeOctree, InCoreOctree};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{MemStats, Tracer};
use pmoctree_simfs::SimFs;

/// Cell payload as a plain array: `[phi, pressure, vof, work]`.
pub type Cell = [f64; 4];

/// Uniform interface over the three octree implementations.
///
/// Mutators are fallible and report *why* they were rejected via
/// [`PmError`] (`NotFound` / `NotALeaf` / `NotCoarsenable`), so meshing
/// drivers can distinguish "that cell doesn't exist" from "that cell
/// can't legally change". The Gerris-style boolean shims live in
/// [`crate::gerris`].
pub trait OctreeBackend {
    /// Split the leaf at `key` into 8 children.
    fn refine(&mut self, key: OctKey) -> Result<(), PmError>;
    /// Remove the (all-leaf) children of `key`.
    fn coarsen(&mut self, key: OctKey) -> Result<(), PmError>;
    /// `Some(true)` leaf, `Some(false)` internal, `None` absent.
    fn is_leaf(&mut self, key: OctKey) -> Option<bool>;
    /// The leaf whose region contains `key` (None if `key` is internal).
    fn containing_leaf(&mut self, key: OctKey) -> Option<OctKey>;
    /// Read a leaf/octant payload.
    fn get_data(&mut self, key: OctKey) -> Option<Cell>;
    /// Write a leaf payload (payloads live on leaves only).
    fn set_data(&mut self, key: OctKey, data: Cell) -> Result<(), PmError>;
    /// Visit every leaf.
    fn for_each_leaf(&mut self, f: &mut dyn FnMut(OctKey, &Cell));
    /// Sweep: return `Some(new)` from `f` to update a leaf.
    fn update_leaves(&mut self, f: &mut dyn FnMut(OctKey, &Cell) -> Option<Cell>);
    /// Number of leaves (mesh elements).
    fn leaf_count(&self) -> usize;
    /// Deepest refinement level.
    fn depth(&self) -> u8;
    /// Virtual nanoseconds consumed so far (all cost models combined).
    fn elapsed_ns(&self) -> u64;
    /// Charge externally-modeled time (network transfers, barriers) onto
    /// this backend's clock.
    fn charge_external(&mut self, ns: u64);
    /// Synchronize to a barrier: the clock jumps to at least `t_ns`.
    fn barrier_to(&mut self, t_ns: u64);
    /// End-of-time-step hook: persistence according to the scheme.
    fn end_of_step(&mut self, step: usize);
    /// Short scheme name for reports.
    fn name(&self) -> &'static str;
    /// This backend as a trait object, for the phase routines a driver
    /// generic over `B: OctreeBackend + ?Sized` calls
    /// (`Simulation::step_core`).
    fn as_dyn(&mut self) -> &mut dyn OctreeBackend;

    /// Aggregated memory-tier and traversal statistics. File-system-backed
    /// persistence traffic (snapshots, Etree pages) is folded into the
    /// NVBM tier at cacheline granularity so schemes stay comparable.
    fn mem_stats(&self) -> MemStats;

    /// Attach a tracing journal. The PM adapter routes it into the arena
    /// (so the internal `persist::*`/`gc`/`c0` spans land in the same
    /// journal); baselines keep it for their persistence hooks.
    fn set_tracer(&mut self, tracer: Tracer);

    /// The attached tracer (disabled unless [`OctreeBackend::set_tracer`]
    /// was called). Drivers use it to emit spans around phases they time
    /// themselves, stamped with this backend's [`OctreeBackend::elapsed_ns`].
    fn tracer(&self) -> Tracer;

    // ---- batched queries (leaf-index fast paths) -------------------------

    /// All leaf keys in Z-order.
    fn leaf_keys_sorted(&mut self) -> Vec<OctKey>;

    /// Batched [`OctreeBackend::containing_leaf`]: results match input
    /// order; input order is arbitrary.
    fn containing_leaf_many(&mut self, keys: &[OctKey]) -> Vec<Option<OctKey>>;

    /// Batched [`OctreeBackend::get_data`] for leaf keys.
    fn get_data_many(&mut self, keys: &[OctKey]) -> Vec<Option<Cell>>;

    /// Batched [`OctreeBackend::refine`]: the per-key entry point in a
    /// loop, one success flag per key, in input order.
    fn refine_many(&mut self, keys: &[OctKey]) -> Vec<bool> {
        keys.iter().map(|&k| self.refine(k).is_ok()).collect()
    }

    /// Batched [`OctreeBackend::coarsen`]; see
    /// [`OctreeBackend::refine_many`] for the contract.
    fn coarsen_many(&mut self, keys: &[OctKey]) -> Vec<bool> {
        keys.iter().map(|&k| self.coarsen(k).is_ok()).collect()
    }
}

// ---------------------------------------------------------------- PM-octree

/// PM-octree adapter.
pub struct PmBackend {
    /// The wrapped tree.
    pub tree: PmOctree,
}

impl PmBackend {
    /// Wrap a PM-octree.
    pub fn new(tree: PmOctree) -> Self {
        PmBackend { tree }
    }
}

fn to_cell(d: &CellData) -> Cell {
    [d.phi, d.pressure, d.vof, d.work]
}

fn from_cell(c: &Cell) -> CellData {
    CellData { phi: c[0], pressure: c[1], vof: c[2], work: c[3] }
}

/// The trait's `set_data` contract on a tree that also writes interior
/// payloads: payloads live on leaves (a linear octree has no internal
/// payload, so the common interface exposes none), so `probe` — the
/// tree's `is_leaf` of `key` — must name a leaf.
fn leaf_only(key: OctKey, probe: Option<bool>) -> Result<(), PmError> {
    match probe {
        None => Err(PmError::NotFound(format!("{key:?}"))),
        Some(false) => Err(PmError::NotALeaf(format!("{key:?}"))),
        Some(true) => Ok(()),
    }
}

impl OctreeBackend for PmBackend {
    fn refine(&mut self, key: OctKey) -> Result<(), PmError> {
        self.tree.refine(key)
    }

    fn coarsen(&mut self, key: OctKey) -> Result<(), PmError> {
        self.tree.coarsen(key)
    }

    fn is_leaf(&mut self, key: OctKey) -> Option<bool> {
        self.tree.is_leaf(key)
    }

    fn containing_leaf(&mut self, key: OctKey) -> Option<OctKey> {
        self.tree.containing_leaf(key)
    }

    fn get_data(&mut self, key: OctKey) -> Option<Cell> {
        self.tree.get_data(key).map(|d| to_cell(&d))
    }

    fn set_data(&mut self, key: OctKey, data: Cell) -> Result<(), PmError> {
        leaf_only(key, self.tree.is_leaf(key))?;
        self.tree.set_data(key, from_cell(&data))
    }

    fn for_each_leaf(&mut self, f: &mut dyn FnMut(OctKey, &Cell)) {
        self.tree.for_each_leaf(|k, d| f(k, &to_cell(d)));
    }

    fn update_leaves(&mut self, f: &mut dyn FnMut(OctKey, &Cell) -> Option<Cell>) {
        self.tree.update_leaves(|k, d| f(k, &to_cell(d)).map(|c| from_cell(&c)));
    }

    fn leaf_count(&self) -> usize {
        self.tree.leaf_count()
    }

    fn depth(&self) -> u8 {
        self.tree.depth()
    }

    fn elapsed_ns(&self) -> u64 {
        self.tree.store.arena.clock.now_ns()
    }

    fn charge_external(&mut self, ns: u64) {
        self.tree.store.arena.clock.advance(ns);
    }

    fn barrier_to(&mut self, t_ns: u64) {
        self.tree.store.arena.clock.advance_to(t_ns);
    }

    fn end_of_step(&mut self, _step: usize) {
        self.tree.persist();
    }

    fn name(&self) -> &'static str {
        "pm-octree"
    }

    fn as_dyn(&mut self) -> &mut dyn OctreeBackend {
        self
    }

    fn leaf_keys_sorted(&mut self) -> Vec<OctKey> {
        self.tree.leaf_keys_sorted()
    }

    fn containing_leaf_many(&mut self, keys: &[OctKey]) -> Vec<Option<OctKey>> {
        self.tree.containing_leaf_many(keys)
    }

    fn get_data_many(&mut self, keys: &[OctKey]) -> Vec<Option<Cell>> {
        self.tree.get_data_many(keys).into_iter().map(|r| r.map(|d| to_cell(&d))).collect()
    }

    fn mem_stats(&self) -> MemStats {
        self.tree.store.arena.stats.clone()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tree.store.arena.tracer = tracer;
    }

    fn tracer(&self) -> Tracer {
        self.tree.store.arena.tracer.clone()
    }
}

// ---------------------------------------------------------------- in-core

/// A baseline's DRAM-side counters with its file-system traffic
/// (snapshots, Etree pages) folded into the NVBM tier at cacheline
/// granularity.
fn with_fs_traffic(tree: &MemStats, fs: &SimFs) -> MemStats {
    let mut s = tree.clone();
    s.nvbm_read(fs.stats.bytes_read as usize, fs.stats.bytes_read.div_ceil(64));
    s.nvbm_write(fs.stats.bytes_written as usize, fs.stats.bytes_written.div_ceil(64));
    s
}

/// In-core baseline adapter: tree in DRAM + snapshot files on NVBM.
pub struct InCoreBackend {
    /// The wrapped tree.
    pub tree: InCoreOctree,
    /// Snapshot target file system (NVBM via FS interface).
    pub fs: SimFs,
    /// Snapshot every N steps (paper: 10).
    pub snapshot_interval: usize,
    /// Tracing journal for the snapshot phase.
    pub tracer: Tracer,
}

impl InCoreBackend {
    /// Wrap a fresh in-core tree with the paper's 10-step snapshots.
    pub fn new() -> Self {
        InCoreBackend {
            tree: InCoreOctree::new(),
            fs: SimFs::on_nvbm(),
            snapshot_interval: 10,
            tracer: Tracer::default(),
        }
    }
}

impl Default for InCoreBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl OctreeBackend for InCoreBackend {
    fn refine(&mut self, key: OctKey) -> Result<(), PmError> {
        self.tree.refine(key)
    }

    fn coarsen(&mut self, key: OctKey) -> Result<(), PmError> {
        self.tree.coarsen(key)
    }

    fn is_leaf(&mut self, key: OctKey) -> Option<bool> {
        self.tree.is_leaf(key)
    }

    fn containing_leaf(&mut self, key: OctKey) -> Option<OctKey> {
        self.tree.containing_leaf(key)
    }

    fn get_data(&mut self, key: OctKey) -> Option<Cell> {
        self.tree.get_data(key)
    }

    fn set_data(&mut self, key: OctKey, data: Cell) -> Result<(), PmError> {
        leaf_only(key, self.tree.is_leaf(key))?;
        self.tree.set_data(key, data)
    }

    fn for_each_leaf(&mut self, f: &mut dyn FnMut(OctKey, &Cell)) {
        self.tree.for_each_leaf(f);
    }

    fn update_leaves(&mut self, f: &mut dyn FnMut(OctKey, &Cell) -> Option<Cell>) {
        self.tree.update_leaves(f);
    }

    fn leaf_count(&self) -> usize {
        self.tree.leaf_count()
    }

    fn depth(&self) -> u8 {
        self.tree.depth()
    }

    fn elapsed_ns(&self) -> u64 {
        self.tree.clock.now_ns() + self.fs.clock.now_ns()
    }

    fn charge_external(&mut self, ns: u64) {
        self.tree.clock.advance(ns);
    }

    fn barrier_to(&mut self, t_ns: u64) {
        let now = self.elapsed_ns();
        if t_ns > now {
            self.tree.clock.advance(t_ns - now);
        }
    }

    fn end_of_step(&mut self, step: usize) {
        if self.snapshot_interval > 0 && step.is_multiple_of(self.snapshot_interval) {
            self.tracer.begin("snapshot", self.elapsed_ns(), Some(step as u64));
            self.tree.snapshot(&mut self.fs, &format!("snapshot-{step}.gfs"));
            self.tracer.end("snapshot", self.elapsed_ns());
        }
    }

    fn name(&self) -> &'static str {
        "in-core"
    }

    fn as_dyn(&mut self) -> &mut dyn OctreeBackend {
        self
    }

    fn leaf_keys_sorted(&mut self) -> Vec<OctKey> {
        self.tree.leaf_keys_sorted()
    }

    fn containing_leaf_many(&mut self, keys: &[OctKey]) -> Vec<Option<OctKey>> {
        self.tree.containing_leaf_many(keys)
    }

    fn get_data_many(&mut self, keys: &[OctKey]) -> Vec<Option<Cell>> {
        self.tree.get_data_many(keys)
    }

    fn mem_stats(&self) -> MemStats {
        with_fs_traffic(&self.tree.stats, &self.fs)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }
}

// ---------------------------------------------------------------- etree

/// Etree out-of-core baseline adapter.
pub struct EtreeBackend {
    /// The wrapped tree (owns its file system).
    pub tree: EtreeOctree,
    /// Tracing journal for the flush phase.
    pub tracer: Tracer,
}

impl EtreeBackend {
    /// Etree on NVBM accessed through the FS interface (the paper's
    /// configuration for §5.2–5.4).
    pub fn on_nvbm() -> Self {
        EtreeBackend { tree: EtreeOctree::create(SimFs::on_nvbm()), tracer: Tracer::default() }
    }
}

impl OctreeBackend for EtreeBackend {
    fn refine(&mut self, key: OctKey) -> Result<(), PmError> {
        self.tree.refine(key)
    }

    fn coarsen(&mut self, key: OctKey) -> Result<(), PmError> {
        self.tree.coarsen(key)
    }

    fn is_leaf(&mut self, key: OctKey) -> Option<bool> {
        self.tree.is_leaf(key)
    }

    fn containing_leaf(&mut self, key: OctKey) -> Option<OctKey> {
        self.tree.containing_leaf(key)
    }

    fn get_data(&mut self, key: OctKey) -> Option<Cell> {
        self.tree.get_data(key)
    }

    fn set_data(&mut self, key: OctKey, data: Cell) -> Result<(), PmError> {
        self.tree.set_data(key, data)
    }

    fn for_each_leaf(&mut self, f: &mut dyn FnMut(OctKey, &Cell)) {
        self.tree.for_each_leaf(f);
    }

    fn update_leaves(&mut self, f: &mut dyn FnMut(OctKey, &Cell) -> Option<Cell>) {
        self.tree.update_leaves(f);
    }

    fn leaf_count(&self) -> usize {
        self.tree.leaf_count()
    }

    fn depth(&self) -> u8 {
        self.tree.depth()
    }

    fn elapsed_ns(&self) -> u64 {
        self.tree.fs.clock.now_ns()
    }

    fn charge_external(&mut self, ns: u64) {
        self.tree.fs.clock.advance(ns);
    }

    fn barrier_to(&mut self, t_ns: u64) {
        self.tree.fs.clock.advance_to(t_ns);
    }

    fn end_of_step(&mut self, step: usize) {
        self.tracer.begin("flush", self.elapsed_ns(), Some(step as u64));
        self.tree.flush();
        self.tracer.end("flush", self.elapsed_ns());
    }

    fn name(&self) -> &'static str {
        "out-of-core"
    }

    fn as_dyn(&mut self) -> &mut dyn OctreeBackend {
        self
    }

    fn leaf_keys_sorted(&mut self) -> Vec<OctKey> {
        self.tree.leaf_keys_sorted()
    }

    fn containing_leaf_many(&mut self, keys: &[OctKey]) -> Vec<Option<OctKey>> {
        self.tree.containing_leaf_many(keys)
    }

    fn get_data_many(&mut self, keys: &[OctKey]) -> Vec<Option<Cell>> {
        self.tree.get_data_many(keys)
    }

    fn mem_stats(&self) -> MemStats {
        with_fs_traffic(&self.tree.stats, &self.tree.fs)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pm_octree::PmConfig;
    use pmoctree_nvbm::{DeviceModel, NvbmArena};

    fn backends() -> Vec<Box<dyn OctreeBackend>> {
        vec![
            Box::new(PmBackend::new(PmOctree::create(
                NvbmArena::new(16 << 20, DeviceModel::default()),
                PmConfig { dynamic_transform: false, ..PmConfig::default() },
            ))),
            Box::new(InCoreBackend::new()),
            Box::new(EtreeBackend::on_nvbm()),
        ]
    }

    #[test]
    fn all_backends_agree_on_basic_meshing() {
        for mut b in backends() {
            assert_eq!(b.leaf_count(), 1, "{}", b.name());
            b.refine(OctKey::root()).unwrap();
            b.refine(OctKey::root().child(2)).unwrap();
            assert_eq!(b.leaf_count(), 15, "{}", b.name());
            assert_eq!(b.is_leaf(OctKey::root().child(2)), Some(false), "{}", b.name());
            assert_eq!(b.is_leaf(OctKey::root().child(3)), Some(true), "{}", b.name());
            assert_eq!(
                b.containing_leaf(OctKey::root().child(3).child(1)),
                Some(OctKey::root().child(3)),
                "{}",
                b.name()
            );
            b.set_data(OctKey::root().child(3), [1.0, 2.0, 3.0, 4.0]).unwrap();
            assert_eq!(b.get_data(OctKey::root().child(3)), Some([1.0, 2.0, 3.0, 4.0]));
            b.coarsen(OctKey::root().child(2)).unwrap();
            assert_eq!(b.leaf_count(), 8, "{}", b.name());
            let mut n = 0;
            b.for_each_leaf(&mut |_, _| n += 1);
            assert_eq!(n, 8, "{}", b.name());
            b.end_of_step(10);
            assert!(b.elapsed_ns() > 0, "{}", b.name());
        }
    }

    #[test]
    fn all_backends_agree_on_error_taxonomy() {
        for mut b in backends() {
            b.refine(OctKey::root()).unwrap();
            let name = b.name();
            let missing = OctKey::root().child(0).child(0);
            assert!(
                matches!(b.refine(missing), Err(PmError::NotFound(_))),
                "{name}: refine on a missing key"
            );
            assert!(
                matches!(b.refine(OctKey::root()), Err(PmError::NotALeaf(_))),
                "{name}: refine on an internal octant"
            );
            assert!(
                matches!(b.coarsen(OctKey::root().child(1)), Err(PmError::NotALeaf(_))),
                "{name}: coarsen on a leaf"
            );
            assert!(
                matches!(b.coarsen(missing), Err(PmError::NotFound(_))),
                "{name}: coarsen on a missing key"
            );
            assert!(
                matches!(b.set_data(missing, [0.0; 4]), Err(PmError::NotFound(_))),
                "{name}: set_data on a missing key"
            );
            assert!(
                matches!(b.set_data(OctKey::root(), [0.0; 4]), Err(PmError::NotALeaf(_))),
                "{name}: set_data on an internal octant"
            );
        }
    }

    #[test]
    fn update_leaves_consistent_across_backends() {
        for mut b in backends() {
            b.refine(OctKey::root()).unwrap();
            b.update_leaves(&mut |_, d| Some([d[0] + 1.0, d[1], d[2], d[3]]));
            let name = b.name();
            b.for_each_leaf(&mut |_, d| assert_eq!(d[0], 1.0, "{name}"));
        }
    }
}
