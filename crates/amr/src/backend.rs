//! The common interface the meshing routines drive.
//!
//! The paper runs the same droplet-ejection simulation over three octree
//! implementations (§5.1); [`OctreeBackend`] is the seam that makes that
//! possible here. Each tree answers the contract itself — its mutators
//! name their refusals in [`PmError`]'s taxonomy from the lookup the op
//! makes anyway — and pairs it with its own persistence mechanism:
//!
//! * [`PmBackend`] — PM-octree; `end_of_step` calls `pm_persistent`.
//! * `pmoctree_baselines::InCoreOctree` — Gerris-style in-core tree;
//!   `end_of_step` writes a snapshot file every `snapshot_interval` steps
//!   (10 in the paper).
//! * `pmoctree_baselines::EtreeOctree` — Etree out-of-core tree; every op
//!   is already write-through, `end_of_step` flushes index pages.

use pm_octree::{CellData, PmError, PmOctree};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{MemStats, Tracer};

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

/// The trait's `set_data` contract on a tree that also writes interior
/// payloads: payloads live on leaves (a linear octree has no internal
/// payload, so the common interface exposes none), so `probe` — the
/// tree's `is_leaf` of `key` — must name a leaf.
pub fn leaf_only(key: OctKey, probe: Option<bool>) -> Result<(), PmError> {
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
        self.tree.get_data(key).map(Cell::from)
    }

    fn set_data(&mut self, key: OctKey, data: Cell) -> Result<(), PmError> {
        leaf_only(key, self.tree.is_leaf(key))?;
        self.tree.set_data(key, data.into())
    }

    fn for_each_leaf(&mut self, f: &mut dyn FnMut(OctKey, &Cell)) {
        self.tree.for_each_leaf(|k, d| f(k, &(*d).into()));
    }

    fn update_leaves(&mut self, f: &mut dyn FnMut(OctKey, &Cell) -> Option<Cell>) {
        self.tree.update_leaves(|k, d| f(k, &(*d).into()).map(CellData::from));
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
        self.tree.get_data_many(keys).into_iter().map(|r| r.map(Cell::from)).collect()
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
