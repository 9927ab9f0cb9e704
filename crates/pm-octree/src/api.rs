//! The PM-octree programming interface (§3.4, Table 1).
//!
//! [`PmOctree`] realizes *orthogonal persistence*: the application meshes
//! and solves against one logical octree; the library decides which
//! octants live in DRAM (`C0`) vs NVBM (`C1`), performs copy-on-write
//! versioning, and manages every persistent pointer. The Table 1 entry
//! points map to:
//!
//! | paper              | here                  |
//! |--------------------|-----------------------|
//! | `pm_create`        | [`PmOctree::create`]  |
//! | `pm_persistent`    | [`PmOctree::persist`] |
//! | `pm_restore`       | [`PmOctree::restore`] |
//! | `pm_delete`        | [`PmOctree::delete`]  |

use pmoctree_morton::{LeafIndex, OctKey};
use pmoctree_nvbm::{NvbmArena, POffset, RecKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::c0::{C0Forest, C0Tree, CoarsenError};
use crate::c1::{self, Locate};
use crate::config::PmConfig;
use crate::domains::{self, DomainOp};
use crate::gc::{self, GcReport};
use crate::octant::{CellData, ChildPtr, OctAccess, Octant, PmStore};
use crate::replica::ReplicaSet;
use crate::sampling::{self, FeatureFn};

/// Application-state commit hook run inside [`PmOctree::persist_with_hook`]
/// between the tree root swap and GC; returns the byte regions it wrote
/// (shipped with the persist's replica delta), or the error that stopped
/// its commit — in which case the persist skips GC and replica shipping
/// (see [`PmOctree::persist_with_hook`]).
pub type PersistHook<'a> = dyn FnMut(&mut NvbmArena) -> Result<Vec<(u64, u32)>, PmError> + 'a;

/// Errors surfaced by the meshing and recovery interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmError {
    /// No octant exists at this key in `V_i`.
    NotFound(String),
    /// Refinement of a non-leaf, or coarsening of a leaf.
    NotALeaf(String),
    /// Coarsening would violate structure (children not all leaves).
    NotCoarsenable(String),
    /// On-media state failed structural validation: an out-of-bounds or
    /// misaligned pointer, a key inconsistent with its position, a cycle,
    /// a non-zero reserved byte, or a live octant on the free list.
    /// Recovery and the invariant checker report this instead of
    /// panicking on corrupt media.
    Corrupt(String),
    /// Recovery could not start (unformatted device, no persisted
    /// version) or a configuration was rejected.
    Recovery(String),
    /// A tenant's write would exceed its byte quota (`pm-rt` service
    /// layer). The operation was rejected before touching media.
    QuotaExceeded(String),
    /// An MVCC snapshot handle outlived the state it pinned (media
    /// restored from a replica, or the runtime registry destroyed).
    SnapshotGone(String),
    /// The tenant is exclusively leased (checked out) by another client;
    /// retry after the lease is released.
    TenantBusy(String),
    /// The NVBM device (or a write domain's allocator lease) is full. The
    /// failed mutation left nothing half-linked: COW paths allocate every
    /// copy before the single publication write, so the pre-mutation
    /// version stays intact and restorable; orphaned copies are ordinary
    /// GC garbage.
    Full(String),
}

impl std::fmt::Display for PmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmError::NotFound(k) => write!(f, "octant not found: {k}"),
            PmError::NotALeaf(k) => write!(f, "octant is not a leaf: {k}"),
            PmError::NotCoarsenable(k) => write!(f, "octant cannot be coarsened: {k}"),
            PmError::Corrupt(what) => write!(f, "persistent state corrupt: {what}"),
            PmError::Recovery(what) => write!(f, "recovery failed: {what}"),
            PmError::QuotaExceeded(what) => write!(f, "tenant quota exceeded: {what}"),
            PmError::SnapshotGone(what) => write!(f, "snapshot no longer valid: {what}"),
            PmError::TenantBusy(what) => write!(f, "tenant busy: {what}"),
            PmError::Full(what) => write!(f, "NVBM full: {what}"),
        }
    }
}

impl std::error::Error for PmError {}

/// Operation counters surfaced to the experiment harness.
#[derive(Debug, Default, Clone)]
pub struct Events {
    /// C0→C1 merge operations (pressure evictions + persist merges).
    pub merges: u64,
    /// Of those, merges forced by DRAM pressure (`threshold_DRAM`).
    pub evictions: u64,
    /// Dynamic layout transformations executed.
    pub transforms: u64,
    /// Garbage collections run.
    pub gc_runs: u64,
    /// Last GC outcome.
    pub last_gc: Option<GcReport>,
    /// `(octants in V_i, octants shared with V_{i-1})` at the last persist
    /// — the Fig. 3 overlap measurement.
    pub last_overlap: Option<(usize, usize)>,
    /// Persist points executed.
    pub persists: u64,
}

impl Events {
    /// Overlap ratio of the last persist (0 when none yet).
    pub fn overlap_ratio(&self) -> f64 {
        match self.last_overlap {
            Some((total, shared)) if total > 0 => shared as f64 / total as f64,
            _ => 0.0,
        }
    }
}

/// A persistent merged octree over one NVBM device.
pub struct PmOctree {
    /// The NVBM store (public for statistics access).
    pub store: PmStore,
    /// The DRAM (C0) forest.
    pub(crate) forest: C0Forest,
    /// Per-C0-tree NVBM shadow: the subtree image at the last persist
    /// (indexed by volatile id), used for diff-merging.
    pub(crate) shadows: Vec<POffset>,
    /// Configuration.
    pub cfg: PmConfig,
    /// Root of the working version `V_i` (volatile mirror; the header is
    /// only updated at persist points).
    pub(crate) current_root: POffset,
    /// Root of the persisted version `V_{i-1}`.
    pub(crate) prev_root: POffset,
    /// Current working epoch: octants with an older epoch are shared.
    pub(crate) epoch: u32,
    /// Monotone estimate of the deepest refinement level.
    pub(crate) depth: u8,
    /// Leaf count of `V_i`, maintained incrementally.
    pub(crate) leaves: usize,
    /// Application feature functions for §3.3 sampling.
    pub(crate) features: Vec<FeatureFn>,
    /// Operation counters.
    pub events: Events,
    /// Remote replicas of `V_{i-1}` (present when `cfg.replicas`).
    pub replicas: Option<ReplicaSet>,
    pub(crate) rng: StdRng,
    /// Morton-sorted DRAM view of the leaf set, maintained incrementally
    /// on refine/coarsen and rebuilt lazily on first batched query. Slots
    /// are unused (payloads move under COW); the index answers *where*
    /// queries, payload reads still walk to (and charge) the owning tier.
    pub(crate) index: LeafIndex<3>,
}

impl PmOctree {
    /// `pm_create`: format a PM-octree on `arena`, persist an initial
    /// single-root version, and return the handle.
    pub fn create(arena: NvbmArena, cfg: PmConfig) -> Self {
        let mut store = PmStore::new(arena);
        let root_octant = Octant::leaf(OctKey::root(), 1, CellData::default());
        let root = store.alloc_octant(&root_octant).expect("arena too small for the root");
        store.arena.flush_all();
        store.arena.set_root(0, root);
        store.arena.set_root(1, root);
        store.arena.set_epoch(1);
        store.arena.set_bump_hint(store.alloc.bump());
        let replicas = cfg.replicas.then(|| {
            let mut r = ReplicaSet::new();
            r.full_sync(&mut store.arena);
            r
        });
        PmOctree {
            store,
            forest: C0Forest::new(),
            shadows: Vec::new(),
            cfg,
            current_root: root,
            prev_root: root,
            epoch: 2,
            depth: 0,
            leaves: 1,
            features: Vec::new(),
            events: Events::default(),
            replicas,
            rng: StdRng::seed_from_u64(0x00C0_FFEE),
            index: LeafIndex::new(),
        }
    }

    /// `pm_restore`: recover from `arena` after a failure on the same
    /// node. Returns a handle whose working tree is exactly the last
    /// persisted version — near-instantaneous: only the header is read,
    /// plus one validated reachability pass to rebuild volatile state.
    ///
    /// The pass ([`crate::verify::scan_tree`]) checks every pointer before
    /// following it, so a device whose persisted tree is structurally
    /// damaged (which the protocol makes impossible for real crashes, but
    /// media corruption can still produce) yields
    /// [`PmError::Corrupt`] rather than a panic. An unformatted or empty
    /// device yields [`PmError::Recovery`].
    pub fn restore(mut arena: NvbmArena, cfg: PmConfig) -> Result<Self, PmError> {
        if !arena.is_formatted() {
            return Err(PmError::Recovery("device is not a PM-octree (bad magic)".into()));
        }
        let prev = arena.root(1);
        Self::restore_at(arena, prev, cfg)
    }

    /// [`PmOctree::restore`] at an explicitly named tree root instead of
    /// the header's recovery slot. The `pm-rt` runtime records which tree
    /// root its committed bundle pairs with; when a crash lands between
    /// the tree's root swap and the runtime's (so the header already
    /// names a newer version than the bundle), whole-application resume
    /// restores *at the recorded root* — still allocated, because GC only
    /// runs after the runtime commit. Octants unreachable from `root`
    /// (including any newer version) are reclaimed by the allocator
    /// rebuild, exactly like ordinary orphans.
    pub fn restore_at(mut arena: NvbmArena, root: POffset, cfg: PmConfig) -> Result<Self, PmError> {
        if !arena.is_formatted() {
            return Err(PmError::Recovery("device is not a PM-octree (bad magic)".into()));
        }
        let prev = root;
        if prev.is_null() {
            return Err(PmError::Recovery(
                "no persisted version to restore (null recovery root)".into(),
            ));
        }
        let header_epoch = arena.epoch() as u32;
        let mut store = PmStore::new(arena);
        // Validated reachability scan: the recovery root must name a
        // structurally closed tree. V_i octants not in V_{i-1} are
        // implicitly discarded (the paper's "mark deleted, GC recycles in
        // background") — the allocator and registry are rebuilt from the
        // live set alone, so every orphan's space is reclaimed here.
        let scan = crate::verify::scan_tree(&mut store, prev)?;
        if scan.max_epoch > header_epoch + 1 {
            return Err(PmError::Corrupt(format!(
                "reachable octant from epoch {} but header says {header_epoch}",
                scan.max_epoch
            )));
        }
        store.rebuild_from_live(scan.live);
        // Resume strictly above every persisted octant's epoch. The header
        // epoch alone is not enough: a crash between the root swap and the
        // epoch publish leaves slot 1 pointing at octants stamped
        // `header_epoch + 1`, and treating those as exclusive would mutate
        // the persisted version in place.
        let epoch = header_epoch.max(scan.max_epoch) + 1;
        // Re-point both root slots at the restored version: when restoring
        // at an explicitly named (older) root, the header's recovery slot
        // may still name a newer version whose octants the allocator
        // rebuild just reclaimed — leaving it dangling would break a
        // subsequent plain `restore`.
        store.arena.set_root(0, prev);
        store.arena.set_root(1, prev);
        let mut t = PmOctree {
            store,
            forest: C0Forest::new(),
            shadows: Vec::new(),
            cfg,
            current_root: prev,
            prev_root: prev,
            epoch,
            depth: scan.depth,
            leaves: scan.leaves,
            features: Vec::new(),
            events: Events::default(),
            replicas: None,
            rng: StdRng::seed_from_u64(0x00C0_FFEE),
            index: LeafIndex::new(),
        };
        if cfg.replicas {
            let mut r = ReplicaSet::new();
            r.full_sync(&mut t.store.arena);
            t.replicas = Some(r);
        }
        // Leave a durable mark that this device came back from a crash:
        // the next black-box dump shows the restore alongside whatever
        // entries survived from before the failure.
        t.store.arena.rec_mark(RecKind::Note, "restore", epoch as u64);
        Ok(t)
    }

    /// Restore onto a *new* node from a remote replica (§3.4 second
    /// scenario): the replica image is transferred and becomes the local
    /// NVBM contents. Returns the handle plus the number of bytes that had
    /// to cross the network (charged by the caller's network model).
    pub fn restore_from_replica(
        mut arena: NvbmArena,
        replica: &ReplicaSet,
        cfg: PmConfig,
    ) -> Result<(Self, u64), PmError> {
        let image = replica.image();
        arena.restore_media(image);
        let moved = replica.live_bytes();
        Ok((Self::restore(arena, cfg)?, moved))
    }

    /// `pm_delete`: drop every octant and clear the persistent roots.
    pub fn delete(mut self) -> NvbmArena {
        self.store.arena.set_root(0, POffset::NULL);
        self.store.arena.set_root(1, POffset::NULL);
        for p in std::mem::take(&mut self.store.registry) {
            self.store.free_octant(p);
        }
        self.store.arena
    }

    /// Register an application feature function (refinement predicate,
    /// solver region-of-interest test) for feature-directed sampling.
    pub fn add_feature(&mut self, f: FeatureFn) {
        self.features.push(f);
    }

    // ---- mesh queries ----------------------------------------------------

    /// Number of leaf octants (mesh elements) in `V_i`.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// Deepest refinement level seen so far.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Working-epoch value (exposed for tests and instrumentation).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Total simulated memory in use: NVBM live bytes + DRAM C0 bytes.
    pub fn memory_usage_bytes(&self) -> u64 {
        self.store.alloc.live_bytes()
            + (self.forest.total_octants * crate::octant::OCTANT_SIZE) as u64
    }

    /// How many octants currently sit in DRAM (C0)?
    pub fn c0_octants(&self) -> usize {
        self.forest.total_octants
    }

    /// Root keys of the DRAM-resident (C0) subtrees.
    pub fn c0_subtree_keys(&self) -> Vec<OctKey> {
        self.forest.ids().into_iter().map(|id| self.forest.get(id).subtree_key).collect()
    }

    /// Does the octant at `key` exist in `V_i`, and is it a leaf?
    pub fn is_leaf(&mut self, key: OctKey) -> Option<bool> {
        if let Some(id) = self.forest.owner_of(&key) {
            let store = &mut self.store;
            return self
                .forest
                .with_tree(id, |t| t.find(key, &mut store.arena).map(|i| t.is_leaf(i)));
        }
        match c1::locate(&mut self.store, self.current_root, key) {
            Locate::Nvbm(p) => Some(self.store.nav_line(p).mask == 0),
            _ => None,
        }
    }

    /// The leaf whose region contains `key` (descend until a leaf). Every
    /// in-domain key has one. Returns `None` only if `key`'s cell is
    /// *refined deeper* than `key` (i.e. key names an internal octant).
    pub fn containing_leaf(&mut self, key: OctKey) -> Option<OctKey> {
        let before = self.store.arena.stats.total_lines_snapshot();
        let out = self.containing_leaf_inner(key);
        let lines = self.store.arena.stats.total_lines_snapshot() - before;
        self.store.arena.stats.descent_lines(lines);
        out
    }

    fn containing_leaf_inner(&mut self, key: OctKey) -> Option<OctKey> {
        self.store.arena.stats.root_descent();
        if let Some(id) = self.forest.owner_of(&key) {
            let store = &mut self.store;
            return self.forest.with_tree(id, |t| t.containing_leaf(key, &mut store.arena));
        }
        match c1::locate(&mut self.store, self.current_root, key) {
            Locate::Nvbm(p) => (self.store.nav_line(p).mask == 0).then_some(key),
            // Continue inside the C0 tree.
            Locate::Volatile(id) => {
                let store = &mut self.store;
                self.forest.with_tree(id, |t| t.containing_leaf(key, &mut store.arena))
            }
            Locate::Missing(stopped_at) => stopped_at.map(|l| key.ancestor_at(l)),
        }
    }

    /// Read the payload of the octant at `key`.
    pub fn get_data(&mut self, key: OctKey) -> Option<CellData> {
        if let Some(id) = self.forest.owner_of(&key) {
            return self.c0_data(id, key);
        }
        match c1::locate(&mut self.store, self.current_root, key) {
            Locate::Nvbm(p) => Some(self.store.data(p)),
            _ => None,
        }
    }

    /// Payload of `key` inside the C0 tree `id` that owns its region.
    fn c0_data(&mut self, id: u32, key: OctKey) -> Option<CellData> {
        let store = &mut self.store;
        self.forest.with_tree(id, |t| {
            t.find(key, &mut store.arena).map(|i| t.data_of(i, &mut store.arena))
        })
    }

    // ---- mesh mutation ----------------------------------------------------

    /// Refine the leaf at `key` into 8 children inheriting its payload.
    pub fn refine(&mut self, key: OctKey) -> Result<(), PmError> {
        self.apply_op(DomainOp::Refine(key))
    }

    /// Coarsen the octant at `key`: its children (which must all be
    /// leaves) are removed.
    pub fn coarsen(&mut self, key: OctKey) -> Result<(), PmError> {
        self.apply_op(DomainOp::Coarsen(key))
    }

    /// Overwrite the payload of the octant at `key`.
    pub fn set_data(&mut self, key: OctKey, data: CellData) -> Result<(), PmError> {
        self.apply_op(DomainOp::SetData(key, data))
    }

    /// Apply one op to `V_i`: inside the DRAM tree that owns its key, or
    /// — after the two C0 preludes — through the NVBM kernel
    /// ([`domains::apply`]).
    pub(crate) fn apply_op(&mut self, op: DomainOp) -> Result<(), PmError> {
        let key = op.key();
        if let Some(id) = self.forest.owner_of(&key) {
            self.apply_c0(id, op)?;
        } else {
            match op {
                DomainOp::Refine(_) if self.should_seed_c0(key) => {
                    // Now C0-owned: the refinement happens at DRAM speed.
                    self.seed_c0(key)?;
                    return self.apply_op(op);
                }
                DomainOp::Coarsen(_) if self.has_c0_children(key) => {
                    self.absorb_c0_children(key)?
                }
                _ => {}
            }
            self.current_root = domains::apply(&mut self.store, self.current_root, op, self.epoch)?;
        }
        if self.account(op) {
            self.after_mutation();
        }
        Ok(())
    }

    /// Leaf-count, depth and leaf-index bookkeeping for one applied op
    /// (per-op return and batch join alike). Returns whether the op
    /// changed the structure, i.e. whether `after_mutation` is due.
    pub(crate) fn account(&mut self, op: DomainOp) -> bool {
        match op {
            DomainOp::Refine(k) => {
                self.leaves += 7;
                self.depth = self.depth.max(k.level() + 1);
                self.index.on_refine_uniform(k, 0);
                true
            }
            DomainOp::Coarsen(k) => {
                self.leaves -= 7;
                self.index.on_coarsen(k, 0);
                true
            }
            DomainOp::SetData(..) => false,
        }
    }

    /// `op` inside the DRAM tree `id` that owns its key.
    fn apply_c0(&mut self, id: u32, op: DomainOp) -> Result<(), PmError> {
        let key = op.key();
        let arena = &mut self.store.arena;
        self.forest.with_tree(id, |t| {
            let i = t.find(key, arena).ok_or_else(|| PmError::NotFound(format!("{key:?}")))?;
            match op {
                DomainOp::Refine(_) if !t.is_leaf(i) => {
                    return Err(PmError::NotALeaf(format!("{key:?}")))
                }
                DomainOp::Refine(_) => {
                    t.refine(i, arena);
                }
                DomainOp::Coarsen(_) => t.coarsen(i, arena).map_err(|e| match e {
                    CoarsenError::Leaf => PmError::NotALeaf(format!("{key:?}")),
                    CoarsenError::DeepChildren => PmError::NotCoarsenable(format!("{key:?}")),
                })?,
                DomainOp::SetData(_, d) => t.set_data(i, d, arena),
            }
            Ok(())
        })
    }

    /// Refine prelude: promote the NVBM leaf at `key` to a new DRAM
    /// subtree.
    fn seed_c0(&mut self, key: OctKey) -> Result<(), PmError> {
        let Locate::Nvbm(p) = c1::locate(&mut self.store, self.current_root, key) else {
            return Err(PmError::NotFound(format!("{key:?}")));
        };
        if self.store.nav_line(p).mask != 0 {
            return Err(PmError::NotALeaf(format!("{key:?}")));
        }
        let data = self.store.data(p);
        let id = self.register_c0(C0Tree::new(key, data), p);
        self.current_root = c1::replace_slot(
            &mut self.store,
            self.current_root,
            key,
            ChildPtr::Volatile(id),
            self.epoch,
        )?;
        Ok(())
    }

    /// Is some child of the NVBM octant at `key` a DRAM subtree? Answered
    /// from the forest, without touching NVBM.
    pub(crate) fn has_c0_children(&self, key: OctKey) -> bool {
        key.level() < OctKey::MAX_LEVEL
            && (0..8).any(|c| self.forest.owner_of(&key.child(c)).is_some())
    }

    /// Coarsen prelude: children of `key` that are single-leaf DRAM
    /// subtrees get merged back first so the coarsening can proceed
    /// entirely in NVBM; deeper DRAM children mean the region is refined
    /// and coarsening is illegal anyway. Refuses before the first merge.
    fn absorb_c0_children(&mut self, key: OctKey) -> Result<(), PmError> {
        let Locate::Nvbm(p) = c1::locate(&mut self.store, self.current_root, key) else {
            return Ok(()); // nothing to absorb; the kernel reports the missing key
        };
        let mut absorb = Vec::new();
        for c in self.store.nav_line(p).children {
            let coarsenable = match c {
                ChildPtr::Null => true,
                ChildPtr::Volatile(id) => {
                    absorb.push(id);
                    self.forest.get(id).octant_count() == 1
                }
                ChildPtr::Nvbm(c) => self.store.nav_line(c).mask == 0,
            };
            if !coarsenable {
                return Err(PmError::NotCoarsenable(format!("{key:?}")));
            }
        }
        absorb.into_iter().try_for_each(|id| self.evict_c0(id))
    }

    // ---- domain-parallel batch mutation ----------------------------------

    /// Refine a batch of leaves, sharded across per-subtree write domains
    /// and executed on the worker pool (see [`crate::domains`]). Returns
    /// one success flag per key, in input order; a key that is missing,
    /// not a leaf, or hits a full device reports `false` and leaves the
    /// tree unchanged at that key. Deterministic: results, media, clock
    /// and trace are byte-identical for any worker count.
    pub fn refine_many(&mut self, keys: &[OctKey]) -> Vec<bool> {
        domains::run_batch(self, &keys.iter().map(|&k| DomainOp::Refine(k)).collect::<Vec<_>>())
    }

    /// Coarsen a batch of octants domain-parallel; same contract as
    /// [`PmOctree::refine_many`].
    pub fn coarsen_many(&mut self, keys: &[OctKey]) -> Vec<bool> {
        domains::run_batch(self, &keys.iter().map(|&k| DomainOp::Coarsen(k)).collect::<Vec<_>>())
    }

    /// Overwrite a batch of leaf payloads domain-parallel; same contract
    /// as [`PmOctree::refine_many`].
    pub fn set_data_many(&mut self, ops: &[(OctKey, CellData)]) -> Vec<bool> {
        domains::run_batch(
            self,
            &ops.iter().map(|&(k, d)| DomainOp::SetData(k, d)).collect::<Vec<_>>(),
        )
    }

    // ---- traversal ---------------------------------------------------------

    /// Visit every leaf of `V_i` (NVBM leaves first, then DRAM subtrees;
    /// order within each part is pre-order).
    pub fn for_each_leaf(&mut self, mut f: impl FnMut(OctKey, &CellData)) {
        let mut volatile_ids = Vec::new();
        c1::sweep_leaves(
            &mut self.store,
            self.current_root,
            self.epoch,
            &mut |k, d| {
                f(k, d);
                None
            },
            &mut |id| volatile_ids.push(id),
        )
        .expect("a sweep that updates nothing allocates nothing");
        for id in volatile_ids {
            let store = &mut self.store;
            self.forest.with_tree(id, |t| t.for_each_leaf(&mut store.arena, &mut f));
        }
    }

    /// Collect all leaves as `(key, data)` pairs, sorted by Z-order.
    pub fn leaves_sorted(&mut self) -> Vec<(OctKey, CellData)> {
        let mut out = Vec::with_capacity(self.leaves);
        self.for_each_leaf(|k, d| out.push((k, *d)));
        out.sort_by_key(|a| a.0);
        out
    }

    // ---- batched leaf-index queries --------------------------------------

    /// Drop the volatile leaf index; the next batched query rebuilds it.
    /// Whole-application persistence calls this after every combined
    /// persist so a run resumed from the persist point (which necessarily
    /// starts with a cold index) rebuilds at exactly the same points — and
    /// therefore on exactly the same virtual clock — as the original run.
    pub fn invalidate_leaf_index(&mut self) {
        self.index.invalidate();
    }

    /// Charge DRAM-read cost for touching `entries` leaf-index entries
    /// (the index lives in DRAM regardless of where octants live).
    fn charge_index_entries(&mut self, entries: usize) {
        let lines = LeafIndex::<3>::lines_for_entries(entries);
        let ns = self.store.arena.model().dram.read_ns;
        self.store.arena.clock.advance(lines * ns);
        self.store.arena.stats.dram_read(entries * pmoctree_morton::index::ENTRY_BYTES, lines);
    }

    /// Bring the leaf index up to date before a query: fold the edits the
    /// mutation hooks recorded since the last query, or rebuild it if
    /// stale. The enumeration runs through [`PmOctree::for_each_leaf`],
    /// which charges each octant read to the tier (C0/C1) it actually
    /// lives in.
    fn ensure_index(&mut self) {
        if self.index.is_valid() {
            self.index.settle();
            return;
        }
        let mut entries: Vec<(OctKey, u64)> = Vec::with_capacity(self.leaves);
        self.for_each_leaf(|k, _| entries.push((k, 0)));
        let n = self.index.rebuild(entries);
        self.store.arena.stats.index_rebuild(n as u64);
    }

    /// Z-order-sorted leaf keys, answered from the DRAM leaf index.
    pub fn leaf_keys_sorted(&mut self) -> Vec<OctKey> {
        self.ensure_index();
        self.charge_index_entries(self.index.len());
        self.index.entries().iter().map(|e| e.0).collect()
    }

    /// The index half of a batched query: per key (input order) its leaf's
    /// index entry, the merge-scan charged as DRAM reads — no NVBM descent.
    fn resolve_charged(&mut self, keys: &[OctKey]) -> Vec<Option<usize>> {
        self.ensure_index();
        let (resolved, touched) = self.index.resolve_batch(keys);
        self.charge_index_entries(touched);
        self.store.arena.stats.index_hits(keys.len() as u64);
        resolved
    }

    /// Resolve a batch of containment queries against the sorted leaf
    /// index in one merge-scan. Input order is arbitrary; results match
    /// input order. Each query costs DRAM index reads only.
    pub fn containing_leaf_many(&mut self, keys: &[OctKey]) -> Vec<Option<OctKey>> {
        let resolved = self.resolve_charged(keys);
        resolved.into_iter().map(|r| r.map(|e| self.index.entries()[e].0)).collect()
    }

    /// Batched leaf payload reads. The DRAM index filters out keys that
    /// are not current leaves without touching NVBM; each resolved leaf's
    /// payload is then fetched from the tier it lives in (the index never
    /// caches payloads). NVBM leaves are located in Z-order through one
    /// [`c1::Cursor`], so a navigation line shared by several keys' paths
    /// is read (and charged) once per batch.
    pub fn get_data_many(&mut self, keys: &[OctKey]) -> Vec<Option<CellData>> {
        let resolved = self.resolve_charged(keys);
        // Exact leaf hits by entry: the Z-order the cursor needs.
        let mut hits: Vec<(usize, usize)> = resolved
            .into_iter()
            .enumerate()
            .filter_map(|(pos, r)| Some((r?, pos)))
            .filter(|&(e, pos)| self.index.entries()[e].0 == keys[pos])
            .collect();
        hits.sort_unstable();
        let mut out = vec![None; keys.len()];
        let mut cursor = c1::Cursor::new(self.current_root);
        for (_, pos) in hits {
            out[pos] = match self.forest.owner_of(&keys[pos]) {
                Some(id) => self.c0_data(id, keys[pos]),
                None => match cursor.locate(&mut self.store, keys[pos]) {
                    Locate::Nvbm(p) => Some(self.store.data(p)),
                    _ => None,
                },
            };
        }
        out
    }

    /// Solver sweep: `f` inspects each leaf and returns `Some(new_data)`
    /// to update it. NVBM updates are copy-on-write, made inside the one
    /// tree walk ([`c1::sweep_leaves`]).
    pub fn update_leaves(&mut self, mut f: impl FnMut(OctKey, &CellData) -> Option<CellData>) {
        let mut volatile_ids = Vec::new();
        self.current_root =
            c1::sweep_leaves(&mut self.store, self.current_root, self.epoch, &mut f, &mut |id| {
                volatile_ids.push(id)
            })
            .expect("NVBM device full mid-sweep: updates need COW headroom");
        for id in volatile_ids {
            let store = &mut self.store;
            self.forest.with_tree(id, |t| t.update_leaves(&mut store.arena, &mut f));
        }
        self.after_mutation();
    }

    // ---- persistence ---------------------------------------------------------

    /// `pm_persistent`: merge `C0` into `C1`, flush, atomically advance
    /// the persistent roots, GC the previous version, then (if enabled)
    /// run the dynamic layout transformation. On return, `V_{i-1}` is the
    /// tree as of this call.
    ///
    /// Crash-testing the protocol goes through the arena's
    /// [`FailPlan`](pmoctree_nvbm::FailPlan): every phase boundary is a
    /// labelled failpoint (`persist::merge`, `persist::flush`,
    /// `persist::root_swap_half`, `persist::root_swap`). A crash at the
    /// first three recovers the *previous* version; at `root_swap`, the
    /// *new* one (root slot 1 — the recovery root — is written last, so
    /// it always names a fully-flushed tree).
    pub fn persist(&mut self) {
        self.persist_with_hook(&mut |_| Ok(Vec::new()))
            .expect("persist failed: NVBM device cannot hold the merged working set");
    }

    /// Persist with an application-state commit hook (the `pm-rt`
    /// integration point). The hook runs *after* the tree's atomic root
    /// swap and *before* GC reclaims the superseded version, and returns
    /// the byte regions it wrote (shipped with this persist's replica
    /// delta).
    ///
    /// That ordering is what makes the combined commit need no new
    /// consistency argument: a crash before the tree swap recovers
    /// `V_{i-1}` for both subsystems; a crash between the tree swap and
    /// the hook's own root swap leaves the runtime bundle naming
    /// `V_{i-1}`'s tree root, whose octants are all still allocated
    /// precisely because GC has not yet run — so restoring *at the root
    /// the bundle names* is always structurally sound.
    ///
    /// # Errors
    ///
    /// If the hook fails (e.g. the runtime heap is full), the persist
    /// stops before GC and replica shipping and returns the hook's
    /// error: the superseded version stays allocated, so whichever tree
    /// root the last *committed* runtime bundle names remains
    /// restorable, and no replica receives a delta missing the runtime
    /// regions. The octree handle itself stays coherent (the new tree
    /// version is durable and current), but the run should be treated as
    /// failed: the hook's own volatile state (e.g. a `pm-rt` instance
    /// that died mid-commit) must be discarded and re-restored.
    pub fn persist_with_hook(&mut self, hook: &mut PersistHook<'_>) -> Result<(), PmError> {
        // Span taxonomy mirrors the failpoint labels one-to-one; the
        // guards close in reverse order on every early (error) return,
        // so a failed persist still leaves the journal balanced.
        let _span_persist = self.store.arena.span("persist");
        self.store.arena.rec_mark(RecKind::SpanBegin, "persist", self.epoch as u64);
        // Wear attribution: committed bytes are charged to the protocol
        // phase in force at commit time (write-back, so lines written in
        // one phase may commit in a later flush — see `MemStats`).
        let prev_phase = self.store.arena.set_phase("persist::merge");
        // (1) Merge every DRAM subtree into NVBM with diff-sharing.
        let span_merge = self.store.arena.span("persist::merge");
        let ids = self.forest.ids();
        let mut merged_offsets: Vec<(u32, POffset)> = Vec::with_capacity(ids.len());
        let mut root = self.current_root;
        for id in &ids {
            let shadow = self.shadow_of(*id);
            // Clean trees: the shadow image is still exact; re-link it
            // without reading a single octant.
            let (dirty, key) = {
                let t = self.forest.get(*id);
                (t.dirty, t.subtree_key)
            };
            let off = if !dirty && !shadow.is_null() {
                shadow
            } else {
                let octants = self.forest.get(*id).collect();
                let off = c1::merge_subtree(&mut self.store, &octants, shadow.opt(), self.epoch)?;
                self.events.merges += 1;
                off
            };
            root = c1::replace_slot(&mut self.store, root, key, ChildPtr::Nvbm(off), self.epoch)?;
            merged_offsets.push((*id, off));
        }
        self.store.arena.failpoint("persist::merge");
        drop(span_merge);
        // (2) Flush everything, then the atomic root/epoch advance. Until
        // the set_root below lands, recovery uses the old V_{i-1}.
        self.store.arena.set_phase("persist::flush");
        let span_flush = self.store.arena.span("persist::flush");
        self.store.arena.flush_all();
        self.store.arena.failpoint("persist::flush");
        drop(span_flush);
        self.store.arena.set_phase("persist::root_swap");
        let span_half = self.store.arena.span("persist::root_swap_half");
        // The header publication is batched into two media commits
        // instead of four: the bump hint and epoch are *staged* (no
        // flush) so they ride the forward root slot's atomic line write.
        // A torn prefix of that line can persist the epoch without the
        // root — pure inflation, which restore already tolerates
        // (`max(header_epoch, scan.max_epoch) + 1`) — while recovery
        // reads slot 1, untouched until the second commit below.
        self.store.arena.stage_bump_hint(self.store.alloc.bump());
        self.store.arena.stage_epoch(self.epoch as u64);
        self.store.arena.set_root(0, root);
        self.store.arena.failpoint("persist::root_swap_half");
        drop(span_half);
        let span_swap = self.store.arena.span("persist::root_swap");
        self.store.arena.set_root(1, root);
        self.store.arena.failpoint("persist::root_swap");
        drop(span_swap);
        // (3) Application-state commit (`pm-rt`): the runtime stages and
        // atomically publishes its root bundle while the superseded tree
        // version is still allocated (GC below has not run), so whichever
        // tree root the bundle names remains restorable. If it fails, GC
        // must NOT run: the last committed bundle may pair with the
        // superseded tree root, and reclaiming those octants (or shipping
        // a replica delta missing the runtime regions) would corrupt the
        // state whole-application resume restores at.
        self.store.arena.set_phase("rt::commit");
        let extra_regions = match hook(&mut self.store.arena) {
            Ok(regions) => regions,
            Err(e) => {
                self.store.arena.set_phase(prev_phase);
                // The tree swap is durable; adopt it so the handle
                // stays coherent (the merged subtrees are already in
                // NVBM — dropping their DRAM copies loses nothing),
                // then surface the hook's error with the superseded
                // version still allocated and no delta shipped.
                self.prev_root = root;
                self.current_root = root;
                self.forest = C0Forest::new();
                self.shadows = Vec::new();
                self.epoch += 1;
                return Err(e);
            }
        };
        // (4) The previous version is now garbage; reclaim it. The mark
        // walk doubles as the census of the version just published: the
        // Fig. 3 overlap (shared = older than this epoch) and the octants
        // created this epoch.
        self.prev_root = root;
        self.current_root = root;
        let (report, fresh) = gc::collect(&mut self.store, &[root], self.epoch);
        self.events.gc_runs += 1;
        self.events.last_gc = Some(report);
        self.events.last_overlap = Some((report.live, report.shared));
        self.events.persists += 1;
        // (5) Replica delta shipping: the octants created this epoch.
        if let Some(mut r) = self.replicas.take() {
            self.store.arena.set_phase("replica::ship");
            let _span_ship = self.store.arena.span("replica::ship");
            self.store.arena.failpoint("replica::ship");
            r.push_delta(&mut self.store.arena, &fresh, &extra_regions);
            self.replicas = Some(r);
        }
        // (6) New working epoch; everything persisted is now shared.
        self.store.arena.set_phase("persist::reattach");
        let span_reattach = self.store.arena.span("persist::reattach");
        self.epoch += 1;
        // (7) Re-attach the retained DRAM subtrees to the working tree
        //     and remember their merged images as diff shadows.
        self.shadows = Vec::new();
        for (id, off) in merged_offsets {
            self.set_shadow(id, off);
            let key = self.forest.get(id).subtree_key;
            self.forest.get_mut(id).dirty = false;
            self.current_root = c1::replace_slot(
                &mut self.store,
                self.current_root,
                key,
                ChildPtr::Volatile(id),
                self.epoch,
            )?;
        }
        self.forest.decay_access(0.5);
        drop(span_reattach);
        self.store.arena.set_phase(prev_phase);
        // (8) Dynamic layout transformation (§3.3) runs after merging:
        // one detection pass, promoting up to 16 of the hottest NVBM
        // subtrees.
        if self.cfg.dynamic_transform {
            self.transform_pass(16);
        }
        self.store.arena.rec_mark(RecKind::SpanEnd, "persist", self.epoch as u64);
        Ok(())
    }

    // ---- internals -------------------------------------------------------------

    pub(crate) fn shadow_of(&self, id: u32) -> POffset {
        self.shadows.get(id as usize).copied().unwrap_or(POffset::NULL)
    }

    pub(crate) fn set_shadow(&mut self, id: u32, off: POffset) {
        if self.shadows.len() <= id as usize {
            self.shadows.resize(id as usize + 1, POffset::NULL);
        }
        self.shadows[id as usize] = off;
    }

    pub(crate) fn register_c0(&mut self, tree: C0Tree, shadow: POffset) -> u32 {
        let id = self.forest.insert(tree);
        self.set_shadow(id, shadow);
        id
    }

    /// Should a refine at `key` seed a new DRAM subtree there?
    fn should_seed_c0(&mut self, key: OctKey) -> bool {
        if key.level() == 0 {
            return false; // the root must remain in NVBM
        }
        if !self.cfg.seed_c0 {
            return false;
        }
        let l = sampling::l_sub(self.depth.max(key.level() + 1), self.cfg.c0_capacity_octants);
        key.level() >= l && self.forest.total_octants + 9 <= self.cfg.c0_capacity_octants
    }

    /// Post-mutation housekeeping: DRAM-pressure eviction and on-demand GC.
    pub(crate) fn after_mutation(&mut self) {
        // DRAM pressure: evict least-frequently-accessed subtrees. An
        // eviction that fails for lack of NVBM space is abandoned (the
        // subtree simply stays in DRAM); the on-demand GC below is the
        // mechanism that makes room.
        let cap = (self.cfg.c0_capacity_octants as f64 * self.cfg.threshold_dram) as usize;
        while self.forest.total_octants > cap && !self.forest.is_empty() {
            let Some(victim) = self.forest.coldest() else {
                break;
            };
            if self.evict_c0(victim).is_err() {
                break;
            }
            self.events.evictions += 1;
        }
        // NVBM pressure: on-demand GC.
        if self.store.alloc.available_fraction() < self.cfg.threshold_nvbm {
            let roots = [self.current_root, self.prev_root];
            let (report, _) = gc::collect(&mut self.store, &roots, self.epoch);
            self.events.gc_runs += 1;
            self.events.last_gc = Some(report);
        }
    }

    /// Merge one C0 subtree out to C1 and drop it from the forest. On
    /// [`PmError::Full`] the forest keeps the subtree (the merge's
    /// partial copies are ordinary GC garbage) and the tree is unchanged.
    pub(crate) fn evict_c0(&mut self, id: u32) -> Result<(), PmError> {
        let _span = self.store.arena.span("c0::evict");
        let prev_phase = self.store.arena.set_phase("c0::evict");
        self.store.arena.failpoint("c0::evict");
        let r = self.evict_c0_inner(id);
        self.store.arena.set_phase(prev_phase);
        r
    }

    fn evict_c0_inner(&mut self, id: u32) -> Result<(), PmError> {
        let shadow = self.shadow_of(id);
        let (dirty, key) = {
            let t = self.forest.get(id);
            (t.dirty, t.subtree_key)
        };
        let off = if !dirty && !shadow.is_null() {
            shadow
        } else {
            let octants = self.forest.get(id).collect();
            c1::merge_subtree(&mut self.store, &octants, shadow.opt(), self.epoch)?
        };
        self.current_root = c1::replace_slot(
            &mut self.store,
            self.current_root,
            key,
            ChildPtr::Nvbm(off),
            self.epoch,
        )?;
        // Only now that the subtree is fully re-linked in NVBM does the
        // DRAM copy go away: a failure above leaves it untouched.
        self.forest.remove(id);
        self.set_shadow(id, POffset::NULL);
        self.events.merges += 1;
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pmoctree_nvbm::{CrashMode, DeviceModel};

    fn arena() -> NvbmArena {
        NvbmArena::new(16 << 20, DeviceModel::default())
    }

    fn small_cfg() -> PmConfig {
        PmConfig { dynamic_transform: false, ..PmConfig::default() }
    }

    #[test]
    fn create_refine_query() {
        let mut t = PmOctree::create(arena(), small_cfg());
        assert_eq!(t.leaf_count(), 1);
        t.refine(OctKey::root()).unwrap();
        assert_eq!(t.leaf_count(), 8);
        t.refine(OctKey::root().child(3)).unwrap();
        assert_eq!(t.leaf_count(), 15);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.is_leaf(OctKey::root().child(3)), Some(false));
        assert_eq!(t.is_leaf(OctKey::root().child(3).child(1)), Some(true));
        assert_eq!(t.is_leaf(OctKey::root().child(2).child(0)), None);
    }

    #[test]
    fn refine_errors() {
        let mut t = PmOctree::create(arena(), small_cfg());
        t.refine(OctKey::root()).unwrap();
        assert!(matches!(t.refine(OctKey::root()), Err(PmError::NotALeaf(_))));
        assert!(matches!(t.refine(OctKey::root().child(0).child(0)), Err(PmError::NotFound(_))));
    }

    #[test]
    fn coarsen_roundtrip() {
        let mut t = PmOctree::create(arena(), small_cfg());
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(5)).unwrap();
        t.coarsen(OctKey::root().child(5)).unwrap();
        assert_eq!(t.leaf_count(), 8);
        t.coarsen(OctKey::root()).unwrap();
        assert_eq!(t.leaf_count(), 1);
        assert!(matches!(t.coarsen(OctKey::root()), Err(PmError::NotALeaf(_))));
    }

    #[test]
    fn coarsen_rejects_deep_children() {
        let mut t = PmOctree::create(arena(), small_cfg());
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(1)).unwrap();
        assert!(matches!(t.coarsen(OctKey::root()), Err(PmError::NotCoarsenable(_))));
    }

    #[test]
    fn set_get_data() {
        let mut t = PmOctree::create(arena(), small_cfg());
        t.refine(OctKey::root()).unwrap();
        let k = OctKey::root().child(2);
        t.set_data(k, CellData { phi: 3.5, ..Default::default() }).unwrap();
        assert_eq!(t.get_data(k).unwrap().phi, 3.5);
        assert!(t.set_data(k.child(0), CellData::default()).is_err());
    }

    #[test]
    fn for_each_leaf_visits_all() {
        let mut t = PmOctree::create(arena(), small_cfg());
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(7)).unwrap();
        let leaves = t.leaves_sorted();
        assert_eq!(leaves.len(), t.leaf_count());
        // Leaves tile the domain: keys are unique.
        for w in leaves.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn persist_then_continue() {
        let mut t = PmOctree::create(arena(), small_cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        assert_eq!(t.events.persists, 1);
        let (total, _shared) = t.events.last_overlap.unwrap();
        assert_eq!(total, 9);
        // Keep meshing after the persist.
        t.refine(OctKey::root().child(0)).unwrap();
        assert_eq!(t.leaf_count(), 15);
        t.persist();
        let (total2, shared2) = t.events.last_overlap.unwrap();
        assert_eq!(total2, 17);
        // The 7 untouched children + their 0 descendants are shared; the
        // copied path (root, child 0) and the 8 new leaves are not.
        assert_eq!(shared2, 7);
    }

    #[test]
    fn crash_recovers_last_persisted_version() {
        let mut t = PmOctree::create(arena(), small_cfg());
        t.refine(OctKey::root()).unwrap();
        t.set_data(OctKey::root().child(1), CellData { phi: 42.0, ..Default::default() }).unwrap();
        t.persist();
        let persisted = t.leaves_sorted();
        // Keep working: these mutations must vanish on crash.
        t.refine(OctKey::root().child(0)).unwrap();
        t.set_data(OctKey::root().child(1), CellData { phi: -1.0, ..Default::default() }).unwrap();
        let mut arena = {
            let PmOctree { store, .. } = t;
            store.arena
        };
        arena.crash(CrashMode::LoseDirty);
        let mut r = PmOctree::restore(arena, small_cfg()).unwrap();
        assert_eq!(r.leaves_sorted(), persisted);
        assert_eq!(r.get_data(OctKey::root().child(1)).unwrap().phi, 42.0);
    }

    #[test]
    fn restore_rebuilds_allocator_and_registry() {
        let mut t = PmOctree::create(arena(), small_cfg());
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(3)).unwrap();
        t.persist();
        // Unpersisted work leaves orphans the rebuild must reclaim.
        t.refine(OctKey::root().child(0)).unwrap();
        let mut arena = {
            let PmOctree { store, .. } = t;
            store.arena
        };
        arena.crash(CrashMode::LoseDirty);
        let mut r = PmOctree::restore(arena, small_cfg()).unwrap();
        assert_eq!(r.store.registry.len(), 17, "registry holds exactly the persisted octants");
        // Allocator hands out fresh space that doesn't collide with live octants.
        let live: std::collections::HashSet<POffset> = r.store.registry.iter().copied().collect();
        for _ in 0..20 {
            let o = Octant::leaf(OctKey::root(), r.epoch, CellData::default());
            let p = r.store.alloc_octant(&o).unwrap();
            assert!(!live.contains(&p), "allocator reused a live octant");
        }
    }

    #[test]
    fn crash_with_random_commit_still_recovers() {
        for seed in 0..5 {
            let mut t = PmOctree::create(arena(), small_cfg());
            t.refine(OctKey::root()).unwrap();
            t.refine(OctKey::root().child(2)).unwrap();
            t.persist();
            let persisted = t.leaves_sorted();
            // Unpersisted chaos.
            t.refine(OctKey::root().child(2).child(0)).unwrap();
            t.coarsen(OctKey::root().child(2)).ok();
            t.refine(OctKey::root().child(5)).unwrap();
            let mut arena = {
                let PmOctree { store, .. } = t;
                store.arena
            };
            arena.crash(CrashMode::CommitRandom { p: 0.5, seed });
            let mut r = PmOctree::restore(arena, small_cfg()).unwrap();
            assert_eq!(r.leaves_sorted(), persisted, "seed {seed}");
        }
    }

    #[test]
    fn update_leaves_sweep_both_tiers() {
        let mut cfg = small_cfg();
        cfg.c0_capacity_octants = 32; // force some DRAM subtrees
        let mut t = PmOctree::create(arena(), cfg);
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(0)).unwrap(); // seeds C0 at child 0
        assert!(t.c0_octants() > 0, "seeding expected");
        t.update_leaves(|_, d| Some(CellData { pressure: d.pressure + 2.0, ..*d }));
        t.for_each_leaf(|_, d| assert_eq!(d.pressure, 2.0));
    }

    #[test]
    fn dram_pressure_evicts() {
        let mut cfg = small_cfg();
        cfg.c0_capacity_octants = 16;
        cfg.threshold_dram = 0.5; // evict above 8 octants
        let mut t = PmOctree::create(arena(), cfg);
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(0)).unwrap(); // seed: 9 DRAM octants > 8
        assert_eq!(t.c0_octants(), 0, "eviction should have emptied C0");
        assert!(t.events.evictions >= 1);
        // The tree is still correct.
        assert_eq!(t.leaf_count(), 15);
        assert_eq!(t.is_leaf(OctKey::root().child(0).child(3)), Some(true));
    }

    #[test]
    fn persist_after_eviction_shares() {
        let mut cfg = small_cfg();
        cfg.c0_capacity_octants = 16;
        cfg.threshold_dram = 0.5;
        let mut t = PmOctree::create(arena(), cfg);
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(0)).unwrap();
        t.persist();
        t.persist(); // nothing changed: V_i == V_{i-1} fully shared
        let (total, shared) = t.events.last_overlap.unwrap();
        assert_eq!(total, shared, "identical steps must share 100%");
    }

    #[test]
    fn failing_hook_skips_gc_and_keeps_superseded_version_restorable() {
        let mut t = PmOctree::create(arena(), small_cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let old_root = t.store.arena.root(1);
        let gc_before = t.events.gc_runs;
        t.refine(OctKey::root().child(0)).unwrap();
        let err = t
            .persist_with_hook(&mut |_| Err(PmError::Recovery("rt heap full".into())))
            .unwrap_err();
        assert!(matches!(err, PmError::Recovery(_)));
        assert_eq!(t.events.gc_runs, gc_before, "GC must not run after a failed hook");
        // The handle adopted the durable new version and stays usable...
        assert_eq!(t.leaf_count(), 15);
        t.refine(OctKey::root().child(1)).unwrap();
        t.refine(OctKey::root().child(2)).unwrap();
        // ...while the superseded version — which the last *committed*
        // application bundle may pair with — was neither reclaimed nor
        // overwritten, so restoring at its root still works.
        let mut arena = {
            let PmOctree { store, .. } = t;
            store.arena
        };
        arena.crash(CrashMode::LoseDirty);
        let r = PmOctree::restore_at(arena, old_root, small_cfg()).unwrap();
        assert_eq!(r.leaf_count(), 8);
    }

    #[test]
    fn delete_clears_roots() {
        let mut t = PmOctree::create(arena(), small_cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let mut arena = t.delete();
        assert_eq!(arena.root(0), POffset::NULL);
        assert_eq!(arena.root(1), POffset::NULL);
    }

    #[test]
    fn memory_usage_tracks_sharing() {
        let mut t = PmOctree::create(arena(), small_cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let m1 = t.memory_usage_bytes();
        // An unchanged persist must not grow memory (full sharing + GC).
        t.persist();
        let m2 = t.memory_usage_bytes();
        assert_eq!(m1, m2);
    }
}
