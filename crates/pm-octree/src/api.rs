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
use pmoctree_nvbm::{CommitRecord, NvbmArena, POffset, RecKind, CACHELINE};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::c0::{C0Forest, C0Tree, Dram};
use crate::c1;
use crate::config::{PmConfig, THRESHOLD_DRAM, THRESHOLD_NVBM};
use crate::gc::{self, GcReport};
use crate::octant::{CellData, ChildPtr, Octant, PmStore};
use crate::replica::ReplicaSet;
use crate::sampling::{self, FeatureFn};
use crate::walk::{self, Cursor, Locate, Op};

/// Application-state commit hook run inside [`PmOctree::persist_with_hook`]
/// after the flush, with the tree's fields staged in the arena's next
/// commit record; returns the byte regions it wrote (shipped with the
/// persist's replica delta), or the error that stopped its commit — in
/// which case the persist publishes nothing (see
/// [`PmOctree::persist_with_hook`]).
pub type PersistHook<'a> = dyn FnMut(&mut NvbmArena) -> Result<Vec<(u64, u32)>, PmError> + 'a;

pub use pmoctree_nvbm::PmError;

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
    /// on refine/coarsen, built by restore from its scan and otherwise
    /// rebuilt lazily on the first batched query after an invalidation. Slots
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
        let bump = store.alloc.bump();
        store.arena.next = CommitRecord { epoch: 1, root, bump, ..store.arena.next };
        store.arena.publish();
        store.shared = store.registry.len();
        let replicas = cfg.replicas.then(|| {
            let mut r = ReplicaSet::new();
            r.full_sync(&mut store.arena);
            r
        });
        PmOctree {
            store,
            forest: C0Forest::default(),
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
    /// published version — near-instantaneous: only the commit record is
    /// read, plus one validated reachability pass to rebuild volatile
    /// state (the allocator, the registry and the leaf index).
    ///
    /// The pass (`verify::scan_tree`) checks every pointer before
    /// following it, so a device whose persisted tree is structurally
    /// damaged (which the protocol makes impossible for real crashes, but
    /// media corruption can still produce) yields
    /// [`PmError::Corrupt`] rather than a panic. An unformatted device, or
    /// one with no valid commit record, yields [`PmError::Recovery`].
    pub fn restore(arena: NvbmArena, cfg: PmConfig) -> Result<Self, PmError> {
        let root = arena.committed().root;
        Self::restore_at(arena, root, cfg)
    }

    /// [`PmOctree::restore`] at an explicitly named tree root instead of
    /// the commit record's. A root other than the record's is published
    /// as the new record's root once the scan accepts it, because the
    /// allocator rebuild reclaims every octant `root` does not reach —
    /// the record's own version among them.
    pub fn restore_at(mut arena: NvbmArena, root: POffset, cfg: PmConfig) -> Result<Self, PmError> {
        if !arena.is_formatted() {
            return Err(PmError::Recovery("device is not a PM-octree (bad magic)".into()));
        }
        if root.is_null() {
            return Err(PmError::Recovery("no persisted version to restore (null root)".into()));
        }
        let record = arena.committed();
        let mut store = PmStore::new(arena);
        // Validated reachability scan: the root must name a structurally
        // closed tree. V_i octants not in V_{i-1} are implicitly discarded
        // (the paper's "mark deleted, GC recycles in background") — the
        // allocator and registry are rebuilt from the live set alone, so
        // every orphan's space is reclaimed here.
        let scan = crate::verify::scan_tree(&mut store, root)?;
        // The record names a version no later than its own epoch, so no
        // reachable octant is stamped above it; the working epoch resumes
        // just past it.
        let epoch = u32::try_from(record.epoch)
            .ok()
            .filter(|&e| scan.max_epoch <= e)
            .and_then(|e| e.checked_add(1))
            .ok_or_else(|| {
                PmError::Corrupt(format!(
                    "reachable octant from epoch {} but the commit record says {}",
                    scan.max_epoch, record.epoch
                ))
            })?;
        store.rebuild_from_live(scan.live);
        if root != record.root {
            store.arena.next.root = root;
            store.arena.next.bump = store.alloc.bump();
            store.arena.publish();
        }
        let mut t = PmOctree {
            store,
            forest: C0Forest::default(),
            cfg,
            current_root: root,
            prev_root: root,
            epoch,
            depth: scan.depth,
            leaves: scan.leaves.len(),
            features: Vec::new(),
            events: Events::default(),
            replicas: None,
            rng: StdRng::seed_from_u64(0x00C0_FFEE),
            index: LeafIndex::new(),
        };
        // The scan decoded and validated every leaf key already: the index
        // is built from them, with no second walk of the media.
        let n = t.index.rebuild(scan.leaves.into_iter().map(|k| (k, 0)));
        t.store.arena.stats.index_rebuild(n as u64);
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
    /// scenario): the replica's media is transferred and becomes the local
    /// NVBM contents. Returns the handle plus the number of bytes that had
    /// to cross the network, the chunks the replica holds (charged by the
    /// caller's network model). A replica that was never synced, or that
    /// copies a device of another size, is [`PmError::Recovery`].
    pub fn restore_from_replica(
        mut arena: NvbmArena,
        replica: &ReplicaSet,
        cfg: PmConfig,
    ) -> Result<(Self, u64), PmError> {
        let image = replica.image();
        if image.size() != arena.capacity() {
            return Err(PmError::Recovery(format!(
                "a {}-byte replica image does not fit a {}-byte device",
                image.size(),
                arena.capacity()
            )));
        }
        arena.restore_media(image);
        let moved = replica.live_bytes();
        Ok((Self::restore(arena, cfg)?, moved))
    }

    /// `pm_delete`: drop every octant and publish a record without a
    /// tree.
    pub fn delete(mut self) -> NvbmArena {
        self.store.arena.next.root = POffset::NULL;
        self.store.arena.publish();
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

    /// Total simulated memory in use: NVBM live bytes + the DRAM lines
    /// of the C0 forest.
    pub fn memory_usage_bytes(&self) -> u64 {
        let c0_lines: usize =
            self.forest.ids().into_iter().map(|id| self.forest.get(id).lines()).sum();
        self.store.alloc.live_bytes() + (c0_lines * CACHELINE) as u64
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
            return self.forest.with_tree(id, |t| t.is_leaf(key, &mut store.arena));
        }
        match walk::locate(&mut self.store, self.current_root, key) {
            Locate::Found(p) => Some(self.store.nav_line(p).mask == 0),
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
        match walk::containing_leaf(&mut self.store, self.current_root, key) {
            Ok(leaf) => leaf,
            // Continue inside the C0 tree.
            Err(id) => {
                let store = &mut self.store;
                self.forest.with_tree(id, |t| t.containing_leaf(key, &mut store.arena))
            }
        }
    }

    /// Read the payload of the octant at `key`.
    pub fn get_data(&mut self, key: OctKey) -> Option<CellData> {
        if let Some(id) = self.forest.owner_of(&key) {
            return self.c0_data(id, key);
        }
        match walk::locate(&mut self.store, self.current_root, key) {
            Locate::Found(p) => Some(self.store.data(p)),
            _ => None,
        }
    }

    /// Payload of `key` inside the C0 tree `id` that owns its region.
    fn c0_data(&mut self, id: u32, key: OctKey) -> Option<CellData> {
        let store = &mut self.store;
        self.forest.with_tree(id, |t| t.get_data(key, &mut store.arena))
    }

    // ---- mesh mutation ----------------------------------------------------

    /// Refine the leaf at `key` into 8 children inheriting its payload.
    pub fn refine(&mut self, key: OctKey) -> Result<(), PmError> {
        self.apply_op(Op::Refine(key))
    }

    /// Coarsen the octant at `key`: its children (which must all be
    /// leaves) are removed.
    pub fn coarsen(&mut self, key: OctKey) -> Result<(), PmError> {
        self.apply_op(Op::Coarsen(key))
    }

    /// Overwrite the payload of the octant at `key`.
    pub fn set_data(&mut self, key: OctKey, data: CellData) -> Result<(), PmError> {
        self.apply_op(Op::SetData(key, data))
    }

    /// Apply one op to `V_i` through the one walker ([`walk::apply`]): in
    /// the DRAM tree that owns its key, or — after the two C0 preludes —
    /// in NVBM. A batch ([`PmOctree::refine_many`] and its siblings) is the
    /// per-op call in a loop. A refusal ([`PmError::NotFound`], [`PmError::NotALeaf`],
    /// [`PmError::NotCoarsenable`]) stores nothing.
    fn apply_op(&mut self, op: Op) -> Result<(), PmError> {
        let key = op.key();
        if matches!(op, Op::Refine(_)) && key.level() == OctKey::MAX_LEVEL {
            // No children to make: refused like any non-leaf, ahead of
            // seeding and of every store.
            return Err(match self.is_leaf(key) {
                Some(_) => PmError::NotALeaf(format!("{key:?} is at the deepest level")),
                None => PmError::NotFound(format!("{key:?}")),
            });
        }
        if let Some(id) = self.forest.owner_of(&key) {
            let arena = &mut self.store.arena;
            self.forest.with_tree(id, |t| t.apply(op, arena))?;
        } else {
            match op {
                Op::Refine(_) if self.should_seed_c0(key) => {
                    // Now C0-owned: the refinement happens at DRAM speed.
                    self.seed_c0(key)?;
                    return self.apply_op(op);
                }
                Op::Coarsen(_) if self.has_c0_children(key) => self.absorb_c0_children(key)?,
                _ => {}
            }
            let (store, root, epoch) = (&mut self.store, self.current_root, self.epoch);
            self.current_root = walk::apply(store, root, op, epoch)?.0;
        }
        // Leaf-count, depth and leaf-index bookkeeping; a structural
        // change is also what makes `after_mutation` due.
        match op {
            Op::Refine(k) => {
                self.leaves += 7;
                self.depth = self.depth.max(k.level() + 1);
                self.index.on_refine_uniform(k, 0);
            }
            Op::Coarsen(k) => {
                self.leaves -= 7;
                self.index.on_coarsen(k, 0);
            }
            Op::SetData(..) => return Ok(()),
        }
        self.after_mutation();
        Ok(())
    }

    /// Refine prelude: promote the NVBM leaf at `key` to a new DRAM
    /// subtree.
    fn seed_c0(&mut self, key: OctKey) -> Result<(), PmError> {
        let Locate::Found(p) = walk::locate(&mut self.store, self.current_root, key) else {
            return Err(PmError::NotFound(format!("{key:?}")));
        };
        let Some(data) = self.store.nav_line(p).leaf else {
            return Err(PmError::NotALeaf(format!("{key:?}")));
        };
        let mut tree = C0Tree::new(key, data, &mut self.store.arena);
        tree.shadow = p;
        // Without room for the path copy the leaf stays in NVBM.
        self.install_c0(tree)
    }

    /// The one way into C0: register `tree` in the forest and link a
    /// volatile handle at its subtree key with one path copy. When the
    /// copy runs out of NVBM the tree leaves the forest again and the
    /// error is returned, the NVBM image untouched.
    pub(crate) fn install_c0(&mut self, tree: C0Tree) -> Result<(), PmError> {
        let key = tree.subtree_key;
        let id = self.forest.insert(tree);
        let (store, epoch) = (&mut self.store, self.epoch);
        match c1::replace_slot(store, self.current_root, key, ChildPtr::Volatile(id), epoch) {
            Ok(root) => {
                self.current_root = root;
                Ok(())
            }
            Err(e) => {
                self.forest.remove(id);
                Err(e)
            }
        }
    }

    /// Is some child of the NVBM octant at `key` a DRAM subtree? Answered
    /// from the forest, without touching NVBM.
    fn has_c0_children(&self, key: OctKey) -> bool {
        key.level() < OctKey::MAX_LEVEL
            && (0..8).any(|c| self.forest.owner_of(&key.child(c)).is_some())
    }

    /// Coarsen prelude: children of `key` that are single-leaf DRAM
    /// subtrees get merged back first so the coarsening can proceed
    /// entirely in NVBM; deeper DRAM children mean the region is refined
    /// and coarsening is illegal anyway. Refuses before the first merge.
    fn absorb_c0_children(&mut self, key: OctKey) -> Result<(), PmError> {
        let Locate::Found(p) = walk::locate(&mut self.store, self.current_root, key) else {
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
                ChildPtr::Node(c) => self.store.nav_line(c).mask == 0,
            };
            if !coarsenable {
                return Err(PmError::NotCoarsenable(format!("{key:?}")));
            }
        }
        absorb.into_iter().try_for_each(|id| self.evict_c0(id))
    }

    // ---- batch mutation ----------------------------------------------------

    /// Refine a batch of leaves: [`PmOctree::refine`] per key, in input
    /// order. Returns one success flag per key; a key that is missing,
    /// not a leaf, or hits a full device reports `false` and leaves the
    /// tree unchanged at that key.
    pub fn refine_many(&mut self, keys: &[OctKey]) -> Vec<bool> {
        keys.iter().map(|&k| self.refine(k).is_ok()).collect()
    }

    /// Coarsen a batch of octants: [`PmOctree::coarsen`] per key, in input
    /// order; same contract as [`PmOctree::refine_many`].
    pub fn coarsen_many(&mut self, keys: &[OctKey]) -> Vec<bool> {
        keys.iter().map(|&k| self.coarsen(k).is_ok()).collect()
    }

    /// Overwrite a batch of payloads: [`PmOctree::set_data`] per key, in
    /// input order; same contract as [`PmOctree::refine_many`].
    pub fn set_data_many(&mut self, ops: &[(OctKey, CellData)]) -> Vec<bool> {
        ops.iter().map(|&(k, d)| self.set_data(k, d).is_ok()).collect()
    }

    // ---- traversal ---------------------------------------------------------

    /// Visit every leaf of `V_i` (NVBM leaves first, then DRAM subtrees;
    /// order within each part is pre-order).
    pub fn for_each_leaf(&mut self, mut f: impl FnMut(OctKey, &CellData)) {
        let mut volatile_ids = Vec::new();
        walk::sweep_leaves(
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
            self.forest.with_tree(id, |t| t.leaves(&mut store.arena, |_, k, d| f(k, d)));
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

    /// Drop the volatile leaf index; the next batched query rebuilds it
    /// with a walk of the tree. Nothing on the mesh path needs this (the
    /// hooks keep the index current and restore builds it); it lets a
    /// measurement time the rebuild itself.
    pub fn invalidate_leaf_index(&mut self) {
        self.index.invalidate();
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
        // The index lives in DRAM wherever the octants live.
        self.store.arena.charge(self.index.sweep_lines(), 0);
        self.index.entries().iter().map(|e| e.0).collect()
    }

    /// The index half of a batched query: per key (input order) its leaf's
    /// index entry, the merge-scan charged as DRAM reads — no NVBM descent.
    fn resolve_charged(&mut self, keys: &[OctKey]) -> Vec<Option<usize>> {
        self.ensure_index();
        let (resolved, lines) = self.index.resolve_batch(keys);
        self.store.arena.charge(lines, 0);
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
    /// cursor, so a navigation line shared by several keys' paths is read
    /// (and charged) once per batch.
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
        let mut cursor = Cursor::new(self.current_root);
        for (_, pos) in hits {
            out[pos] = match self.forest.owner_of(&keys[pos]) {
                Some(id) => self.c0_data(id, keys[pos]),
                None => match cursor.locate(&mut self.store, keys[pos]) {
                    Locate::Found(p) => Some(self.store.data(p)),
                    _ => None,
                },
            };
        }
        out
    }

    /// Solver sweep: `f` inspects each leaf and returns `Some(new_data)`
    /// to update it. NVBM updates are copy-on-write, made inside the one
    /// tree walk (`walk::sweep_leaves`).
    pub fn update_leaves(&mut self, mut f: impl FnMut(OctKey, &CellData) -> Option<CellData>) {
        let mut volatile_ids = Vec::new();
        self.current_root =
            walk::sweep_leaves(&mut self.store, self.current_root, self.epoch, &mut f, &mut |id| {
                volatile_ids.push(id)
            })
            .expect("NVBM device full mid-sweep: updates need COW headroom");
        for id in volatile_ids {
            let store = &mut self.store;
            self.forest.with_tree(id, |t| t.sweep(&mut store.arena, &mut f));
        }
        self.after_mutation();
    }

    // ---- persistence ---------------------------------------------------------

    /// `pm_persistent`: merge `C0` into `C1`, flush, publish the commit
    /// record naming the new version, GC the previous version, then (if
    /// enabled) run the dynamic layout transformation. On return,
    /// `V_{i-1}` is the tree as of this call.
    ///
    /// Crash-testing the protocol goes through the arena's
    /// [`FailPlan`](pmoctree_nvbm::FailPlan): every phase boundary is a
    /// labelled failpoint (`persist::merge`, `persist::flush`,
    /// `persist::root_swap`). A crash recovers the *previous* version
    /// until the record's one line is on media and the *new* one after —
    /// so at the first two labels `V_{i-1}`, at `root_swap` `V_i`.
    pub fn persist(&mut self) {
        self.persist_with_hook(&mut |_| Ok(Vec::new()))
            .expect("persist failed: NVBM device cannot hold the merged working set");
    }

    /// Persist with an application-state commit hook (the `pm-rt`
    /// integration point). The hook runs once the new version is flushed,
    /// with the tree's fields staged in the arena's next commit record
    /// ([`NvbmArena::next`]); a runtime commit inside it adds its own
    /// fields and publishes the one record naming both. It returns the
    /// byte regions it wrote (shipped with this persist's replica delta).
    ///
    /// That is why the combined commit needs no new consistency argument:
    /// there is one publication, so a crash recovers `V_{i-1}` with the
    /// runtime's previous commit, or `V_i` with its new one — never a mix.
    ///
    /// # Errors
    ///
    /// If the hook fails (e.g. the runtime heap is full) it must not have
    /// published; the persist resets the next record to the committed one
    /// and returns the hook's error before publishing, GC and replica
    /// shipping, so the record, the replica and every octant of `V_{i-1}`
    /// stay as they were. The handle keeps the merged tree as its working
    /// version, but the run should be treated as failed: the hook's own
    /// volatile state (e.g. a `pm-rt` instance that died mid-commit) must
    /// be discarded and re-restored.
    ///
    /// A merge that runs out of room returns [`PmError::Full`] before the
    /// flush, with nothing published: the DRAM subtrees merged so far
    /// stay linked in NVBM and leave DRAM, as evictions would; the others
    /// stay.
    pub fn persist_with_hook(&mut self, hook: &mut PersistHook<'_>) -> Result<(), PmError> {
        // Span taxonomy mirrors the failpoint labels one-to-one; the
        // guards close in reverse order on every early (error) return,
        // so a failed persist still leaves the journal balanced.
        let _span_persist = self.store.arena.span("persist");
        self.store.arena.rec_mark(RecKind::SpanBegin, "persist", self.epoch as u64);
        // Wear attribution: committed bytes are charged to the protocol
        // phase in force at commit time (write-back, so lines written in
        // one phase may commit in a later flush — see `MemStats`). The
        // phase is restored on every exit, failed steps included.
        let prev_phase = self.store.arena.set_phase("persist::merge");
        let r = self.persist_inner(hook);
        self.store.arena.set_phase(prev_phase);
        r?;
        // (9) Dynamic layout transformation (§3.3) runs after merging:
        // one detection pass, promoting up to 16 of the hottest NVBM
        // subtrees.
        if self.cfg.dynamic_transform {
            self.transform_pass(16);
        }
        self.store.arena.rec_mark(RecKind::SpanEnd, "persist", self.epoch as u64);
        Ok(())
    }

    /// Steps (1)–(8) of [`PmOctree::persist_with_hook`], under the phases
    /// it sets; the caller restores the phase in force before them.
    fn persist_inner(&mut self, hook: &mut PersistHook<'_>) -> Result<(), PmError> {
        // (1) Merge every DRAM subtree into NVBM with diff-sharing.
        let span_merge = self.store.arena.span("persist::merge");
        // One cursor links every image: a merge between two links only
        // allocates, so the path lines it holds are read once.
        let ids = self.forest.ids();
        let mut cursor = Cursor::new(self.current_root);
        for (i, &id) in ids.iter().enumerate() {
            match self.link_c0_image(id, &mut cursor) {
                Ok(merged) => self.events.merges += u64::from(merged),
                Err(e) => {
                    // The subtrees merged so far are in NVBM under the
                    // cursor's root: adopt it and let them go, as
                    // evictions would.
                    self.current_root = cursor.root();
                    for &id in &ids[..i] {
                        self.forest.remove(id);
                    }
                    return Err(e);
                }
            }
        }
        let root = cursor.root();
        self.store.arena.failpoint("persist::merge");
        drop(span_merge);
        // (2) Flush everything: V_i is on media, unreachable until the
        // record naming it is.
        self.store.arena.set_phase("persist::flush");
        let span_flush = self.store.arena.span("persist::flush");
        self.store.arena.flush_all();
        self.store.arena.failpoint("persist::flush");
        drop(span_flush);
        // (3) Stage the tree's fields, then the application-state commit
        // (`pm-rt`), whose publication writes the record naming both.
        let bump = self.store.alloc.bump();
        let arena = &mut self.store.arena;
        arena.next = CommitRecord { epoch: self.epoch as u64, root, bump, ..arena.next };
        arena.set_phase("rt::commit");
        let extra_regions = match hook(arena) {
            Ok(regions) => regions,
            Err(e) => {
                self.store.arena.next = self.store.arena.committed();
                // The merged subtrees are in NVBM under `root`: adopt it
                // so the handle stays coherent (dropping their DRAM
                // copies loses nothing).
                self.current_root = root;
                self.forest = C0Forest::default();
                return Err(e);
            }
        };
        // (4) Publish: one sealed header line — none when the hook's
        // commit already wrote this record. From here a crash recovers V_i.
        self.store.arena.set_phase("persist::root_swap");
        let span_swap = self.store.arena.span("persist::root_swap");
        self.store.arena.publish();
        self.store.arena.failpoint("persist::root_swap");
        drop(span_swap);
        // (5) The previous version is now garbage: free what this epoch
        // retired. The registry is then the version just published, and
        // its counters are the census: the Fig. 3 overlap (shared = older
        // than this epoch) and, after the shared prefix, the octants
        // created this epoch.
        self.prev_root = root;
        self.current_root = root;
        let report = gc::collect(&mut self.store);
        self.events.gc_runs += 1;
        self.events.last_gc = Some(report);
        self.events.last_overlap = Some((report.live, report.shared));
        self.events.persists += 1;
        // (6) Replica delta shipping: the octants created this epoch.
        if let Some(mut r) = self.replicas.take() {
            self.store.arena.set_phase("replica::ship");
            let _span_ship = self.store.arena.span("replica::ship");
            self.store.arena.failpoint("replica::ship");
            let fresh = &self.store.registry[report.shared..];
            r.push_delta(&mut self.store.arena, fresh, &extra_regions);
            self.replicas = Some(r);
        }
        // (7) New working epoch; everything persisted is now shared.
        self.store.arena.set_phase("persist::reattach");
        let span_reattach = self.store.arena.span("persist::reattach");
        self.epoch += 1;
        self.store.shared = self.store.registry.len();
        // (8) Re-attach the retained DRAM subtrees to the working tree;
        //     their merged images are their diff shadows since (1).
        //     One cursor links them all, as in (1).
        let mut cursor = Cursor::new(self.current_root);
        for (i, &id) in ids.iter().enumerate() {
            let key = self.forest.get(id).subtree_key;
            let linked = cursor.link(&mut self.store, key, ChildPtr::Volatile(id), self.epoch);
            self.current_root = cursor.root();
            if let Err(e) = linked {
                // The subtrees not re-attached are their images in the
                // published version: let them go, as evictions would.
                for &id in &ids[i..] {
                    self.forest.remove(id);
                }
                return Err(e);
            }
        }
        self.forest.decay_access(0.5);
        drop(span_reattach);
        Ok(())
    }

    // ---- internals -------------------------------------------------------------

    /// The DRAM-pressure line (`threshold_DRAM` of the C0 capacity):
    /// above it, `after_mutation` evicts, and a promotion must fit under it.
    pub(crate) fn c0_eviction_line(&self) -> usize {
        (self.cfg.c0_capacity_octants as f64 * THRESHOLD_DRAM) as usize
    }

    /// Should a refine at `key` seed a new DRAM subtree there? Only if
    /// the 9 octants it brings (the seeded leaf and its 8 children) keep
    /// the forest at or under the eviction line: a seed above it would be
    /// evicted on return.
    fn should_seed_c0(&mut self, key: OctKey) -> bool {
        if key.level() == 0 {
            return false; // the root must remain in NVBM
        }
        if !self.cfg.seed_c0 {
            return false;
        }
        let l = sampling::l_sub(self.depth.max(key.level() + 1), self.cfg.c0_capacity_octants);
        key.level() >= l && self.forest.total_octants + 9 <= self.c0_eviction_line()
    }

    /// Post-mutation housekeeping: DRAM-pressure eviction and on-demand GC.
    pub(crate) fn after_mutation(&mut self) {
        // DRAM pressure: evict least-frequently-accessed subtrees. An
        // eviction that fails for lack of NVBM space is abandoned (the
        // subtree simply stays in DRAM); the on-demand GC below is the
        // mechanism that makes room.
        let cap = self.c0_eviction_line();
        while self.forest.total_octants > cap && !self.forest.is_empty() {
            let Some(victim) = self.forest.coldest() else {
                break;
            };
            if self.evict_c0(victim).is_err() {
                break;
            }
            self.events.evictions += 1;
        }
        // NVBM pressure: on-demand GC of what `V_{i-1}` cannot reach.
        if self.store.alloc.available_fraction() < THRESHOLD_NVBM {
            let report = gc::collect_fresh(&mut self.store, self.epoch);
            self.events.gc_runs += 1;
            self.events.last_gc = Some(report);
        }
    }

    /// Merge one C0 subtree out to C1 and drop it from the forest. On
    /// [`PmError::Full`] the forest keeps the subtree (the merge's
    /// partial copies are retired) and the tree is unchanged.
    pub(crate) fn evict_c0(&mut self, id: u32) -> Result<(), PmError> {
        let _span = self.store.arena.span("c0::evict");
        let prev_phase = self.store.arena.set_phase("c0::evict");
        self.store.arena.failpoint("c0::evict");
        let r = self.evict_c0_inner(id);
        self.store.arena.set_phase(prev_phase);
        r
    }

    fn evict_c0_inner(&mut self, id: u32) -> Result<(), PmError> {
        let mut cursor = Cursor::new(self.current_root);
        self.link_c0_image(id, &mut cursor)?;
        self.current_root = cursor.root();
        // Only now that the subtree is fully re-linked in NVBM does the
        // DRAM copy go away: a failure above leaves it untouched.
        self.forest.remove(id);
        self.events.merges += 1;
        Ok(())
    }

    /// Write the C0 tree `id` to C1 and link the image at the tree's
    /// subtree key through `cursor` (persist merge and eviction alike). A
    /// clean tree with a shadow re-links the shadow, which is still exact,
    /// without reading a single octant; any other is diff-merged against
    /// its shadow, and the shadow octants the image does not reuse are
    /// retired once it is linked. The linked image is then the tree's
    /// shadow, and the tree clean. Returns whether a merge ran; the
    /// cursor's root is the new root. On [`PmError::Full`] the shadow
    /// stays the tree's and the partial image is retired.
    fn link_c0_image(&mut self, id: u32, cursor: &mut Cursor<POffset>) -> Result<bool, PmError> {
        let t = self.forest.get_mut(id);
        let (key, shadow) = (t.subtree_key, t.shadow);
        let merge = t.dirty || shadow.is_null();
        let (off, dropped) = if merge {
            t.merge(&mut self.store, shadow.opt(), self.epoch)?
        } else {
            (shadow, Vec::new())
        };
        // The slot's path is exclusive — the link that put the handle
        // there copied it this epoch — so linking allocates nothing.
        cursor.link(&mut self.store, key, ChildPtr::Node(off), self.epoch)?;
        self.store.retired.extend(dropped);
        let t = self.forest.get_mut(id);
        t.shadow = off;
        t.dirty = false;
        Ok(merge)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pmoctree_nvbm::{CrashMode, DeviceModel, FailPlan};

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
    fn a_leaf_keeps_its_payload_across_refine_and_coarsen() {
        /// The record of the NVBM octant at `key`, as the media holds it.
        fn record(t: &mut PmOctree, key: OctKey) -> [u8; 128] {
            let Locate::Found(p) = walk::locate(&mut t.store, t.current_root, key) else {
                panic!("{key:?} is not an NVBM octant")
            };
            let mut b = [0u8; 128];
            t.store.arena.read(p.0, &mut b);
            b
        }
        fn le(d: CellData) -> Vec<u8> {
            [d.phi, d.pressure, d.vof, d.work].iter().flat_map(|x| x.to_le_bytes()).collect()
        }
        let cfg = PmConfig { seed_c0: false, ..small_cfg() };
        let k = OctKey::root().child(6);
        let d = CellData { phi: -0.5, pressure: 2.0, vof: 0.25, work: 8.0 };
        let kid = |i: usize| {
            let x = i as f64;
            CellData { phi: x, pressure: 2.0 * x, vof: 0.125 * x, work: 1.0 }
        };
        for mode in [CrashMode::LoseDirty, CrashMode::CommitRandom { p: 0.5, seed: 26 }] {
            let mut t = PmOctree::create(arena(), cfg);
            t.refine(OctKey::root()).unwrap();
            t.set_data(k, d).unwrap();
            t.persist();
            // A leaf: its payload in bytes 0..32, then reserved zeros.
            let leaf = record(&mut t, k);
            assert_eq!((&leaf[..32], &leaf[32..48]), (&le(d)[..], &[0u8; 16][..]));
            // Refined (a shared leaf, so copied first): the children
            // inherit the payload in their first line, the now-interior
            // key keeps it on line 1 and still answers `get_data` with it.
            t.refine(k).unwrap();
            assert_eq!(t.get_data(k), Some(d));
            assert_eq!(&record(&mut t, k)[72..104], &le(d)[..]);
            for i in 0..8 {
                assert_eq!(t.get_data(k.child(i)), Some(d));
                assert_eq!(&record(&mut t, k.child(i))[..32], &le(d)[..]);
            }
            // Exclusive leaves: each payload update is one store in place.
            for i in 0..8 {
                t.set_data(k.child(i), kid(i)).unwrap();
            }
            t.persist();
            let persisted = t.leaves_sorted();
            // Coarsened: the mean of the children over the links.
            t.coarsen(k).unwrap();
            let mean = CellData { phi: 3.5, pressure: 7.0, vof: 0.4375, work: 1.0 };
            assert_eq!(t.get_data(k), Some(mean));
            let coarse = record(&mut t, k);
            assert_eq!((&coarse[..32], &coarse[32..48]), (&le(mean)[..], &[0u8; 16][..]));
            // A crash before the next persist recovers V_{i-1}: k interior
            // with its payload on line 1, its children leaves with theirs
            // on line 0.
            let mut a = t.store.arena;
            a.crash(mode);
            let mut r = PmOctree::restore(a, cfg).unwrap();
            crate::verify::check_invariants(&mut r).unwrap();
            assert_eq!(r.leaves_sorted(), persisted, "{mode:?}");
            assert_eq!(r.get_data(k), Some(d), "{mode:?}");
            assert_eq!(&record(&mut r, k)[72..104], &le(d)[..]);
            for i in 0..8 {
                assert_eq!(r.get_data(k.child(i)), Some(kid(i)));
                assert_eq!(&record(&mut r, k.child(i))[..32], &le(kid(i))[..]);
            }
        }
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

    /// Restore builds the leaf index from its recovery scan: the entries
    /// are what a rebuild from a tree walk holds, and the first batched
    /// queries read no NVBM line and rebuild nothing.
    #[test]
    fn restore_seeds_the_leaf_index_from_its_scan() {
        let mut t = PmOctree::create(arena(), small_cfg());
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(3)).unwrap();
        t.refine(OctKey::root().child(3).child(5)).unwrap();
        t.persist();
        t.refine(OctKey::root().child(0)).unwrap(); // unpersisted
        let mut arena = t.store.arena;
        arena.crash(CrashMode::LoseDirty);
        let mut r = PmOctree::restore(arena, small_cfg()).unwrap();
        assert_eq!(r.store.arena.stats.trav.index_rebuilds, 1);
        let nvbm = r.store.arena.stats.nvbm.read_lines;
        let sorted = r.leaf_keys_sorted();
        let probes = [OctKey::root().child(0).child(1), OctKey::root().child(3).child(5).child(7)];
        let found = r.containing_leaf_many(&probes);
        assert_eq!(found, [Some(OctKey::root().child(0)), Some(probes[1])]);
        assert_eq!(r.store.arena.stats.nvbm.read_lines, nvbm, "the first lookups read NVBM");
        assert_eq!(r.store.arena.stats.trav.index_rebuilds, 1, "a lookup rebuilt the index");
        let mut walked = LeafIndex::new();
        let mut leaves = Vec::new();
        r.for_each_leaf(|k, _| leaves.push((k, 0)));
        walked.rebuild(leaves);
        assert_eq!(r.index.entries(), walked.entries());
        assert_eq!(sorted.len(), 22);
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

    /// A point read inside C0 costs the walk to the octant — whose line
    /// carries a leaf's payload — and, for an interior octant, its payload
    /// line; nothing of NVBM.
    #[test]
    fn reading_a_c0_leaf_charges_its_walk_alone() {
        let mut cfg = small_cfg();
        cfg.c0_capacity_octants = 32;
        let mut t = PmOctree::create(arena(), cfg);
        t.refine(OctKey::root()).unwrap();
        let sub = OctKey::root().child(0);
        t.refine(sub).unwrap(); // seeds C0 at child 0
        t.refine(sub.child(5)).unwrap(); // inside DRAM
        assert_eq!(t.c0_subtree_keys(), vec![sub]);
        let mut read = |key| {
            let stats = &t.store.arena.stats;
            let (dram, nvbm) = (stats.dram.read_lines, stats.nvbm.total_lines());
            assert!(t.get_data(key).is_some());
            let stats = &t.store.arena.stats;
            (stats.dram.read_lines - dram, stats.nvbm.total_lines() - nvbm)
        };
        assert_eq!(read(sub.child(5).child(2)), (3, 0), "a leaf: its three hops");
        assert_eq!(read(sub.child(1)), (2, 0), "a leaf: its two hops");
        assert_eq!(read(sub.child(5)), (3, 0), "an interior octant: two hops and its payload");
        assert_eq!(read(sub), (2, 0), "the subtree root: one hop and its payload");
    }

    /// A tree whose DRAM subtree at child 0 (seeded at 9 octants, under
    /// the 16-octant eviction line) grew to 17 inside DRAM: the refine
    /// that crossed the line evicted it.
    fn grown_past_the_line() -> PmOctree {
        let mut cfg = small_cfg();
        cfg.c0_capacity_octants = 18; // evict above ⌊18 × 0.9⌋ = 16 octants
        let mut t = PmOctree::create(arena(), cfg);
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(0)).unwrap(); // seed: 9 DRAM octants
        assert_eq!(t.c0_octants(), 9, "seeding expected");
        t.refine(OctKey::root().child(0).child(3)).unwrap(); // in DRAM: 17 > 16
        t
    }

    #[test]
    fn dram_pressure_evicts() {
        let mut t = grown_past_the_line();
        assert_eq!(t.c0_octants(), 0, "eviction should have emptied C0");
        assert_eq!(t.events.evictions, 1);
        // The tree is still correct.
        assert_eq!(t.leaf_count(), 22);
        assert_eq!(t.is_leaf(OctKey::root().child(0).child(3).child(1)), Some(true));
    }

    #[test]
    fn seeding_stays_under_the_eviction_line() {
        let mut cfg = small_cfg();
        cfg.c0_capacity_octants = 18; // the line: ⌊18 × 0.9⌋ = 16 octants
        let mut t = PmOctree::create(arena(), cfg);
        t.refine(OctKey::root()).unwrap();
        for i in 0..8 {
            t.refine(OctKey::root().child(i)).unwrap();
            // Only the first refine fits a 9-octant seed under the line;
            // every later one stays in NVBM instead of seeding a subtree
            // the next `after_mutation` would evict.
            assert_eq!(t.c0_octants(), 9, "child {i}");
            assert_eq!(t.events.evictions, 0, "child {i}: a seed was evicted on return");
        }
        assert_eq!(t.c0_subtree_keys(), vec![OctKey::root().child(0)]);
        assert_eq!(t.leaf_count(), 64);
    }

    /// Refine breadth-first from `frontier` while `more` says so; the
    /// keys refined, in order.
    fn fill(
        t: &mut PmOctree,
        frontier: &[OctKey],
        more: impl Fn(&PmOctree) -> bool,
    ) -> Vec<OctKey> {
        let mut frontier: std::collections::VecDeque<OctKey> = frontier.iter().copied().collect();
        let mut refined = Vec::new();
        while more(t) {
            let k = frontier.pop_front().unwrap();
            if t.refine(k).is_err() {
                break;
            }
            refined.push(k);
            frontier.extend(k.children());
        }
        refined
    }

    #[test]
    fn persist_reads_what_the_step_changed() {
        // N leaves in NVBM; a step rewrites k of them. Outside its merge
        // (there is none without a DRAM tier) the persist reads nothing
        // for the N - k it did not touch: no mark walk.
        let cfg = PmConfig { seed_c0: false, c0_capacity_octants: 0, ..small_cfg() };
        let mut t = PmOctree::create(arena(), cfg);
        fill(&mut t, &[OctKey::root()], |t| t.leaf_count() < 4096);
        t.persist();
        let (n, k) = (t.leaf_count(), 8);
        assert_eq!(n, 4096);
        for key in t.leaf_keys_sorted().into_iter().step_by(n / k) {
            t.set_data(key, CellData { phi: 1.0, ..Default::default() }).unwrap();
        }
        let before = t.store.arena.stats.nvbm.read_lines;
        t.persist();
        let reads = t.store.arena.stats.nvbm.read_lines - before;
        assert!(reads <= k as u64, "{reads} lines read to persist {k} of {n} leaves");
        // The census still counts the whole version: 4681 octants, of
        // which the 8 leaves and their paths (5 levels, the root and the
        // level-1 octants shared by several) are new.
        let (live, shared) = t.events.last_overlap.unwrap();
        assert_eq!(live, 4681);
        assert_eq!(live - shared, 1 + 8 + 8 + 8 + 8);
        // m sibling DRAM trees under one level-2 parent. The merge reads
        // each tree's shadow, a line, and links the images through one
        // cursor: the common path (the root, level 1, level 2) once, not
        // once per tree. The reattach walks it once more, copying it for
        // the new epoch with its three payload lines.
        let parent = OctKey::root().child(5).child(2);
        for m in [1, 3, 8] {
            let mut t = PmOctree::create(arena(), PmConfig { seed_c0: false, ..small_cfg() });
            fill(&mut t, &[OctKey::root()], |t| t.leaf_count() < 512);
            t.persist();
            for i in 0..m {
                t.seed_c0(parent.child(i)).unwrap();
            }
            let before = t.store.arena.stats.nvbm.read_lines;
            t.persist();
            let reads = t.store.arena.stats.nvbm.read_lines - before;
            assert_eq!(reads, m as u64 + 3 + (3 + 3), "{m} sibling trees");
        }
    }

    #[test]
    fn on_demand_gc_frees_only_what_the_previous_version_cannot_reach() {
        let cfg = PmConfig { seed_c0: false, c0_capacity_octants: 0, ..small_cfg() };
        // No flight-recorder ring, so the device fills past threshold_NVBM.
        let device = NvbmArena::new_with_recorder(64 << 10, DeviceModel::default(), 0);
        let mut t = PmOctree::create(device, cfg);
        let refined =
            fill(&mut t, &[OctKey::root()], |t| t.store.alloc.available_fraction() > 0.06);
        t.persist();
        let persisted = t.leaves_sorted();
        let leaf = refined.last().unwrap().child(7);
        // Below threshold_NVBM every mutation collects on demand. The
        // rewrite copies a shared path: V_{i-1} still holds the
        // originals, so the collection after the refine keeps them.
        t.set_data(leaf, CellData { phi: 2.0, ..Default::default() }).unwrap();
        let runs = t.events.gc_runs;
        t.refine(leaf).unwrap();
        assert_eq!(t.events.gc_runs, runs + 1);
        assert_eq!(t.events.last_gc.unwrap().freed, 0);
        crate::verify::check_registry(&mut t).unwrap();
        // A refinement the step takes back is garbage at once.
        t.coarsen(leaf).unwrap();
        assert_eq!(t.events.last_gc.unwrap().freed, 8);
        crate::verify::check_registry(&mut t).unwrap();
        t.store.arena.crash(CrashMode::LoseDirty);
        let image = t.store.arena.clone_media();
        let mut r =
            PmOctree::restore(NvbmArena::from_media(image, DeviceModel::default()), cfg).unwrap();
        assert_eq!(r.leaves_sorted(), persisted, "V_{{i-1}} lost an octant");
    }

    #[test]
    fn a_persist_out_of_room_keeps_what_it_merged_and_retires_the_rest() {
        // Two DRAM subtrees: A (9 octants) fits the room left, B (73) not.
        let cfg = PmConfig { c0_capacity_octants: 256, ..small_cfg() };
        // No flight-recorder ring: the coarsens below collect on demand.
        let device = NvbmArena::new_with_recorder(64 << 10, DeviceModel::default(), 0);
        let mut t = PmOctree::create(device, cfg);
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let (a, b) = (OctKey::root().child(0), OctKey::root().child(1));
        t.refine(a).unwrap();
        t.refine(b).unwrap();
        for i in 0..8 {
            t.refine(b.child(i)).unwrap();
        }
        assert_eq!((t.c0_subtree_keys(), t.c0_octants()), (vec![a, b], 9 + 73));
        // Fill NVBM elsewhere until a refine is refused, then take two
        // of its refinements back: 16 octants of room.
        t.cfg.seed_c0 = false;
        let rest: Vec<OctKey> = (2..8).map(|i| OctKey::root().child(i)).collect();
        let refined = fill(&mut t, &rest, |_| true);
        for &k in refined.iter().rev().take(2) {
            t.coarsen(k).unwrap();
        }
        let leaves = t.leaves_sorted();
        let r = t.persist_with_hook(&mut |_| Ok(Vec::new()));
        assert!(matches!(r, Err(PmError::Full(_))), "{r:?}");
        // A's image is linked and A left DRAM, as an eviction would; B
        // stays, its shadow its own, and its partial image is retired.
        assert_eq!(t.c0_subtree_keys(), vec![b]);
        assert_eq!(t.leaves_sorted(), leaves);
        crate::verify::check_registry(&mut t).unwrap();
    }

    #[test]
    fn a_reattach_out_of_room_lets_the_trees_it_did_not_reach_go() {
        // Three DRAM subtrees at level 3 under interior octants refined
        // this epoch: step (8) must copy seven path octants (3 + 2 + 2),
        // and the collection before it frees four (the old root leaf and
        // the three shadows), so the second link runs out of room.
        let cfg = PmConfig { seed_c0: false, ..small_cfg() };
        let mut t = PmOctree::create(arena(), cfg);
        t.persist();
        t.refine(OctKey::root()).unwrap();
        let trees: Vec<OctKey> =
            (0..3).map(|i| OctKey::root().child(i).child(0).child(0)).collect();
        for (i, &k) in trees.iter().enumerate() {
            t.refine(k.parent().unwrap().parent().unwrap()).unwrap();
            t.refine(k.parent().unwrap()).unwrap();
            t.seed_c0(k).unwrap();
            t.set_data(k, CellData { phi: 1.0 + i as f64, ..Default::default() }).unwrap();
        }
        let leaves = t.leaves_sorted();
        // The hook moves the runtime heap's floor down to the bump
        // pointer: from here only freed octants can be reused.
        let r = t.persist_with_hook(&mut |arena| {
            arena.publish_rt_floor(arena.next.bump);
            Ok(Vec::new())
        });
        assert!(matches!(r, Err(PmError::Full(_))), "{r:?}");
        // The published version holds every image; the trees the reattach
        // did not link left DRAM, as evictions would.
        assert_eq!(t.c0_subtree_keys(), vec![trees[0]]);
        assert_eq!(t.leaves_sorted(), leaves);
        crate::verify::check_registry(&mut t).unwrap();
        let capacity = t.store.arena.capacity() as u64;
        t.store.arena.publish_rt_floor(capacity);
        for &k in &trees {
            t.set_data(k, CellData { phi: 7.0, ..Default::default() }).unwrap();
        }
        t.persist();
        crate::verify::check_registry(&mut t).unwrap();
        for &k in &trees {
            assert_eq!(t.get_data(k).unwrap().phi, 7.0);
        }
    }

    #[test]
    fn persist_after_eviction_shares() {
        let mut t = grown_past_the_line();
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
        let committed = t.store.arena.committed();
        let gc_before = t.events.gc_runs;
        t.refine(OctKey::root().child(0)).unwrap();
        let err = t
            .persist_with_hook(&mut |arena| {
                arena.next.rt_root = POffset(4096);
                Err(PmError::Full("rt heap full".into()))
            })
            .unwrap_err();
        assert!(matches!(err, PmError::Full(_)));
        assert_eq!(t.events.gc_runs, gc_before, "GC must not run after a failed hook");
        let arena = &t.store.arena;
        assert_eq!((arena.committed(), arena.next), (committed, committed), "nothing published");
        // The handle keeps the merged tree and stays usable...
        assert_eq!(t.leaf_count(), 15);
        t.refine(OctKey::root().child(1)).unwrap();
        t.refine(OctKey::root().child(2)).unwrap();
        // ...while the committed version was neither reclaimed nor
        // overwritten, so a crash recovers it.
        let mut arena = {
            let PmOctree { store, .. } = t;
            store.arena
        };
        arena.crash(CrashMode::LoseDirty);
        let r = PmOctree::restore(arena, small_cfg()).unwrap();
        assert_eq!(r.leaf_count(), 8);
    }

    #[test]
    fn a_failed_persist_restores_the_wear_phase() {
        // A DRAM subtree grown past what the device can merge: the persist
        // fails with `Full` in step (1), and later commits must not be
        // charged to `persist::merge`.
        let cfg = PmConfig { c0_capacity_octants: 1 << 16, ..small_cfg() };
        let mut t = PmOctree::create(NvbmArena::new(256 << 10, DeviceModel::default()), cfg);
        t.refine(OctKey::root()).unwrap();
        let mut frontier = vec![OctKey::root().child(0)];
        let err = loop {
            for k in std::mem::take(&mut frontier) {
                t.refine(k).unwrap();
                frontier.extend((0..8).map(|i| k.child(i)));
            }
            if let Err(e) = t.persist_with_hook(&mut |_| Ok(Vec::new())) {
                break e;
            }
        };
        assert!(matches!(err, PmError::Full(_)), "{err:?}");
        assert_eq!(t.store.arena.stats.phase(), pmoctree_nvbm::stats::PHASE_MUTATE);
    }

    #[test]
    fn delete_clears_roots() {
        let mut t = PmOctree::create(arena(), small_cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let arena = t.delete();
        assert_eq!(arena.committed().root, POffset::NULL);
        let restored = PmOctree::restore(arena, small_cfg());
        assert!(matches!(restored, Err(PmError::Recovery(_))));
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

    #[test]
    fn a_nominal_64_gib_device_holds_only_what_it_touches() {
        // The arena's media chunk. The chunks under the bump round it up
        // by less than one; the recorder ring at the top takes one more.
        // A crash view and a replica hold no other chunks.
        const CHUNK: usize = 64 << 10;
        for replicas in [false, true] {
            let cfg = PmConfig { replicas, ..small_cfg() };
            let mut t = PmOctree::create(NvbmArena::new(64 << 30, DeviceModel::default()), cfg);
            let crashed = std::sync::Arc::new(std::sync::Mutex::new(None));
            let mut frontier = vec![OctKey::root()];
            for level in 0..3 {
                for k in std::mem::take(&mut frontier) {
                    t.refine(k).unwrap();
                    frontier.extend((0..8).map(|i| k.child(i)));
                }
                if level == 2 {
                    let sink = crashed.clone();
                    t.store.arena.set_fail_plan(FailPlan::with_hook(Box::new(move |v| {
                        if v.label == Some("persist::root_swap") {
                            let media = v.image(CrashMode::LoseDirty);
                            *sink.lock().unwrap() = Some(media.resident_bytes());
                        }
                    })));
                }
                t.persist();
            }
            t.store.arena.take_fail_plan();
            assert_eq!(t.leaf_count(), 512);
            let bump = t.store.arena.live_bump() as usize;
            assert!(bump > CHUNK, "the tree spans more than one chunk: bump {bump}");
            let crash_view = crashed.lock().unwrap().expect("the last persist swaps its root");
            let mut held =
                vec![("device", t.store.arena.resident_bytes()), ("crash view", crash_view)];
            if let Some(r) = &t.replicas {
                held.push(("replica", r.live_bytes() as usize));
            }
            for (what, resident) in held {
                assert!(
                    resident <= bump + 2 * CHUNK,
                    "{what}: {resident} bytes resident, bump {bump}, replicas {replicas}"
                );
            }
        }
    }
}
