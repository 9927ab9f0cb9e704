//! The runtime: named persistent roots, `PPtr<T>`, log-structured commit.
//!
//! Since the log-structured region rework, a commit no longer rewrites
//! the whole object table: it appends one checksummed **commit record**
//! (a table *delta* plus a pointer to the previous commit record) to the
//! circular log the blobs themselves live in, and publishes it with the
//! same single atomic 8-byte root store as before. Every
//! [`CHECKPOINT_EVERY`] commits a full-table checkpoint record cuts the
//! chain so recovery walks a bounded number of records.
//!
//! Since the multi-tenant service redesign the public verbs return the
//! workspace [`PmError`] taxonomy; [`RtError`] survives as the low-level
//! codec error (what [`PmData`](crate::data::PmData) decoding reports)
//! and converts losslessly via `From`.

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::ops::Bound;
use std::sync::Arc;

use pm_octree::PmError;
use pmoctree_nvbm::{NvbmArena, POffset, HEADER_SIZE};

use crate::data::{ByteReader, ByteWriter, PmData};
use crate::heap::LogHeap;
use crate::log::{
    checksum_ok, encode_pad, encode_record, parse_header, record_size, RecordKind, REC_HEADER,
};

/// A full-table checkpoint record is written every this many commits,
/// bounding both the recovery chain walk and the lifetime of chain
/// records in the ring.
pub const CHECKPOINT_EVERY: usize = 8;

/// Hard ceiling on the recovery chain walk — far above any chain a
/// healthy log can produce, so a corrupted `prev` loop reports instead
/// of spinning.
const MAX_CHAIN: usize = 64;

/// Ring occupancy above which the commit-time compaction pass keeps
/// relocating tail blobs (below it, one rotation per commit suffices).
pub const COMPACT_WATERMARK: f64 = 0.5;

/// Upper bound on blobs the compaction pass relocates per commit.
const MAX_COMPACT: usize = 8;

/// Codec-layer errors. Every decode/validation failure is reported,
/// never panicked — the input is post-crash media. Public runtime verbs
/// fold these into [`PmError`]; only [`PmData`](crate::data::PmData)
/// implementations still speak `RtError` directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtError {
    /// On-media bytes failed validation (bad magic, truncation, overlap).
    Corrupt(String),
    /// The runtime heap cannot satisfy an allocation.
    Full(String),
    /// No committed object table / no such named root.
    Missing(String),
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::Corrupt(m) => write!(f, "corrupt rt state: {m}"),
            RtError::Full(m) => write!(f, "rt heap full: {m}"),
            RtError::Missing(m) => write!(f, "missing: {m}"),
        }
    }
}

impl std::error::Error for RtError {}

impl From<RtError> for PmError {
    fn from(e: RtError) -> Self {
        match e {
            RtError::Corrupt(m) => PmError::Corrupt(m),
            RtError::Missing(m) => PmError::NotFound(m),
            RtError::Full(m) => PmError::Recovery(m),
        }
    }
}

/// A typed persistent pointer: an arena-relative offset plus the payload
/// length, never a raw address. Obtained from [`PmRt::stage`] or
/// [`PmRt::resolve`]; resolved (and re-validated) against the arena on
/// every use, so a restore "swizzles" automatically — there is nothing
/// absolute to fix up.
pub struct PPtr<T> {
    off: u64,
    len: u32,
    _t: PhantomData<fn() -> T>,
}

// Manual impls: `derive` would bound them on `T`, but a PPtr is Copy/Eq
// regardless of the pointee.
impl<T> Clone for PPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PPtr<T> {}
impl<T> PartialEq for PPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.off == other.off && self.len == other.len
    }
}
impl<T> Eq for PPtr<T> {}
impl<T> std::fmt::Debug for PPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PPtr({:#x}+{})", self.off, self.len)
    }
}

impl<T> PPtr<T> {
    /// Arena-relative offset of the object blob.
    pub fn offset(&self) -> u64 {
        self.off
    }

    /// Payload length in bytes.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Is the payload empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn from_entry(e: Entry) -> Self {
        PPtr { off: e.off, len: e.len, _t: PhantomData }
    }
}

/// Magic tag at the head of every object blob.
pub(crate) const OBJ_MAGIC: u32 = 0x504d_5254; // "PMRT"
/// Object blob header: `[u32 magic][u32 payload len]`.
pub(crate) const OBJ_HEADER: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    pub(crate) off: u64,
    pub(crate) len: u32,
}

impl Entry {
    /// The blob's full ring footprint: log record header + object blob
    /// (header + payload) + checksum trailer, 8-byte aligned.
    pub(crate) fn footprint(&self) -> usize {
        record_size(OBJ_HEADER + self.len as usize)
    }

    /// Offset of the log record wrapping this blob (`off` points at the
    /// object header *inside* the record, one record header below).
    pub(crate) fn record_off(&self) -> u64 {
        self.off - REC_HEADER as u64
    }
}

/// The blob record footprint a payload of `encoded_len` bytes will
/// occupy in the ring — the quota currency (Circ-Tree's bytes-written).
pub fn blob_footprint(encoded_len: usize) -> usize {
    record_size(OBJ_HEADER + encoded_len)
}

/// A name-ordered root map. Every view holding a root (staged, committed,
/// staged-origin journal, reverse index) shares its one name allocation.
type NameMap<V> = BTreeMap<Arc<str>, V>;

/// The entries of `map` whose name starts with `prefix`. Names sharing a
/// prefix are contiguous in byte order, so this is one seek plus the
/// hits — O(log n + hits), not a scan of the map.
fn prefix_range<'a, V>(
    map: &'a NameMap<V>,
    prefix: &'a str,
) -> impl Iterator<Item = (&'a Arc<str>, &'a V)> {
    map.range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
        .take_while(move |(n, _)| n.starts_with(prefix))
}

/// The orthogonal-persistence runtime.
///
/// The runtime does not own the arena — verbs borrow it, so the octree
/// and the runtime share one device. The volatile side is a name → entry
/// map plus the ring bookkeeping; the persistent side is the commit
/// chain named by the `rt_root` header slot.
///
/// Two views of the registry coexist: the **staged** table (what the next
/// commit will publish) and the **committed** table (what the current
/// `rt_root` names). MVCC [`Snapshot`](crate::mvcc::Snapshot) handles pin
/// the committed view at an epoch: blobs a later commit supersedes are
/// *deferred*, not freed, until no snapshot older than their retirement
/// epoch remains (see [`PmRt::collect`]) — a pinned blob is never
/// relocated out from under its readers, because relocation writes a
/// *new* copy and retires the old one through exactly this deferral.
pub struct PmRt {
    /// Staged view: name → entry as of the next commit.
    table: NameMap<Entry>,
    /// Committed view: name → entry as published by `rt_root`.
    committed: NameMap<Entry>,
    /// Reverse index of the committed view: blob record offset → name.
    /// Both advance at commit by applying `staged_origin`; volatile, so
    /// restore reseeds it from the table the chain walk rebuilds.
    committed_at: BTreeMap<u64, Arc<str>>,
    pub(crate) heap: LogHeap,
    epoch: u64,
    /// Record offsets of committed blobs superseded since the last
    /// commit. They back the *committed* table until the next root swap,
    /// so they are deferred (then freed) only after it.
    retired: Vec<u64>,
    /// Records retired by the commit that produced epoch `e` — still
    /// reachable from pinned root-table versions older than `e`. Freed by
    /// [`PmRt::collect`] once `min_pinned >= e` (or no pins remain).
    pub(crate) deferred: Vec<(u64, u64)>,
    /// Offsets of the live commit-record chain, oldest (the checkpoint)
    /// first. Retired wholesale when the next checkpoint cuts a new
    /// chain.
    chain: Vec<u64>,
    /// Regions written since the last commit, for replica delta shipping.
    staged: Vec<(u64, u32)>,
    /// For every name modified since the last commit: the committed-time
    /// entry it had (`None` = name did not exist). Drives both
    /// [`PmRt::revert_staged_prefix`] and the commit record's delta.
    staged_origin: NameMap<Option<Entry>>,
}

impl PmRt {
    /// `pm_create` for the runtime: initialize an empty registry on a
    /// formatted arena and commit it (a checkpoint record), so a crash at
    /// any later point can [`PmRt::restore`]. The ring starts empty at
    /// the arena top and grows downward on demand.
    pub fn create(arena: &mut NvbmArena) -> Result<Self, PmError> {
        let _s = arena.span("rt::create");
        let top = arena.rt_heap_top();
        let limit = arena.live_bump().max(HEADER_SIZE);
        let mut rt = PmRt {
            table: BTreeMap::new(),
            committed: BTreeMap::new(),
            committed_at: BTreeMap::new(),
            heap: LogHeap::new(limit, top),
            epoch: 0,
            retired: Vec::new(),
            deferred: Vec::new(),
            chain: Vec::new(),
            staged: Vec::new(),
            staged_origin: BTreeMap::new(),
        };
        arena.publish_rt_floor(rt.heap.floor());
        // Carry the bootstrap commit's regions forward instead of
        // dropping them: the caller never saw this commit, and a replica
        // shipping per-commit deltas must not end up with a hole where
        // the chain's first checkpoint record lives.
        let bootstrap = rt.commit(arena)?;
        rt.staged = bootstrap;
        Ok(rt)
    }

    /// `pm_restore` for the runtime: walk the commit-record chain from
    /// the durable root pointer (every record checksum-validated), replay
    /// the deltas oldest→newest, validate ("swizzle") every surviving
    /// entry against the arena, and re-seat the ring around the live
    /// records. Fails with [`PmError::NotFound`] if no chain was ever
    /// committed.
    pub fn restore(arena: &mut NvbmArena) -> Result<Self, PmError> {
        Self::restore_inner(arena).map_err(PmError::from)
    }

    fn restore_inner(arena: &mut NvbmArena) -> Result<Self, RtError> {
        let _s = arena.span("rt::swizzle");
        let root = arena.rt_root();
        if root.is_null() {
            return Err(RtError::Missing("no committed rt commit chain".into()));
        }
        let top = arena.rt_heap_top();
        // Chain walk, newest → oldest. Torn appends past the last durable
        // root swap are simply never reached: the chain only names
        // records that were flushed before their root swap.
        let mut walked: Vec<(u64, CommitPayload, usize)> = Vec::new();
        let mut off = root.0;
        let mut newer_epoch = u64::MAX;
        loop {
            let (payload, size) = read_commit_record(arena, off, top)?;
            let rec = parse_commit_payload(&payload)?;
            if rec.epoch >= newer_epoch {
                return Err(RtError::Corrupt(format!(
                    "commit chain epoch {} does not decrease at {off:#x}",
                    rec.epoch
                )));
            }
            newer_epoch = rec.epoch;
            let prev = rec.prev;
            walked.push((off, rec, size));
            if prev == 0 {
                break;
            }
            if walked.len() >= MAX_CHAIN {
                return Err(RtError::Corrupt(format!("commit chain longer than {MAX_CHAIN}")));
            }
            off = prev;
        }
        let epoch = walked[0].1.epoch;
        // Replay oldest → newest.
        let mut table: NameMap<Entry> = BTreeMap::new();
        for (_, rec, _) in walked.iter().rev() {
            for (name, e) in &rec.upserts {
                table.insert(name.clone(), *e);
            }
            for name in &rec.removes {
                table.remove(name);
            }
        }
        // Swizzle pass: every persistent pointer must name a well-formed
        // blob before anything dereferences it. Heap blobs live strictly
        // below the flight-recorder ring, so bounds-check against the
        // heap top, not the raw device capacity.
        for (name, e) in &table {
            if e.off < REC_HEADER as u64 {
                return Err(RtError::Corrupt(format!("root {name:?}: blob below record header")));
            }
            check_bounds(top, e.off, e.len)
                .map_err(|m| RtError::Corrupt(format!("root {name:?}: {m}")))?;
            validate_blob_header(arena, e.off, e.len)
                .map_err(|m| RtError::Corrupt(format!("root {name:?}: {m}")))?;
        }
        arena.failpoint("rt::swizzle");

        let limit = arena.live_bump().max(HEADER_SIZE);
        let floor_hint = arena.rt_bump_hint();
        let live = table
            .values()
            .map(|e| (POffset(e.record_off()), e.footprint() as u64))
            .chain(walked.iter().map(|(o, _, size)| (POffset(*o), *size as u64)));
        let heap = LogHeap::rebuild(limit, top, floor_hint, live)?;
        arena.publish_rt_floor(heap.floor());
        let chain: Vec<u64> = walked.iter().rev().map(|(o, _, _)| *o).collect();
        Ok(PmRt {
            committed: table.clone(),
            committed_at: table.iter().map(|(n, e)| (e.record_off(), n.clone())).collect(),
            table,
            heap,
            epoch,
            retired: Vec::new(),
            deferred: Vec::new(),
            chain,
            staged: Vec::new(),
            staged_origin: BTreeMap::new(),
        })
    }

    /// `pm_delete` for the runtime: clear the persistent registry (the
    /// header slots; log space is reclaimed implicitly, nothing is
    /// scrubbed). Outstanding MVCC snapshots are invalidated — their
    /// epochs no longer exist.
    pub fn destroy(arena: &mut NvbmArena) {
        arena.set_rt_root(POffset(0));
        arena.set_rt_bump_hint(0);
        arena.publish_rt_floor(arena.rt_heap_top());
        arena.rt_pins().invalidate();
    }

    /// Append a record to the ring against the *live* octree bump: the
    /// octree grows its territory between runtime calls, so the boundary
    /// is refreshed on every allocation and the new floor published back
    /// — the two allocators sharing the arena can fail, never overlap.
    /// Writes the wrap-gap pad header when the head wraps.
    fn append_record(
        &mut self,
        arena: &mut NvbmArena,
        kind: RecordKind,
        payload: &[u8],
    ) -> Result<(u64, usize), RtError> {
        let size = record_size(payload.len());
        self.heap.set_limit(arena.live_bump().max(HEADER_SIZE));
        let p = self.heap.alloc(size)?;
        if let Some((pad_off, skip)) = self.heap.take_pending_pad() {
            arena.write(pad_off, &encode_pad(self.heap.next_seq(), skip as usize));
            self.staged.push((pad_off, REC_HEADER as u32));
        }
        let seq = self.heap.next_seq();
        arena.write(p.0, &encode_record(seq, kind, payload));
        arena.publish_rt_floor(self.heap.floor());
        Ok((p.0, size))
    }

    /// Stage `value` under `name` (copy-on-write: a fresh blob record,
    /// never an in-place update of anything durable). Durable only after
    /// the next [`PmRt::commit`].
    pub fn stage<T: PmData>(
        &mut self,
        arena: &mut NvbmArena,
        name: &str,
        value: &T,
    ) -> Result<PPtr<T>, PmError> {
        let e = self.stage_bytes(arena, name, &value.to_bytes())?;
        Ok(PPtr::from_entry(e))
    }

    /// Stage raw payload bytes under `name`. A rewrite of a root already
    /// staged in this window reuses its record slot in place when the
    /// footprint matches — an uncommitted record is invisible to both
    /// snapshots and crash recovery, so nothing durable is updated in
    /// place, and staged churn does not eat ring space.
    fn stage_bytes(
        &mut self,
        arena: &mut NvbmArena,
        name: &str,
        payload: &[u8],
    ) -> Result<Entry, RtError> {
        let len = u32::try_from(payload.len())
            .map_err(|_| RtError::Full(format!("object {name:?} over 4 GiB")))?;
        let blob_len = OBJ_HEADER + payload.len();
        let mut blob = Vec::with_capacity(blob_len);
        let mut w = ByteWriter::new(&mut blob);
        w.u32(OBJ_MAGIC);
        w.u32(len);
        blob.extend_from_slice(payload);
        if let Some(cur) = self.table.get_mut(name) {
            let staged_only = self.committed.get(name) != Some(cur);
            if staged_only && cur.footprint() == record_size(blob.len()) {
                // Staged-only means this window already noted its origin.
                debug_assert!(self.staged_origin.contains_key(name));
                let seq = self.heap.next_seq();
                arena.write(cur.record_off(), &encode_record(seq, RecordKind::Blob, &blob));
                cur.len = len;
                return Ok(*cur);
            }
        }
        let (rec_off, size) = self.append_record(arena, RecordKind::Blob, &blob)?;
        self.staged.push((rec_off, size as u32));
        let key = self.note_origin(name);
        let e = Entry { off: rec_off + REC_HEADER as u64, len };
        if let Some(old) = self.table.insert(key, e) {
            self.supersede(name, old);
        }
        Ok(e)
    }

    /// Read the current value of a named root (staged or committed).
    /// `Ok(None)` if the name is not registered.
    pub fn load<T: PmData>(
        &mut self,
        arena: &mut NvbmArena,
        name: &str,
    ) -> Result<Option<T>, PmError> {
        let Some(&e) = self.table.get(name) else {
            return Ok(None);
        };
        self.load_ptr(arena, PPtr::from_entry(e)).map(Some)
    }

    /// The persistent pointer currently registered under `name`.
    pub fn resolve<T: PmData>(&self, name: &str) -> Option<PPtr<T>> {
        self.table.get(name).map(|&e| PPtr::from_entry(e))
    }

    /// Dereference a persistent pointer: validate the blob header, read
    /// the payload, decode.
    pub fn load_ptr<T: PmData>(
        &mut self,
        arena: &mut NvbmArena,
        ptr: PPtr<T>,
    ) -> Result<T, PmError> {
        check_bounds(arena.rt_heap_top(), ptr.off, ptr.len)?;
        let payload = read_blob(arena, ptr.off, Some(ptr.len))?;
        Ok(T::from_bytes(&payload)?)
    }

    /// Unregister a named root. A committed blob is reclaimed after the
    /// next commit (or deferred while snapshots pin it); a blob staged in
    /// this window is reclaimed immediately. Returns whether the name
    /// existed.
    pub fn unregister(&mut self, name: &str) -> bool {
        match self.table.remove(name) {
            Some(e) => {
                self.note_origin(name);
                self.supersede(name, e);
                true
            }
            None => false,
        }
    }

    /// Record the committed-time entry for `name` on its first
    /// modification in this commit window. Returns the shared name key
    /// (the committed table's allocation when the root already exists).
    fn note_origin(&mut self, name: &str) -> Arc<str> {
        if let Some((key, _)) = self.staged_origin.get_key_value(name) {
            return key.clone();
        }
        let (key, origin) = match self.committed.get_key_value(name) {
            Some((key, e)) => (key.clone(), Some(*e)),
            None => (Arc::from(name), None),
        };
        self.staged_origin.insert(key.clone(), origin);
        key
    }

    /// A staged or committed blob under `name` was replaced or removed.
    /// Committed blobs retire (snapshot readers may still need them);
    /// blobs staged in this window were never snapshot-visible and die on
    /// the spot, letting the ring tail sweep them.
    fn supersede(&mut self, name: &str, old: Entry) {
        if self.committed.get(name) == Some(&old) {
            self.retired.push(old.record_off());
        } else {
            self.heap.mark_dead(old.record_off());
        }
    }

    /// `pm_persistent` for the runtime: append one commit record (a table
    /// delta chained to the previous commit, or a full checkpoint every
    /// [`CHECKPOINT_EVERY`] commits), flush everything staged, and
    /// publish the record with one atomic 8-byte header store — the same
    /// root-swap commit point as the octree's persist, firing the
    /// `rt::commit` failpoint. The wear-leveling and compaction passes
    /// run first (failpoints `wear::relocate` / `heap::compact`), and the
    /// record append fires `heap::append`. Returns the regions written
    /// since the previous commit (blobs, pads, the commit record), for
    /// replica delta shipping.
    ///
    /// Blobs the new commit supersedes are reclaimed immediately when no
    /// MVCC snapshot pins an older epoch, and deferred to
    /// [`PmRt::collect`] otherwise.
    pub fn commit(&mut self, arena: &mut NvbmArena) -> Result<Vec<(u64, u32)>, PmError> {
        // Committed bytes (commit record, flushed staged blobs) are
        // charged to the `rt::commit` phase; restore the caller's phase on
        // every exit, including errors.
        let prev_phase = arena.set_phase("rt::commit");
        let r = self.commit_inner(arena).map_err(PmError::from);
        arena.set_phase(prev_phase);
        r
    }

    fn commit_inner(&mut self, arena: &mut NvbmArena) -> Result<Vec<(u64, u32)>, RtError> {
        let _s = arena.span("rt::commit");
        self.wear_pass(arena)?;
        self.compact_pass(arena)?;
        self.epoch += 1;
        // Checkpoint on schedule. Old chain records left behind by the
        // cut are dead islands the next-fit allocator walks over, so a
        // wrapped log needs no early cut — the delta chain keeps paying
        // off in steady state.
        let checkpoint = self.chain.is_empty() || self.chain.len() >= CHECKPOINT_EVERY;
        let prev = if checkpoint { 0 } else { *self.chain.last().expect("chain non-empty") };
        let payload = self.build_commit_payload(checkpoint, prev);
        arena.failpoint("heap::append");
        let (rec_off, size) = self.append_record(arena, RecordKind::Commit, &payload)?;
        self.staged.push((rec_off, size as u32));
        // Persist the ring floor *before* the swap: a stale floor after a
        // crash wastes space below the clamped floor, never corrupts.
        arena.set_rt_bump_hint(self.heap.floor());
        // Destination matters: the record and blobs must be on media
        // before anything names them.
        arena.flush_all();
        arena.set_rt_root(POffset(rec_off)); // THE commit point (atomic 8-byte store)
        arena.failpoint("rt::commit");
        // Post-swap bookkeeping. A checkpoint makes the old chain
        // unreachable from the durable root: those records die now (no
        // snapshot ever dereferences a chain record — pins only protect
        // blobs). Superseded committed blobs defer until unpinned.
        if checkpoint {
            for off in self.chain.drain(..) {
                self.heap.mark_dead(off);
            }
        }
        self.chain.push(rec_off);
        let retired_at = self.epoch;
        for off in self.retired.drain(..) {
            self.deferred.push((retired_at, off));
        }
        self.collect_inner(arena.rt_pins().min_pinned());
        // Advance the committed view and its reverse index by exactly the
        // names this window touched.
        for (name, origin) in std::mem::take(&mut self.staged_origin) {
            if let Some(old) = origin {
                self.committed_at.remove(&old.record_off());
            }
            match self.table.get(&name) {
                Some(&e) => {
                    self.committed_at.insert(e.record_off(), name.clone());
                    self.committed.insert(name, e);
                }
                None => {
                    self.committed.remove(&name);
                }
            }
        }
        debug_assert_eq!(self.committed, self.table);
        arena.publish_rt_floor(self.heap.floor());
        Ok(std::mem::take(&mut self.staged))
    }

    /// Serialize the commit record payload: epoch, previous-record
    /// pointer, then either the full table (checkpoint) or the delta the
    /// staged window produced.
    fn build_commit_payload(&self, checkpoint: bool, prev: u64) -> Vec<u8> {
        let mut upserts: Vec<(&str, Entry)> = Vec::new();
        let mut removes: Vec<&str> = Vec::new();
        if checkpoint {
            upserts.extend(self.table.iter().map(|(n, e)| (&**n, *e)));
        } else {
            for (name, origin) in &self.staged_origin {
                match self.table.get(name) {
                    Some(e) => upserts.push((name, *e)),
                    // Removing a name the committed table never held is
                    // no delta at all.
                    None if origin.is_some() => removes.push(name),
                    None => {}
                }
            }
        }
        // Sized exactly (4 u64 header fields; a u64 length per name; 12
        // entry bytes per upsert): a checkpoint payload is the largest
        // transient buffer of a commit.
        let name_bytes: usize =
            upserts.iter().map(|(n, _)| n).chain(&removes).map(|n| n.len()).sum();
        let mut payload =
            Vec::with_capacity(32 + 20 * upserts.len() + 8 * removes.len() + name_bytes);
        let mut w = ByteWriter::new(&mut payload);
        w.u64(self.epoch);
        w.u64(prev);
        w.u64(upserts.len() as u64);
        w.u64(removes.len() as u64);
        for (name, e) in &upserts {
            w.bytes(name.as_bytes());
            w.u64(e.off);
            w.u32(e.len);
        }
        for name in &removes {
            w.bytes(name.as_bytes());
        }
        payload
    }

    /// Wear-leveling pass: relocate the committed, un-restaged blob whose
    /// record sits on the hottest (highest effective-wear) block toward
    /// the log head — the coldest place by construction, since appends
    /// spread over the whole ring. Runs at every commit so the sweep
    /// always exercises the `wear::relocate` opportunity.
    fn wear_pass(&mut self, arena: &mut NvbmArena) -> Result<(), RtError> {
        let _s = arena.span("wear::relocate");
        arena.failpoint("wear::relocate");
        if let Some((w, name)) = self.wear_victim(arena) {
            if w > 0 {
                match self.relocate(arena, &name) {
                    // A full ring just means no headroom to level into;
                    // the commit itself must not fail over optional GC.
                    Err(RtError::Full(_)) => {}
                    other => other?,
                }
            }
        }
        Ok(())
    }

    /// The committed, un-restaged blob on the hottest block (first in
    /// name order among equals) and that block's wear. Both views are
    /// name-ordered, so one lockstep pass pairs them without a search
    /// per root.
    fn wear_victim(&self, arena: &NvbmArena) -> Option<(u32, Arc<str>)> {
        let mut staged = self.table.iter().peekable();
        let mut best: Option<(u32, &Arc<str>)> = None;
        for (name, e) in &self.committed {
            while staged.next_if(|(n, _)| *n < name).is_some() {}
            if staged.peek() != Some(&(name, e)) {
                continue; // modified this window; its old blob retires anyway
            }
            let w = arena.stats.block_wear(e.record_off());
            if best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, name));
            }
        }
        best.map(|(w, name)| (w, name.clone()))
    }

    /// Compaction pass: rotate the ring by relocating the oldest
    /// committed, un-restaged blob to the head (freeing the tail to sweep
    /// over dead records behind it), and keep going while occupancy stays
    /// above [`COMPACT_WATERMARK`], up to [`MAX_COMPACT`] blobs.
    fn compact_pass(&mut self, arena: &mut NvbmArena) -> Result<(), RtError> {
        let _s = arena.span("heap::compact");
        arena.failpoint("heap::compact");
        let mut moved = 0usize;
        while moved < MAX_COMPACT {
            if moved > 0 && self.heap.occupancy() < COMPACT_WATERMARK {
                break;
            }
            let Some(name) = self.oldest_relocatable() else { break };
            match self.relocate(arena, &name) {
                Err(RtError::Full(_)) => break,
                other => other?,
            }
            moved += 1;
        }
        if moved > 0 {
            arena.tracer.counter_add("rt.compact.relocated", moved as u64);
        }
        Ok(())
    }

    /// The committed, un-restaged blob closest to the ring tail, if any.
    fn oldest_relocatable(&self) -> Option<Arc<str>> {
        self.heap.ring_live().find_map(|off| {
            // Still staged under the record the committed view names?
            let name = self.committed_at.get(&off)?;
            (self.table.get(name).map(Entry::record_off) == Some(off)).then(|| name.clone())
        })
    }

    /// Relocate a committed blob: re-stage a byte-identical copy at the
    /// log head and retire the old record through the standard
    /// supersede → defer → collect path, so pinned snapshots keep reading
    /// the original bytes until their pins drop.
    fn relocate(&mut self, arena: &mut NvbmArena, name: &str) -> Result<(), RtError> {
        let Some(&e) = self.table.get(name) else {
            return Ok(());
        };
        let payload = read_blob(arena, e.off, Some(e.len))?;
        let old_rec = e.record_off();
        self.stage_bytes(arena, name, &payload)?;
        arena.stats.note_relocation(old_rec, e.footprint());
        arena.tracer.counter_add("rt.wear.relocations", 1);
        Ok(())
    }

    /// GC pass over deferred frees: reclaim every record whose retirement
    /// epoch is no longer protected by a snapshot pin. Runs implicitly at
    /// every commit; call explicitly after dropping snapshots to recover
    /// space without committing. Returns the number of records freed.
    pub fn collect(&mut self, arena: &mut NvbmArena) -> usize {
        let n = self.collect_inner(arena.rt_pins().min_pinned());
        arena.publish_rt_floor(self.heap.floor());
        n
    }

    /// A blob retired by the commit that produced epoch `e` is still live
    /// in every table version `< e`; a pin at snapshot epoch `s` protects
    /// exactly the blobs with `e > s`. So `(e, blob)` is freeable iff no
    /// pin `s < e` remains — i.e. `min_pinned` is absent or `e <= min`.
    fn collect_inner(&mut self, min_pinned: Option<u64>) -> usize {
        let deferred = std::mem::take(&mut self.deferred);
        let mut freed = 0;
        for (e, off) in deferred {
            if min_pinned.is_none_or(|m| e <= m) {
                self.heap.mark_dead(off);
                freed += 1;
            } else {
                self.deferred.push((e, off));
            }
        }
        freed
    }

    /// Undo every staged (uncommitted) modification whose root name
    /// starts with `prefix`: staged records are reclaimed, replaced or
    /// removed committed entries are reinstated, and their pending
    /// retirements cancelled. The service layer uses this to make a
    /// tenant's batch all-or-nothing. Returns the number of roots
    /// reverted.
    pub fn revert_staged_prefix(&mut self, prefix: &str) -> usize {
        let reverted: Vec<(Arc<str>, Option<Entry>)> =
            prefix_range(&self.staged_origin, prefix).map(|(n, o)| (n.clone(), *o)).collect();
        for (name, origin) in &reverted {
            self.staged_origin.remove(name);
            // Reinstate the committed-time entry and reclaim the record
            // staged under the name (unless it is that committed blob).
            let staged = match origin {
                Some(e) => self.table.insert(name.clone(), *e),
                None => self.table.remove(name),
            };
            if let Some(cur) = staged.filter(|cur| Some(*cur) != *origin) {
                self.heap.mark_dead(cur.record_off());
            }
            // Cancel the pending retirement: the committed blob is
            // reachable again.
            let retired =
                origin.and_then(|e| self.retired.iter().position(|&o| o == e.record_off()));
            if let Some(i) = retired {
                self.retired.swap_remove(i);
            }
        }
        reverted.len()
    }

    /// Ring bytes (full record footprints) currently charged to roots
    /// whose name starts with `prefix` — the staged view, so a quota
    /// check sees writes from the current batch. This is the service
    /// layer's quota currency.
    pub fn prefix_usage(&self, prefix: &str) -> u64 {
        prefix_range(&self.table, prefix).map(|(_, e)| e.footprint() as u64).sum()
    }

    /// The staged entry's ring footprint for one name (0 if absent).
    pub(crate) fn entry_footprint(&self, name: &str) -> u64 {
        self.table.get(name).map_or(0, |e| e.footprint() as u64)
    }

    /// Committed table entries whose name starts with `prefix`, keyed by
    /// the rest of the name (what an MVCC snapshot captures).
    pub(crate) fn committed_with_prefix(&self, prefix: &str) -> BTreeMap<String, Entry> {
        let bare = |(n, e): (&Arc<str>, &Entry)| (n[prefix.len()..].to_string(), *e);
        prefix_range(&self.committed, prefix).map(bare).collect()
    }

    /// Committed table epoch (increments at every commit).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of named roots (staged view).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Registered root names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.table.keys().map(|n| &**n)
    }

    /// Registered root names starting with `prefix`, sorted.
    pub fn names_with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> {
        prefix_range(&self.table, prefix).map(|(n, _)| &**n)
    }

    /// Live commit-chain length (1 right after a checkpoint).
    pub fn chain_len(&self) -> usize {
        self.chain.len()
    }

    /// Ring occupancy (live bytes over window) — the compaction
    /// watermark input, surfaced for the wear-leveling bench.
    pub fn log_occupancy(&self) -> f64 {
        self.heap.occupancy()
    }
}

/// A parsed commit record payload.
struct CommitPayload {
    epoch: u64,
    prev: u64,
    upserts: Vec<(Arc<str>, Entry)>,
    removes: Vec<Arc<str>>,
}

/// Read and checksum-validate the commit record at `off` (bounds-checked
/// against the rt heap top). Returns the payload and the record's ring
/// footprint.
fn read_commit_record(
    arena: &mut NvbmArena,
    off: u64,
    top: u64,
) -> Result<(Vec<u8>, usize), RtError> {
    let hdr_end = off.checked_add(REC_HEADER as u64).ok_or_else(|| {
        RtError::Corrupt(format!("commit record at {off:#x} wraps the address space"))
    })?;
    if off < HEADER_SIZE || hdr_end > top {
        return Err(RtError::Corrupt(format!(
            "commit record header at {off:#x} outside the rt region"
        )));
    }
    let mut h = [0u8; REC_HEADER];
    arena.read(off, &mut h);
    let header = parse_header(&h).map_err(|magic| {
        RtError::Corrupt(format!("bad log record magic {magic:#x} at {off:#x}"))
    })?;
    match header.kind {
        Some(RecordKind::Commit) => {}
        k => {
            return Err(RtError::Corrupt(format!(
                "record at {off:#x} is {k:?}, expected a commit record"
            )))
        }
    }
    let size = record_size(header.len);
    if off.checked_add(size as u64).is_none_or(|end| end > top) {
        return Err(RtError::Corrupt(format!(
            "commit record at {off:#x} ({size} bytes) past the rt region top {top:#x}"
        )));
    }
    // Header, payload and trailer side by side, as the checksum covers them.
    let mut rec = vec![0u8; header.unpadded_size()];
    rec[..REC_HEADER].copy_from_slice(&h);
    arena.read(off + REC_HEADER as u64, &mut rec[REC_HEADER..]);
    if !checksum_ok(&rec) {
        return Err(RtError::Corrupt(format!("commit record checksum mismatch at {off:#x}")));
    }
    rec.drain(..REC_HEADER);
    rec.truncate(header.len);
    Ok((rec, size))
}

/// Parse a commit record payload (bounds-checked; duplicate names within
/// one record are corruption).
fn parse_commit_payload(payload: &[u8]) -> Result<CommitPayload, RtError> {
    let mut r = ByteReader::new(payload);
    let epoch = r.u64()?;
    let prev = r.u64()?;
    let nup = r.u64()?;
    let nrm = r.u64()?;
    let mut seen: BTreeSet<Arc<str>> = BTreeSet::new();
    let mut fresh_name = |r: &mut ByteReader<'_>| {
        let name: Arc<str> = String::decode(r)?.into();
        if !seen.insert(name.clone()) {
            return Err(RtError::Corrupt(format!("duplicate root name {name:?} in commit record")));
        }
        Ok(name)
    };
    let mut upserts = Vec::new();
    for _ in 0..nup {
        upserts.push((fresh_name(&mut r)?, Entry { off: r.u64()?, len: r.u32()? }));
    }
    let mut removes = Vec::new();
    for _ in 0..nrm {
        removes.push(fresh_name(&mut r)?);
    }
    if !r.is_empty() {
        return Err(RtError::Corrupt("trailing bytes after commit record payload".into()));
    }
    Ok(CommitPayload { epoch, prev, upserts, removes })
}

fn check_bounds(cap: u64, off: u64, len: u32) -> Result<(), RtError> {
    let end = off
        .checked_add(OBJ_HEADER as u64 + len as u64)
        .ok_or_else(|| RtError::Corrupt(format!("blob at {off:#x} wraps the address space")))?;
    if off < HEADER_SIZE || end > cap {
        return Err(RtError::Corrupt(format!("blob [{off:#x}, {end:#x}) outside arena")));
    }
    Ok(())
}

/// Validate an object blob header without reading the payload (the cheap
/// swizzle check: one cacheline).
fn validate_blob_header(arena: &mut NvbmArena, off: u64, want_len: u32) -> Result<(), String> {
    let mut h = [0u8; OBJ_HEADER];
    arena.read(off, &mut h);
    let magic = u32::from_le_bytes(h[0..4].try_into().map_err(|_| "header")?);
    let len = u32::from_le_bytes(h[4..8].try_into().map_err(|_| "header")?);
    if magic != OBJ_MAGIC {
        return Err(format!("bad object magic {magic:#x} at {off:#x}"));
    }
    if len != want_len {
        return Err(format!("length mismatch at {off:#x}: blob says {len}, table says {want_len}"));
    }
    Ok(())
}

/// Read an object blob's payload, validating the header. `want_len`
/// cross-checks a table entry when available.
pub(crate) fn read_blob(
    arena: &mut NvbmArena,
    off: u64,
    want_len: Option<u32>,
) -> Result<Vec<u8>, RtError> {
    let cap = arena.rt_heap_top();
    // Checked add: a corrupted root near u64::MAX must report, not wrap
    // past the bound and panic inside the arena read.
    if off.checked_add(OBJ_HEADER as u64).is_none_or(|end| end > cap) {
        return Err(RtError::Corrupt(format!("blob header at {off:#x} outside arena")));
    }
    let mut h = [0u8; OBJ_HEADER];
    arena.read(off, &mut h);
    let magic = u32::from_le_bytes(h[0..4].try_into().unwrap_or([0; 4]));
    let len = u32::from_le_bytes(h[4..8].try_into().unwrap_or([0; 4]));
    if magic != OBJ_MAGIC {
        return Err(RtError::Corrupt(format!("bad object magic {magic:#x} at {off:#x}")));
    }
    if let Some(want) = want_len {
        if len != want {
            return Err(RtError::Corrupt(format!(
                "length mismatch at {off:#x}: blob says {len}, pointer says {want}"
            )));
        }
    }
    check_bounds(cap, off, len)?;
    let mut payload = vec![0u8; len as usize];
    arena.read(off + OBJ_HEADER as u64, &mut payload);
    Ok(payload)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::data::PmData;
    use pmoctree_nvbm::{CrashMode, DeviceModel, FailPlan};

    fn arena() -> NvbmArena {
        NvbmArena::new(1 << 20, DeviceModel::default())
    }

    /// A little application-state struct, as a non-octree PmData example.
    #[derive(Debug, Clone, PartialEq)]
    struct RunState {
        step: u64,
        t: f64,
        tag: String,
    }

    impl PmData for RunState {
        fn encode(&self, out: &mut Vec<u8>) {
            self.step.encode(out);
            self.t.encode(out);
            self.tag.encode(out);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, RtError> {
            Ok(RunState { step: u64::decode(r)?, t: f64::decode(r)?, tag: String::decode(r)? })
        }
    }

    #[test]
    fn stage_commit_restore_roundtrip() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        let st = RunState { step: 12, t: 0.25, tag: "droplet".into() };
        rt.stage(&mut a, "run", &st).unwrap();
        rt.stage(&mut a, "answer", &42u64).unwrap();
        rt.commit(&mut a).unwrap();
        a.crash(CrashMode::LoseDirty);
        let mut r = PmRt::restore(&mut a).unwrap();
        assert_eq!(r.load::<RunState>(&mut a, "run").unwrap(), Some(st));
        assert_eq!(r.load::<u64>(&mut a, "answer").unwrap(), Some(42));
        assert_eq!(r.load::<u64>(&mut a, "nope").unwrap(), None);
    }

    #[test]
    fn uncommitted_stage_is_lost_committed_survives() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "x", &1u64).unwrap();
        rt.commit(&mut a).unwrap();
        rt.stage(&mut a, "x", &2u64).unwrap(); // staged, not committed
        a.crash(CrashMode::LoseDirty);
        let mut r = PmRt::restore(&mut a).unwrap();
        assert_eq!(r.load::<u64>(&mut a, "x").unwrap(), Some(1));
    }

    #[test]
    fn crash_armed_at_every_opportunity_recovers_old_or_new() {
        // Count the opportunities of one stage+commit, then crash at each
        // one under every mode: restore must see x == 1 or x == 2, and
        // the commit, append, compaction and wear failpoints must all be
        // among the opportunities.
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "x", &1u64).unwrap();
        rt.commit(&mut a).unwrap();
        let before = a.clone_media();
        a.set_fail_plan(FailPlan::count());
        rt.stage(&mut a, "x", &2u64).unwrap();
        rt.commit(&mut a).unwrap();
        let plan = a.take_fail_plan().expect("plan installed");
        let n = plan.opportunities();
        assert!(n > 0);
        for want in ["rt::commit", "heap::append", "heap::compact", "wear::relocate"] {
            assert!(
                plan.labels().iter().any(|(_, l)| *l == want),
                "{want} must be a labelled opportunity"
            );
        }
        for mode in [
            CrashMode::LoseDirty,
            CrashMode::CommitRandom { p: 0.5, seed: 7 },
            CrashMode::TornWrite { seed: 7 },
        ] {
            for at in 1..=n {
                let mut b = NvbmArena::new(1 << 20, DeviceModel::default());
                b.restore_media(&before);
                let mut rtb = PmRt::restore(&mut b).unwrap();
                b.set_fail_plan(FailPlan::armed(at, mode));
                rtb.stage(&mut b, "x", &2u64).unwrap();
                let _ = rtb.commit(&mut b);
                if let Some(cap) = b.take_fail_plan().and_then(|mut p| p.take_capture()) {
                    let mut c = NvbmArena::from_media(cap.media, DeviceModel::default());
                    let mut rec = PmRt::restore(&mut c).unwrap();
                    let x = rec.load::<u64>(&mut c, "x").unwrap();
                    assert!(
                        x == Some(1) || x == Some(2),
                        "crash at {at}/{n} under {mode:?} saw {x:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn restore_fires_swizzle_failpoint() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "x", &5u64).unwrap();
        rt.commit(&mut a).unwrap();
        a.set_fail_plan(FailPlan::count());
        let _ = PmRt::restore(&mut a).unwrap();
        let plan = a.take_fail_plan().expect("plan");
        assert!(plan.labels().iter().any(|(_, l)| *l == "rt::swizzle"));
    }

    #[test]
    fn restore_on_blank_arena_is_not_found() {
        let mut a = arena();
        assert!(matches!(PmRt::restore(&mut a), Err(PmError::NotFound(_))));
    }

    #[test]
    fn corrupt_table_pointer_is_err_not_panic() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "x", &5u64).unwrap();
        rt.commit(&mut a).unwrap();
        // Point rt_root into the weeds.
        a.set_rt_root(POffset(a.capacity() as u64 - 8));
        assert!(matches!(PmRt::restore(&mut a), Err(PmError::Corrupt(_))));
        a.set_rt_root(POffset(HEADER_SIZE));
        assert!(PmRt::restore(&mut a).is_err());
    }

    #[test]
    fn corrupt_root_near_u64_max_is_err_not_panic() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "x", &5u64).unwrap();
        rt.commit(&mut a).unwrap();
        // A torn header write can leave rt_root near u64::MAX; the bound
        // check must not wrap around and panic inside the arena read.
        a.set_rt_root(POffset(u64::MAX - 4));
        assert!(matches!(PmRt::restore(&mut a), Err(PmError::Corrupt(_))));
    }

    #[test]
    fn root_pointing_at_blob_record_is_corrupt() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        let p = rt.stage(&mut a, "x", &5u64).unwrap();
        rt.commit(&mut a).unwrap();
        // A blob record is checksummed too, but it is not a commit
        // record: the kind check must reject it.
        a.set_rt_root(POffset(p.offset() - REC_HEADER as u64));
        assert!(matches!(PmRt::restore(&mut a), Err(PmError::Corrupt(_))));
    }

    #[test]
    fn octree_bump_cannot_cross_committed_rt_blobs() {
        use pm_octree::{CellData, OctAccess, Octant, PmConfig, PmOctree, OCTANT_SIZE};
        use pmoctree_morton::OctKey;

        // A tight shared device: the octree must report full at the
        // runtime's live floor instead of bump-allocating over it.
        let a = NvbmArena::new(16 << 10, DeviceModel::default());
        let mut t = PmOctree::create(a, PmConfig::default());
        let mut rt = PmRt::create(&mut t.store.arena).unwrap();
        let tag = "A".repeat(512);
        rt.stage(&mut t.store.arena, "tag", &tag).unwrap();
        rt.commit(&mut t.store.arena).unwrap();
        let floor = rt.heap.floor();
        let mut n = 0u64;
        loop {
            let o = Octant::leaf(OctKey::root(), 1, CellData::default());
            match t.store.alloc_octant(&o) {
                Ok(p) => {
                    assert!(
                        p.0 + OCTANT_SIZE as u64 <= floor,
                        "octant at {:#x} crosses the rt floor {floor:#x}",
                        p.0
                    );
                    n += 1;
                }
                Err(_) => break,
            }
        }
        assert!(n > 0, "the device has room below the floor");
        // The committed runtime state survived the octree filling the
        // device to the boundary.
        t.store.arena.crash(CrashMode::LoseDirty);
        let mut r = PmRt::restore(&mut t.store.arena).unwrap();
        assert_eq!(r.load::<String>(&mut t.store.arena, "tag").unwrap(), Some(tag));
        // And the other direction: with the device full of octants, an
        // oversized runtime allocation fails cleanly.
        let big = "B".repeat(12 << 10);
        assert!(matches!(r.stage(&mut t.store.arena, "big", &big), Err(PmError::Recovery(_))));
    }

    #[test]
    fn rt_heap_respects_live_octree_bump() {
        use pm_octree::{PmConfig, PmOctree};
        use pmoctree_morton::OctKey;

        // The octree grows long after the runtime was created: the ring
        // limit must track the *live* bump, not a create-time snapshot
        // (which would let a big blob land on live octants).
        let a = NvbmArena::new(64 << 10, DeviceModel::default());
        let mut t = PmOctree::create(a, PmConfig::default());
        let mut rt = PmRt::create(&mut t.store.arena).unwrap();
        t.refine(OctKey::root()).unwrap();
        for i in 0..8 {
            t.refine(OctKey::root().child(i)).unwrap();
        }
        t.persist();
        let leaves = t.leaves_sorted();
        let bump = t.store.arena.live_bump();
        assert!(bump > 8 << 10, "tree must have grown past the create-time bump");
        // Sized to fit under the heap top (just below the flight-recorder
        // ring) but not above the live bump.
        let top = t.store.arena.rt_heap_top();
        let big = "B".repeat((top as usize - (8 << 10)) - 64);
        match rt.stage(&mut t.store.arena, "big", &big) {
            Err(PmError::Recovery(m)) => assert!(m.contains("cross"), "wrong full cause: {m}"),
            other => panic!("expected Recovery(cross), got {other:?}"),
        }
        assert!(rt.heap.floor() >= bump);
        // Nothing was written: the persisted tree is untouched.
        let mut arena = {
            let PmOctree { store, .. } = t;
            store.arena
        };
        arena.crash(CrashMode::LoseDirty);
        let mut r = PmOctree::restore(arena, PmConfig::default()).unwrap();
        assert_eq!(r.leaves_sorted(), leaves);
    }

    #[test]
    fn unregister_drops_root_after_commit() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "x", &5u64).unwrap();
        rt.commit(&mut a).unwrap();
        assert!(rt.unregister("x"));
        assert!(!rt.unregister("x"));
        rt.commit(&mut a).unwrap();
        a.crash(CrashMode::LoseDirty);
        let mut r = PmRt::restore(&mut a).unwrap();
        assert_eq!(r.load::<u64>(&mut a, "x").unwrap(), None);
    }

    #[test]
    fn removal_survives_checkpoint_chain_cut() {
        // Deltas record removals explicitly; a checkpoint then bakes the
        // absence into the full table. Exercise both paths across enough
        // commits to cross a checkpoint boundary.
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "keep", &1u64).unwrap();
        rt.stage(&mut a, "drop", &2u64).unwrap();
        rt.commit(&mut a).unwrap();
        rt.unregister("drop");
        rt.commit(&mut a).unwrap();
        for i in 0..(CHECKPOINT_EVERY as u64 + 2) {
            rt.stage(&mut a, "keep", &i).unwrap();
            rt.commit(&mut a).unwrap();
        }
        assert!(
            rt.chain_len() <= CHECKPOINT_EVERY,
            "checkpoint must have cut the chain (len {})",
            rt.chain_len()
        );
        a.crash(CrashMode::LoseDirty);
        let mut r = PmRt::restore(&mut a).unwrap();
        assert_eq!(r.load::<u64>(&mut a, "keep").unwrap(), Some(CHECKPOINT_EVERY as u64 + 1));
        assert_eq!(r.load::<u64>(&mut a, "drop").unwrap(), None);
    }

    #[test]
    fn heap_space_is_recycled_across_commits() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        for i in 0..200u64 {
            rt.stage(&mut a, "x", &i).unwrap();
            rt.commit(&mut a).unwrap();
        }
        // 200 rewrites of one small root must not consume 200 records of
        // fresh space: the ring head wraps over swept tail space, so the
        // window stays within a few growth chunks of the top (which sits
        // just below the flight-recorder ring).
        assert!(
            a.rt_heap_top() - rt.heap.floor() <= 4096,
            "ring window grew to {} bytes",
            a.rt_heap_top() - rt.heap.floor()
        );
        assert!(rt.heap.laps() > 0, "the ring must actually wrap");
        assert_eq!(rt.deferred.len(), 0, "no pins, nothing deferred");
    }

    #[test]
    fn staged_over_staged_reclaims_immediately() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "x", &1u64).unwrap();
        rt.commit(&mut a).unwrap();
        let floor = rt.heap.floor();
        // Rewrite the same staged root many times without committing: the
        // same-footprint record slot is reused in place, so the floor
        // cannot sink.
        for i in 0..100u64 {
            rt.stage(&mut a, "x", &i).unwrap();
        }
        assert!(floor - rt.heap.floor() < 256, "staged rewrites must recycle");
        rt.commit(&mut a).unwrap();
        a.crash(CrashMode::LoseDirty);
        let mut r = PmRt::restore(&mut a).unwrap();
        assert_eq!(r.load::<u64>(&mut a, "x").unwrap(), Some(99));
    }

    #[test]
    fn relocation_tracks_wear_and_moves_hot_blobs() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "cold", &vec![7u8; 200]).unwrap();
        rt.commit(&mut a).unwrap();
        let before = rt.resolve::<Vec<u8>>("cold").unwrap();
        // Churn an unrelated root: every commit runs the wear pass, which
        // relocates the hottest unmodified blob — "cold" — and charges
        // the move to the stats relocation counters.
        for i in 0..4u64 {
            rt.stage(&mut a, "hot", &i).unwrap();
            rt.commit(&mut a).unwrap();
        }
        let after = rt.resolve::<Vec<u8>>("cold").unwrap();
        assert_ne!(before, after, "the blob must have been relocated");
        assert!(a.stats.relocations() > 0);
        assert!(a.stats.relocated_bytes() > 0);
        // Byte identity across relocation, including after a crash.
        assert_eq!(rt.load::<Vec<u8>>(&mut a, "cold").unwrap(), Some(vec![7u8; 200]));
        a.crash(CrashMode::LoseDirty);
        let mut r = PmRt::restore(&mut a).unwrap();
        assert_eq!(r.load::<Vec<u8>>(&mut a, "cold").unwrap(), Some(vec![7u8; 200]));
    }

    /// Deterministic LCG behind the random-interleaving tests.
    fn lcg(mut rng: u64) -> impl FnMut() -> usize {
        move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        }
    }

    /// Satellite property test: compaction preserves byte-identity of
    /// all live blobs under random put/remove/commit interleavings
    /// (deterministic LCG, shadow-model oracle, final crash+restore).
    #[test]
    fn log_compaction_preserves_byte_identity_under_random_interleavings() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        let mut shadow: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let mut committed_shadow: BTreeMap<String, Vec<u8>>;
        let mut step = lcg(0x1234_5678_9abc_def0);
        for op in 0..600 {
            let name = format!("r{}", step() % 12);
            match step() % 10 {
                0..=5 => {
                    let len = step() % 300;
                    let payload: Vec<u8> = (0..len).map(|i| (i + op) as u8).collect();
                    rt.stage(&mut a, &name, &payload).unwrap();
                    shadow.insert(name, payload);
                }
                6..=7 => {
                    assert_eq!(rt.unregister(&name), shadow.remove(&name).is_some());
                }
                _ => {
                    rt.commit(&mut a).unwrap();
                    committed_shadow = shadow.clone();
                    for (n, want) in &committed_shadow {
                        assert_eq!(
                            rt.load::<Vec<u8>>(&mut a, n).unwrap().as_ref(),
                            Some(want),
                            "root {n} diverged at op {op}"
                        );
                    }
                }
            }
        }
        rt.commit(&mut a).unwrap();
        committed_shadow = shadow.clone();
        a.crash(CrashMode::LoseDirty);
        let mut r = PmRt::restore(&mut a).unwrap();
        assert_eq!(r.len(), committed_shadow.len());
        for (n, want) in &committed_shadow {
            assert_eq!(r.load::<Vec<u8>>(&mut a, n).unwrap().as_ref(), Some(want));
        }
    }

    // Whole-table reference definitions of the state `commit` maintains
    // by delta, recomputed from scratch on every call.

    fn naive_index(rt: &PmRt) -> BTreeMap<u64, Arc<str>> {
        rt.committed.iter().map(|(n, e)| (e.record_off(), n.clone())).collect()
    }

    fn naive_oldest_relocatable(rt: &PmRt) -> Option<Arc<str>> {
        let by_rec: BTreeMap<u64, &Arc<str>> = rt
            .committed
            .iter()
            .filter(|(n, e)| rt.table.get(*n) == Some(*e))
            .map(|(n, e)| (e.record_off(), n))
            .collect();
        rt.heap.ring_live().find_map(|off| by_rec.get(&off).map(|n| (*n).clone()))
    }

    fn naive_wear_victim(rt: &PmRt, arena: &NvbmArena) -> Option<(u32, Arc<str>)> {
        let mut best: Option<(u32, Arc<str>)> = None;
        for (name, e) in &rt.committed {
            if rt.table.get(name) != Some(e) {
                continue;
            }
            let w = arena.stats.block_wear(e.record_off());
            if best.as_ref().is_none_or(|(bw, _)| w > *bw) {
                best = Some((w, name.clone()));
            }
        }
        best
    }

    /// Differential test of the delta-maintained commit state: under
    /// random stage/unregister/revert/commit/pin/unpin interleavings the
    /// GC victims equal the whole-table definitions at every step, and
    /// after every commit the committed view equals the staged one and
    /// the reverse index equals one recomputed from scratch. A shadow
    /// model checks the values themselves, through a final crash.
    #[test]
    fn delta_commit_state_matches_whole_table_references() {
        for seed in [0x1234_5678_9abc_def0u64, 7] {
            let mut a = arena();
            let mut rt = PmRt::create(&mut a).unwrap();
            let mut shadow: BTreeMap<String, Vec<u8>> = BTreeMap::new();
            let mut committed_shadow = shadow.clone();
            // Names staged or unregistered since the last commit.
            let mut dirty: BTreeSet<String> = BTreeSet::new();
            let mut pins = Vec::new();
            let mut relocated = false;
            let mut step = lcg(seed);
            for op in 0..1000 {
                let tenant = format!("t{}/", step() % 4);
                let name = format!("{tenant}r{}", step() % 5);
                match step() % 16 {
                    0..=7 => {
                        let len = step() % 200;
                        let payload: Vec<u8> = (0..len).map(|i| (i + op) as u8).collect();
                        rt.stage(&mut a, &name, &payload).unwrap();
                        shadow.insert(name.clone(), payload);
                        dirty.insert(name);
                    }
                    8..=9 => {
                        let existed = shadow.remove(&name).is_some();
                        assert_eq!(rt.unregister(&name), existed);
                        if existed {
                            dirty.insert(name);
                        }
                    }
                    10 => {
                        let want = dirty.iter().filter(|n| n.starts_with(&tenant)).count();
                        assert_eq!(rt.revert_staged_prefix(&tenant), want, "op {op}");
                        dirty.retain(|n| !n.starts_with(&tenant));
                        shadow.retain(|n, _| !n.starts_with(&tenant));
                        let kept = committed_shadow.iter().filter(|(n, _)| n.starts_with(&tenant));
                        shadow.extend(kept.map(|(n, v)| (n.clone(), v.clone())));
                    }
                    11 => pins.push(rt.snapshot(&mut a)),
                    12 => drop(pins.pop()),
                    _ => {
                        let before = a.stats.relocations();
                        rt.commit(&mut a).unwrap();
                        relocated |= a.stats.relocations() > before;
                        committed_shadow = shadow.clone();
                        dirty.clear();
                        assert_eq!(rt.committed, rt.table, "seed {seed:#x} op {op}");
                        assert_eq!(rt.committed_at, naive_index(&rt), "seed {seed:#x} op {op}");
                    }
                }
                assert_eq!(rt.oldest_relocatable(), naive_oldest_relocatable(&rt), "op {op}");
                assert_eq!(rt.wear_victim(&a), naive_wear_victim(&rt, &a), "op {op}");
                let names: Vec<&str> = rt.names().collect();
                assert_eq!(names, shadow.keys().map(String::as_str).collect::<Vec<_>>());
            }
            assert!(relocated, "the interleaving must exercise the GC victims");
            drop(pins);
            rt.commit(&mut a).unwrap();
            a.crash(CrashMode::LoseDirty);
            let mut r = PmRt::restore(&mut a).unwrap();
            assert_eq!(r.committed, r.table);
            assert_eq!(r.committed_at, naive_index(&r), "restore reseeds the reverse index");
            assert_eq!(r.len(), shadow.len());
            for (n, want) in &shadow {
                assert_eq!(r.load::<Vec<u8>>(&mut a, n).unwrap().as_ref(), Some(want));
            }
        }
    }

    #[test]
    fn revert_staged_prefix_restores_committed_view() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "t1/x", &1u64).unwrap();
        rt.stage(&mut a, "t2/y", &10u64).unwrap();
        rt.commit(&mut a).unwrap();
        // Tenant t1 stages a rewrite, a new root, and a removal; t2 also
        // stages. Reverting t1 must not disturb t2's staged write.
        rt.stage(&mut a, "t1/x", &2u64).unwrap();
        rt.stage(&mut a, "t1/z", &3u64).unwrap();
        rt.stage(&mut a, "t2/y", &20u64).unwrap();
        assert_eq!(rt.revert_staged_prefix("t1/"), 2);
        assert_eq!(rt.load::<u64>(&mut a, "t1/x").unwrap(), Some(1));
        assert_eq!(rt.load::<u64>(&mut a, "t1/z").unwrap(), None);
        assert_eq!(rt.load::<u64>(&mut a, "t2/y").unwrap(), Some(20));
        rt.commit(&mut a).unwrap();
        a.crash(CrashMode::LoseDirty);
        let mut r = PmRt::restore(&mut a).unwrap();
        assert_eq!(r.load::<u64>(&mut a, "t1/x").unwrap(), Some(1));
        assert_eq!(r.load::<u64>(&mut a, "t1/z").unwrap(), None);
        assert_eq!(r.load::<u64>(&mut a, "t2/y").unwrap(), Some(20));
    }

    #[test]
    fn revert_after_unregister_reinstates_root() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "t/x", &5u64).unwrap();
        rt.commit(&mut a).unwrap();
        rt.stage(&mut a, "t/x", &6u64).unwrap();
        assert!(rt.unregister("t/x"));
        assert_eq!(rt.revert_staged_prefix("t/"), 1);
        assert_eq!(rt.load::<u64>(&mut a, "t/x").unwrap(), Some(5));
        rt.commit(&mut a).unwrap();
        let mut r = PmRt::restore(&mut a).unwrap();
        assert_eq!(r.load::<u64>(&mut a, "t/x").unwrap(), Some(5));
    }

    #[test]
    fn prefix_usage_tracks_staged_view() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        assert_eq!(rt.prefix_usage("t/"), 0);
        rt.stage(&mut a, "t/x", &vec![0u8; 100]).unwrap();
        let one = rt.prefix_usage("t/");
        assert!(one >= 100);
        rt.stage(&mut a, "t/y", &vec![0u8; 100]).unwrap();
        assert!(rt.prefix_usage("t/") > one);
        rt.unregister("t/y");
        assert_eq!(rt.prefix_usage("t/"), one);
        assert_eq!(rt.prefix_usage("u/"), 0);
    }

    #[test]
    fn pptr_is_stable_across_restore() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        let p = rt.stage(&mut a, "x", &77u64).unwrap();
        rt.commit(&mut a).unwrap();
        a.crash(CrashMode::LoseDirty);
        let mut r = PmRt::restore(&mut a).unwrap();
        let q: PPtr<u64> = r.resolve("x").expect("swizzled pointer");
        assert_eq!(p, q, "offsets are arena-relative, nothing to fix up");
        assert_eq!(r.load_ptr(&mut a, q).unwrap(), 77);
    }

    #[test]
    fn destroy_clears_registry() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "x", &5u64).unwrap();
        rt.commit(&mut a).unwrap();
        PmRt::destroy(&mut a);
        assert!(matches!(PmRt::restore(&mut a), Err(PmError::NotFound(_))));
    }
}
