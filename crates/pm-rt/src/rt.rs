//! The runtime: named persistent roots, `PPtr<T>`, log-structured commit.
//!
//! Since the log-structured region rework, a commit no longer rewrites
//! the whole object table: it appends one checksummed **commit record**
//! (a table *delta* plus a pointer to the previous commit record) to the
//! circular log the blobs themselves live in, and publishes it through
//! the arena's one sealed header record — the octree's too. Every
//! [`CHECKPOINT_EVERY`] commits a full-table checkpoint record cuts the
//! chain so recovery walks a bounded number of records.
//!
//! Every verb, and the codec under it, reports the workspace [`PmError`]
//! taxonomy. The oldest live record — compaction's first candidate — is
//! the first of the heap's ring order.

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::ops::Bound;
use std::sync::Arc;

use pmoctree_nvbm::PmError;
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
/// relocating the oldest blobs (below it, one rotation per commit suffices).
pub const COMPACT_WATERMARK: f64 = 0.5;

/// Upper bound on blobs the compaction pass relocates per commit.
const MAX_COMPACT: usize = 8;

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

/// A name-ordered root map. Every view holding a root (staged table,
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
/// chain named by the arena's commit record (its `rt_root`).
///
/// Two views of the registry coexist: the **staged** table (what the next
/// commit will publish) and the **committed** view (what the current
/// `rt_root` names): the staged table with `staged_origin` laid over it.
/// MVCC [`Snapshot`](crate::mvcc::Snapshot) handles pin
/// the committed view at an epoch: blobs a later commit supersedes are
/// *deferred*, not freed, until no snapshot older than their retirement
/// epoch remains (see [`PmRt::collect`]) — a pinned blob is never
/// relocated out from under its readers, because relocation writes a
/// *new* copy and retires the old one through exactly this deferral.
pub struct PmRt {
    /// Staged view: name → entry as of the next commit.
    table: NameMap<Entry>,
    /// Reverse index of the committed view: blob record offset → name.
    /// Advances at commit by applying `staged_origin`; volatile, so
    /// restore reseeds it from the table the chain walk rebuilds.
    committed_at: BTreeMap<u64, Arc<str>>,
    pub(crate) heap: LogHeap,
    epoch: u64,
    /// Superseded committed blobs as `(e, record offset)`, stamped with
    /// the epoch `e` of the commit that retires them: reachable from every
    /// table version older than `e`, so freed by [`PmRt::collect`] once `e`
    /// is committed and no pin older than `e` remains. Stamps past the
    /// committed epoch are this window's, always the list's tail.
    pub(crate) retired: Vec<(u64, u64)>,
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
    /// Roots the running commit's wear and compaction passes relocated:
    /// a commit that fails reverts them, so it leaves the staged window
    /// as it found it.
    relocated: Vec<Arc<str>>,
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
            committed_at: BTreeMap::new(),
            heap: LogHeap::new(limit, top),
            epoch: 0,
            retired: Vec::new(),
            chain: Vec::new(),
            staged: Vec::new(),
            staged_origin: BTreeMap::new(),
            relocated: Vec::new(),
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
    /// the arena's commit record (every record checksum-validated), replay
    /// the deltas oldest→newest, validate ("swizzle") every surviving
    /// entry against the arena, and re-seat the ring around the live
    /// records. Fails with [`PmError::NotFound`] if no chain was ever
    /// committed.
    pub fn restore(arena: &mut NvbmArena) -> Result<Self, PmError> {
        let _s = arena.span("rt::swizzle");
        let record = arena.committed();
        let root = record.rt_root;
        if root.is_null() {
            return Err(PmError::NotFound("no committed rt commit chain".into()));
        }
        let top = arena.rt_heap_top();
        // Chain walk, newest → oldest. Torn appends past the last durable
        // publication are simply never reached: the chain only names
        // records that were flushed before their publication.
        let mut walked: Vec<(u64, CommitPayload, usize)> = Vec::new();
        let mut off = root.0;
        let mut newer_epoch = u64::MAX;
        loop {
            let (payload, size) = read_commit_record(arena, off, top)?;
            let rec = parse_commit_payload(&payload)?;
            if rec.epoch >= newer_epoch {
                return Err(PmError::Corrupt(format!(
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
                return Err(PmError::Corrupt(format!("commit chain longer than {MAX_CHAIN}")));
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
            checked_len(arena, e.off, e.len)
                .map_err(|err| PmError::Corrupt(format!("root {name:?}: {err}")))?;
        }
        arena.failpoint("rt::swizzle");

        let limit = arena.live_bump().max(HEADER_SIZE);
        let live = table
            .values()
            .map(|e| (POffset(e.record_off()), e.footprint() as u64))
            .chain(walked.iter().map(|(o, _, size)| (POffset(*o), *size as u64)));
        let heap = LogHeap::rebuild(limit, top, record.rt_floor, live)?;
        arena.publish_rt_floor(heap.floor());
        let chain: Vec<u64> = walked.iter().rev().map(|(o, _, _)| *o).collect();
        Ok(PmRt {
            committed_at: table.iter().map(|(n, e)| (e.record_off(), n.clone())).collect(),
            table,
            heap,
            epoch,
            retired: Vec::new(),
            chain,
            staged: Vec::new(),
            staged_origin: BTreeMap::new(),
            relocated: Vec::new(),
        })
    }

    /// `pm_delete` for the runtime: publish a commit record without a
    /// runtime (log space is reclaimed implicitly, nothing is scrubbed).
    /// Outstanding MVCC snapshots are invalidated — their epochs no longer
    /// exist.
    pub fn destroy(arena: &mut NvbmArena) {
        arena.next.rt_root = POffset::NULL;
        arena.next.rt_floor = 0;
        arena.publish();
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
    ) -> Result<(u64, usize), PmError> {
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
    ) -> Result<Entry, PmError> {
        let len = u32::try_from(payload.len())
            .map_err(|_| PmError::Full(format!("object {name:?} over 4 GiB")))?;
        let blob_len = OBJ_HEADER + payload.len();
        let mut blob = Vec::with_capacity(blob_len);
        let mut w = ByteWriter::new(&mut blob);
        w.u32(OBJ_MAGIC);
        w.u32(len);
        blob.extend_from_slice(payload);
        // Staged-only: touched in this window, and not its origin.
        if let Some(&origin) = self.staged_origin.get(name) {
            match self.table.get_mut(name) {
                Some(cur) if origin != Some(*cur) && cur.footprint() == record_size(blob.len()) => {
                    let seq = self.heap.next_seq();
                    arena.write(cur.record_off(), &encode_record(seq, RecordKind::Blob, &blob));
                    cur.len = len;
                    return Ok(*cur);
                }
                _ => {}
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
        T::from_bytes(&read_blob(arena, ptr.off, ptr.len)?)
    }

    /// Unregister a named root. A committed blob is reclaimed after the
    /// next commit (or deferred while snapshots pin it); a blob staged in
    /// this window is reclaimed immediately. Returns whether the name
    /// existed.
    pub fn unregister(&mut self, name: &str) -> bool {
        let Some(&e) = self.table.get(name) else { return false };
        self.note_origin(name);
        self.table.remove(name);
        self.supersede(name, e);
        true
    }

    /// Record the committed-time entry for `name` on its first
    /// modification in this commit window, before the staged entry moves.
    /// Returns the shared name key (the table's allocation when the root
    /// already exists).
    fn note_origin(&mut self, name: &str) -> Arc<str> {
        if let Some((key, _)) = self.staged_origin.get_key_value(name) {
            return key.clone();
        }
        let (key, origin) = match self.table.get_key_value(name) {
            Some((key, e)) => (key.clone(), Some(*e)),
            None => (Arc::from(name), None),
        };
        self.staged_origin.insert(key.clone(), origin);
        key
    }

    /// A staged or committed blob under `name`, whose origin is noted,
    /// was replaced or removed: it is committed iff it is the origin.
    /// Committed blobs retire (snapshot readers may still need them);
    /// blobs staged in this window were never snapshot-visible and die on
    /// the spot, their space free for the next append that reaches it.
    fn supersede(&mut self, name: &str, old: Entry) {
        if self.staged_origin.get(name) == Some(&Some(old)) {
            self.retired.push((self.epoch + 1, old.record_off()));
        } else {
            self.heap.mark_dead(old.record_off());
        }
    }

    /// `pm_persistent` for the runtime: append one commit record (a table
    /// delta chained to the previous commit, or a full checkpoint every
    /// [`CHECKPOINT_EVERY`] commits), flush everything staged, and write
    /// the record and the ring floor into the arena's next commit record
    /// and publish it ([`NvbmArena::publish`]) — the octree's commit point
    /// too: inside pm-octree's `PmOctree::persist_with_hook`
    /// that one publication names the new tree as well. Fires the
    /// `rt::commit` failpoint. The wear-leveling and compaction passes
    /// run first (failpoints `wear::relocate` / `heap::compact`), and the
    /// record append fires `heap::append`. Returns the regions written
    /// since the previous commit (blobs, pads, the commit record), for
    /// replica delta shipping.
    ///
    /// Blobs the new commit supersedes are reclaimed immediately when no
    /// MVCC snapshot pins an older epoch, and deferred to
    /// [`PmRt::collect`] otherwise.
    ///
    /// A commit that fails (a full ring: [`PmError::Full`]) publishes
    /// nothing and changes nothing the API shows: the epoch stays, and
    /// the blobs its passes relocated go back to their committed records.
    pub fn commit(&mut self, arena: &mut NvbmArena) -> Result<Vec<(u64, u32)>, PmError> {
        // Committed bytes (commit record, flushed staged blobs) are
        // charged to the `rt::commit` phase; restore the caller's phase on
        // every exit, including errors.
        let prev_phase = arena.set_phase("rt::commit");
        let r = self.commit_inner(arena);
        if r.is_err() {
            for name in std::mem::take(&mut self.relocated) {
                if let Some((name, origin)) = self.staged_origin.remove_entry(&name) {
                    self.reinstate(name, origin);
                }
            }
        }
        self.relocated.clear();
        arena.set_phase(prev_phase);
        r
    }

    fn commit_inner(&mut self, arena: &mut NvbmArena) -> Result<Vec<(u64, u32)>, PmError> {
        let _s = arena.span("rt::commit");
        self.wear_pass(arena)?;
        self.compact_pass(arena)?;
        let epoch = self.epoch + 1;
        // Checkpoint on schedule. Old chain records left behind by the
        // cut are dead islands the next-fit allocator walks over, so a
        // wrapped log needs no early cut — the delta chain keeps paying
        // off in steady state.
        let checkpoint = self.chain.is_empty() || self.chain.len() >= CHECKPOINT_EVERY;
        let prev = if checkpoint { 0 } else { *self.chain.last().expect("chain non-empty") };
        let payload = self.build_commit_payload(epoch, checkpoint, prev);
        arena.failpoint("heap::append");
        let (rec_off, size) = self.append_record(arena, RecordKind::Commit, &payload)?;
        self.epoch = epoch;
        self.staged.push((rec_off, size as u32));
        // Destination matters: the record and blobs must be on media
        // before anything names them.
        arena.flush_all();
        arena.next.rt_root = POffset(rec_off);
        arena.next.rt_floor = self.heap.floor();
        arena.publish(); // THE commit point: one sealed header line
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
        self.collect_inner(arena.rt_pins().min_pinned());
        // The staged table is now the committed view: advance its reverse
        // index by exactly the names this window touched.
        for (name, origin) in std::mem::take(&mut self.staged_origin) {
            if let Some(old) = origin {
                self.committed_at.remove(&old.record_off());
            }
            if let Some(e) = self.table.get(&name) {
                self.committed_at.insert(e.record_off(), name);
            }
        }
        arena.publish_rt_floor(self.heap.floor());
        Ok(std::mem::take(&mut self.staged))
    }

    /// Serialize the commit record payload: epoch, previous-record
    /// pointer, then either the full table (checkpoint) or the delta the
    /// staged window produced.
    fn build_commit_payload(&self, epoch: u64, checkpoint: bool, prev: u64) -> Vec<u8> {
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
        w.u64(epoch);
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
    fn wear_pass(&mut self, arena: &mut NvbmArena) -> Result<(), PmError> {
        let _s = arena.span("wear::relocate");
        arena.failpoint("wear::relocate");
        if let Some((w, name)) = self.wear_victim(arena) {
            if w > 0 {
                match self.relocate(arena, name) {
                    // A full ring just means no headroom to level into;
                    // the commit itself must not fail over optional GC.
                    Err(PmError::Full(_)) => {}
                    other => other?,
                }
            }
        }
        Ok(())
    }

    /// The committed, un-restaged blob on the hottest block (first in
    /// name order among equals) and that block's wear. A name this window
    /// touched is skipped: its old blob retires anyway.
    fn wear_victim(&self, arena: &NvbmArena) -> Option<(u32, Arc<str>)> {
        let mut best: Option<(u32, &Arc<str>)> = None;
        for (name, e) in self.untouched("") {
            let w = arena.stats.block_wear(e.record_off());
            if best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, name));
            }
        }
        best.map(|(w, name)| (w, name.clone()))
    }

    /// Compaction pass: rotate the ring by relocating the oldest
    /// committed, un-restaged blob to the head (opening up the space
    /// around it), and keep going while occupancy stays above
    /// [`COMPACT_WATERMARK`], up to [`MAX_COMPACT`] blobs.
    fn compact_pass(&mut self, arena: &mut NvbmArena) -> Result<(), PmError> {
        let _s = arena.span("heap::compact");
        arena.failpoint("heap::compact");
        let mut moved = 0usize;
        while moved < MAX_COMPACT {
            if moved > 0 && self.heap.occupancy() < COMPACT_WATERMARK {
                break;
            }
            let Some(name) = self.oldest_relocatable() else { break };
            match self.relocate(arena, name) {
                Err(PmError::Full(_)) => break,
                other => other?,
            }
            moved += 1;
        }
        Ok(())
    }

    /// The oldest committed, un-restaged blob in ring order, if any.
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
    fn relocate(&mut self, arena: &mut NvbmArena, name: Arc<str>) -> Result<(), PmError> {
        let Some(&e) = self.table.get(&name) else {
            return Ok(());
        };
        let payload = read_blob(arena, e.off, e.len)?;
        let old_rec = e.record_off();
        self.stage_bytes(arena, &name, &payload)?;
        self.relocated.push(name);
        arena.stats.note_relocation(old_rec, e.footprint());
        Ok(())
    }

    /// GC pass over retired blobs: reclaim every record whose retirement
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
    /// pin `s < e` remains — i.e. `min_pinned` is absent or `e <= min` —
    /// and the commit stamped `e` has happened.
    fn collect_inner(&mut self, min_pinned: Option<u64>) -> usize {
        let mut freed = 0;
        for (e, off) in std::mem::take(&mut self.retired) {
            if e <= self.epoch && min_pinned.is_none_or(|m| e <= m) {
                self.heap.mark_dead(off);
                freed += 1;
            } else {
                self.retired.push((e, off));
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
        let n = reverted.len();
        for (name, origin) in reverted {
            self.staged_origin.remove(&name);
            self.reinstate(name, origin);
        }
        n
    }

    /// Undo `name`'s staged modification, its journal entry already
    /// taken: reinstate the committed-time entry `origin`, reclaim the
    /// record staged under the name (unless it is that committed blob),
    /// and cancel the pending retirement — the committed blob is
    /// reachable again.
    fn reinstate(&mut self, name: Arc<str>, origin: Option<Entry>) {
        let staged = match origin {
            Some(e) => self.table.insert(name, e),
            None => self.table.remove(&name),
        };
        if let Some(cur) = staged.filter(|cur| Some(*cur) != origin) {
            self.heap.mark_dead(cur.record_off());
        }
        let pending = origin.map(|e| (self.epoch + 1, e.record_off()));
        if let Some(i) = self.retired.iter().position(|&r| Some(r) == pending) {
            self.retired.swap_remove(i);
        }
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

    /// Committed entries whose name starts with `prefix`, keyed by the
    /// rest of the name (what an MVCC snapshot captures): the staged
    /// prefix range with this window's origins laid over it.
    pub(crate) fn committed_with_prefix(&self, prefix: &str) -> BTreeMap<String, Entry> {
        let untouched = self.untouched(prefix).map(|(n, e)| (n, *e));
        let origins =
            prefix_range(&self.staged_origin, prefix).filter_map(|(n, o)| Some((n, (*o)?)));
        untouched.chain(origins).map(|(n, e)| (n[prefix.len()..].to_string(), e)).collect()
    }

    /// The staged entries under `prefix` that this window did not touch,
    /// in name order: the committed entries the two views share. Both
    /// maps are name-ordered, so one lockstep pass skips the touched
    /// names without a search per root.
    fn untouched<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a Arc<str>, &'a Entry)> {
        let mut touched = prefix_range(&self.staged_origin, prefix).map(|(n, _)| n).peekable();
        prefix_range(&self.table, prefix).filter(move |(n, _)| {
            while touched.next_if(|t| t < n).is_some() {}
            touched.peek() != Some(n)
        })
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
    /// watermark input, reported as the `pm-rt.log_occupancy` metric.
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
) -> Result<(Vec<u8>, usize), PmError> {
    let hdr_end = off.checked_add(REC_HEADER as u64).ok_or_else(|| {
        PmError::Corrupt(format!("commit record at {off:#x} wraps the address space"))
    })?;
    if off < HEADER_SIZE || hdr_end > top {
        return Err(PmError::Corrupt(format!(
            "commit record header at {off:#x} outside the rt region"
        )));
    }
    let mut h = [0u8; REC_HEADER];
    arena.read(off, &mut h);
    let header = parse_header(&h).map_err(|magic| {
        PmError::Corrupt(format!("bad log record magic {magic:#x} at {off:#x}"))
    })?;
    match header.kind {
        Some(RecordKind::Commit) => {}
        k => {
            return Err(PmError::Corrupt(format!(
                "record at {off:#x} is {k:?}, expected a commit record"
            )))
        }
    }
    let size = record_size(header.len);
    if off.checked_add(size as u64).is_none_or(|end| end > top) {
        return Err(PmError::Corrupt(format!(
            "commit record at {off:#x} ({size} bytes) past the rt region top {top:#x}"
        )));
    }
    // Header, payload and trailer side by side, as the checksum covers them.
    let mut rec = vec![0u8; header.unpadded_size()];
    rec[..REC_HEADER].copy_from_slice(&h);
    arena.read(off + REC_HEADER as u64, &mut rec[REC_HEADER..]);
    if !checksum_ok(&rec) {
        return Err(PmError::Corrupt(format!("commit record checksum mismatch at {off:#x}")));
    }
    rec.drain(..REC_HEADER);
    rec.truncate(header.len);
    Ok((rec, size))
}

/// Parse a commit record payload (bounds-checked; duplicate names within
/// one record are corruption).
fn parse_commit_payload(payload: &[u8]) -> Result<CommitPayload, PmError> {
    let mut r = ByteReader::new(payload);
    let epoch = r.u64()?;
    let prev = r.u64()?;
    let nup = r.u64()?;
    let nrm = r.u64()?;
    let mut seen: BTreeSet<Arc<str>> = BTreeSet::new();
    let mut fresh_name = |r: &mut ByteReader<'_>| {
        let name: Arc<str> = String::decode(r)?.into();
        if !seen.insert(name.clone()) {
            return Err(PmError::Corrupt(format!("duplicate root name {name:?} in commit record")));
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
        return Err(PmError::Corrupt("trailing bytes after commit record payload".into()));
    }
    Ok(CommitPayload { epoch, prev, upserts, removes })
}

/// The payload length of the object blob at `off`, checked against the
/// `want` its table entry or pointer names: the blob lies inside the rt
/// heap, and its header carries the object magic and that length. One
/// 8-byte header read — all the swizzle reads, and the first half of
/// every payload read. The adds are checked: a corrupted root near
/// `u64::MAX` must report, not wrap past the bound and panic inside the
/// arena read.
fn checked_len(arena: &mut NvbmArena, off: u64, want: u32) -> Result<usize, PmError> {
    let end = off.checked_add(OBJ_HEADER as u64 + u64::from(want));
    if off < HEADER_SIZE || end.is_none_or(|end| end > arena.rt_heap_top()) {
        return Err(PmError::Corrupt(format!("{want}-byte blob at {off:#x} outside the rt heap")));
    }
    let mut h = [0u8; OBJ_HEADER];
    arena.read(off, &mut h);
    let [m0, m1, m2, m3, l0, l1, l2, l3] = h;
    let magic = u32::from_le_bytes([m0, m1, m2, m3]);
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if magic != OBJ_MAGIC {
        return Err(PmError::Corrupt(format!("bad object magic {magic:#x} at {off:#x}")));
    }
    if len != want {
        return Err(PmError::Corrupt(format!(
            "length mismatch at {off:#x}: blob says {len}, table says {want}"
        )));
    }
    Ok(len as usize)
}

/// Read the payload of the object blob at `off`, whose table entry or
/// pointer names `len` bytes.
pub(crate) fn read_blob(arena: &mut NvbmArena, off: u64, len: u32) -> Result<Vec<u8>, PmError> {
    let mut payload = vec![0u8; checked_len(arena, off, len)?];
    arena.read(off + OBJ_HEADER as u64, &mut payload);
    Ok(payload)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pmoctree_nvbm::{CrashMode, DeviceModel, FailPlan};

    fn arena() -> NvbmArena {
        NvbmArena::new(1 << 20, DeviceModel::default())
    }

    /// Publish a sealed commit record whose `rt_root` is `p`.
    fn publish_rt_root(a: &mut NvbmArena, p: POffset) {
        a.next.rt_root = p;
        a.publish();
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
        // A valid record pointing into the weeds.
        let end = a.capacity() as u64;
        publish_rt_root(&mut a, POffset(end - 8));
        assert!(matches!(PmRt::restore(&mut a), Err(PmError::Corrupt(_))));
        publish_rt_root(&mut a, POffset(HEADER_SIZE));
        assert!(PmRt::restore(&mut a).is_err());
    }

    #[test]
    fn corrupt_root_near_u64_max_is_err_not_panic() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "x", &5u64).unwrap();
        rt.commit(&mut a).unwrap();
        // A sealed record naming a chain near u64::MAX: the bound check
        // must not wrap around and panic inside the arena read.
        publish_rt_root(&mut a, POffset(u64::MAX - 4));
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
        publish_rt_root(&mut a, POffset(p.offset() - REC_HEADER as u64));
        assert!(matches!(PmRt::restore(&mut a), Err(PmError::Corrupt(_))));
    }

    #[test]
    fn octree_bump_cannot_cross_committed_rt_blobs() {
        use pm_octree::{CellData, Octant, PmConfig, PmOctree, OCTANT_SIZE};
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
        assert!(matches!(r.stage(&mut t.store.arena, "big", &big), Err(PmError::Full(_))));
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
            Err(PmError::Full(m)) => assert!(m.contains("cross"), "wrong full cause: {m}"),
            other => panic!("expected Full(cross), got {other:?}"),
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
        // fresh space: the ring head wraps over dead records' space, so the
        // window stays within a few growth chunks of the top (which sits
        // just below the flight-recorder ring).
        assert!(
            a.rt_heap_top() - rt.heap.floor() <= 4096,
            "ring window grew to {} bytes",
            a.rt_heap_top() - rt.heap.floor()
        );
        assert!(rt.heap.laps() > 0, "the ring must actually wrap");
        assert_eq!(rt.retired.len(), 0, "no pins, nothing deferred");
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

    /// A failed commit leaves the staged window as it found it: the epoch
    /// stays, and the blob its wear pass relocated goes back to its
    /// committed record, so a revert counts only what the caller staged.
    /// (The model's filling streams fail their commits on rings too full
    /// for any relocation; this is the case between.)
    #[test]
    fn a_failed_commit_reverts_its_relocations() {
        let mut a = NvbmArena::new(64 << 10, DeviceModel::default());
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "cold", &vec![1u8; 8]).unwrap();
        rt.commit(&mut a).unwrap();
        let cold = rt.resolve::<Vec<u8>>("cold");
        // A long name makes the commit record far larger than the blob the
        // wear pass relocates, and an octree bump at the ring floor keeps
        // the ring from growing to fit it.
        let long = "n".repeat(4000);
        rt.stage(&mut a, &long, &0u64).unwrap();
        a.publish_bump(rt.heap.floor());
        let (epoch, relocations) = (rt.epoch(), a.stats.relocations());
        assert!(matches!(rt.commit(&mut a), Err(PmError::Full(_))));
        assert_eq!(a.stats.relocations(), relocations + 1, "the wear pass relocated first");
        assert_eq!(rt.epoch(), epoch);
        assert_eq!(rt.resolve::<Vec<u8>>("cold"), cold);
        assert_eq!(rt.revert_staged_prefix(""), 1, "only the long name was staged");
    }

    /// Deterministic LCG behind the random-interleaving tests.
    fn lcg(mut rng: u64) -> impl FnMut() -> usize {
        move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        }
    }

    // Whole-table reference definitions of the state `commit` maintains
    // by delta, recomputed from scratch on every call over the derived
    // committed view.

    fn committed(rt: &PmRt) -> NameMap<Entry> {
        rt.committed_with_prefix("").into_iter().map(|(n, e)| (Arc::from(n), e)).collect()
    }

    fn naive_index(rt: &PmRt) -> BTreeMap<u64, Arc<str>> {
        committed(rt).into_iter().map(|(n, e)| (e.record_off(), n)).collect()
    }

    fn naive_oldest_relocatable(rt: &PmRt) -> Option<Arc<str>> {
        let committed = committed(rt);
        let by_rec: BTreeMap<u64, &Arc<str>> = committed
            .iter()
            .filter(|(n, e)| rt.table.get(*n) == Some(*e))
            .map(|(n, e)| (e.record_off(), n))
            .collect();
        rt.heap.ring_live().find_map(|off| by_rec.get(&off).map(|n| (*n).clone()))
    }

    fn naive_wear_victim(rt: &PmRt, arena: &NvbmArena) -> Option<(u32, Arc<str>)> {
        let mut best: Option<(u32, Arc<str>)> = None;
        for (name, e) in &committed(rt) {
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
    /// after every commit (and a restore) the committed view equals the
    /// staged one and the reverse index equals one recomputed from
    /// scratch. The values themselves are the model's (`tests/model.rs`).
    #[test]
    fn delta_commit_state_matches_whole_table_references() {
        for seed in [0x1234_5678_9abc_def0u64, 7] {
            let mut a = arena();
            let mut rt = PmRt::create(&mut a).unwrap();
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
                    }
                    8..=9 => {
                        rt.unregister(&name);
                    }
                    10 => {
                        rt.revert_staged_prefix(&tenant);
                    }
                    11 => pins.push(rt.snapshot(&mut a)),
                    12 => drop(pins.pop()),
                    _ => {
                        let before = a.stats.relocations();
                        rt.commit(&mut a).unwrap();
                        relocated |= a.stats.relocations() > before;
                        assert_eq!(committed(&rt), rt.table, "seed {seed:#x} op {op}");
                        assert_eq!(rt.committed_at, naive_index(&rt), "seed {seed:#x} op {op}");
                    }
                }
                assert_eq!(rt.oldest_relocatable(), naive_oldest_relocatable(&rt), "op {op}");
                assert_eq!(rt.wear_victim(&a), naive_wear_victim(&rt, &a), "op {op}");
            }
            assert!(relocated, "the interleaving must exercise the GC victims");
            drop(pins);
            rt.commit(&mut a).unwrap();
            a.crash(CrashMode::LoseDirty);
            let r = PmRt::restore(&mut a).unwrap();
            assert_eq!(committed(&r), r.table);
            assert_eq!(r.committed_at, naive_index(&r), "restore reseeds the reverse index");
        }
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
