//! The emulated NVBM device: a byte-addressable arena with a CPU-cache
//! write-back model.
//!
//! Stores go into a bounded *dirty-line cache* first and only reach the
//! persistent media when flushed, evicted, or explicitly persisted — this
//! reproduces the hazard the paper describes in §1: "CPU cache does not
//! guarantee the order of writing the octant and writing the pointer".
//! [`NvbmArena::crash`] drops (or randomly commits) dirty lines, letting
//! tests check that PM-octree's multi-version protocol survives arbitrary
//! write reordering without fences.
//!
//! Every access charges the Table 2 latency model onto a [`VirtualClock`]
//! and updates [`MemStats`].

use std::path::Path;

use crate::clock::VirtualClock;
use crate::failplan::FailPlan;
use crate::lines::LineTable;
use crate::media::SparseMedia;
use crate::model::{DeviceModel, CACHELINE};
use crate::pins::EpochPins;
use crate::recorder::{self, RecKind, RecorderDump, OFF_REC_BASE, OFF_REC_SLOTS};
use crate::stats::MemStats;
use pmoctree_obsv::{Span, Tracer};

/// Persistent offset within an NVBM arena. Offset 0 is the device header,
/// so 0 doubles as the null pointer in on-media structures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct POffset(pub u64);

impl POffset {
    /// The on-media null pointer.
    pub const NULL: POffset = POffset(0);

    /// Is this the null pointer?
    #[inline]
    pub fn is_null(&self) -> bool {
        self.0 == 0
    }

    /// Convert to `Option`, mapping null to `None`.
    #[inline]
    pub fn opt(self) -> Option<POffset> {
        if self.is_null() {
            None
        } else {
            Some(self)
        }
    }
}

/// How a simulated crash treats the dirty-line cache.
#[derive(Clone, Copy, Debug)]
pub enum CrashMode {
    /// All unflushed lines are lost (power cut before any eviction).
    LoseDirty,
    /// Each dirty line independently reaches the media with probability
    /// `p` — models arbitrary cache eviction order at the moment of
    /// failure. `seed` makes the outcome reproducible.
    CommitRandom {
        /// Per-line survival probability in `[0, 1]`.
        p: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Torn cacheline write-back: each dirty line commits a random
    /// *prefix* of its 64 bytes — the line was mid-transfer when power
    /// failed. Prefix lengths are 8-byte-aligned (0..=64 in steps of 8)
    /// because the platform guarantees atomic persistence of aligned
    /// 8-byte stores; anything wider can tear. `seed` makes the outcome
    /// reproducible.
    TornWrite {
        /// RNG seed.
        seed: u64,
    },
}

/// Apply a crash to `media`: commit (part of) the dirty lines according to
/// `mode`. Shared by [`NvbmArena::crash`] (which destroys the cache, on the
/// live media) and [`CrashView::image`](crate::failplan::CrashView::image)
/// (which builds a virtual snapshot while the run continues, on a clone).
/// `stats` is charged for wear only when the caller is the live arena.
pub(crate) fn apply_crash(
    media: &mut SparseMedia,
    cache: &LineTable,
    mode: CrashMode,
    mut stats: Option<&mut MemStats>,
) {
    // Small deterministic xorshift so the crate doesn't need a rand
    // dependency on its hot path.
    let mut state = match mode {
        CrashMode::LoseDirty => 0,
        CrashMode::CommitRandom { seed, .. } | CrashMode::TornWrite { seed } => seed | 1,
    };
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    match mode {
        CrashMode::LoseDirty => {}
        CrashMode::CommitRandom { p, .. } => {
            for (line, data) in cache.sorted() {
                let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                if u < p {
                    commit_line_to(media, stats.as_deref_mut(), line, data);
                }
            }
        }
        CrashMode::TornWrite { .. } => {
            for (line, data) in cache.sorted() {
                // Prefix of k words, k uniform in 0..=8.
                let words = (next() % 9) as usize;
                if words == 0 {
                    continue;
                }
                let s = line as usize * CACHELINE;
                let e = (s + words * 8).min(media.size());
                if s >= e {
                    continue;
                }
                media.write_at(s, &data[..e - s]);
                if let Some(st) = stats.as_deref_mut() {
                    st.wear_commit(s as u64, e - s);
                }
            }
        }
    }
}

/// Commit one full cacheline to `media`, charging wear when stats are live.
pub(crate) fn commit_line_to(
    media: &mut SparseMedia,
    stats: Option<&mut MemStats>,
    line: u64,
    data: &[u8; CACHELINE],
) {
    let s = line as usize * CACHELINE;
    let e = (s + CACHELINE).min(media.size());
    media.write_at(s, &data[..e - s]);
    if let Some(st) = stats {
        st.wear_commit(s as u64, e - s);
    }
}

/// Size of the device header: the format line (magic, recorder ring
/// descriptor), then the two commit-record slots.
pub const HEADER_SIZE: u64 = 256;

const MAGIC: u64 = 0x504d_4f43_5452_4545; // "PMOCTREE"-ish
const OFF_MAGIC: u64 = 0;

/// The two commit-record slots, one cacheline each. The record with
/// sequence number `s` lives in slot `s % 2`, so a publication never
/// overwrites the record it supersedes.
const RECORD_AT: [u64; 2] = [64, 128];

/// The one durable publication: everything recovery starts from, sealed
/// in one cacheline. The octree and the `pm-rt` runtime publish through
/// the same record ([`NvbmArena::publish`]), so they commit together or
/// not at all.
///
/// ```text
/// 0..8    seq       publication number (0 = nothing published yet)
/// 8..16   epoch     octree epoch of the published version
/// 16..24  root      octree root of the published version
/// 24..32  bump      octree allocator bump pointer (a hint)
/// 32..40  rt_root   newest pm-rt commit record (0 = none)
/// 40..48  rt_floor  pm-rt heap floor (a hint; 0 = heap never used)
/// 48..60  zero
/// 60..64  checksum  FNV-1a-32 over bytes 0..60
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitRecord {
    /// Publication number, assigned by [`NvbmArena::publish`].
    pub seq: u64,
    /// Octree epoch of the published version: no octant it reaches is
    /// stamped later.
    pub epoch: u64,
    /// Root of the published octree version (null: no tree).
    pub root: POffset,
    /// Octree allocator bump pointer. A hint: recovery clamps it.
    pub bump: u64,
    /// Newest `pm-rt` commit record (null: no runtime).
    pub rt_root: POffset,
    /// Floor of the `pm-rt` heap. A hint: recovery clamps it; 0 means the
    /// heap was never used.
    pub rt_floor: u64,
}

impl CommitRecord {
    fn encode(&self) -> [u8; CACHELINE] {
        let mut line = [0u8; CACHELINE];
        let fields = [self.seq, self.epoch, self.root.0, self.bump, self.rt_root.0, self.rt_floor];
        for (i, v) in fields.into_iter().enumerate() {
            line[8 * i..8 * i + 8].copy_from_slice(&v.to_le_bytes());
        }
        recorder::seal(&mut line);
        line
    }

    /// The record slot `slot` of `media` holds: `None` unless the
    /// line is sealed and its `seq` names that slot. A `seq` in the upper
    /// half of its range is damage — no device publishes 2^63 times — and
    /// refusing it keeps every later `seq + 1` from overflowing.
    fn decode(media: &SparseMedia, slot: usize) -> Option<Self> {
        let off = RECORD_AT[slot] as usize;
        if off + CACHELINE > media.size() {
            return None;
        }
        let mut line = [0u8; CACHELINE];
        media.read_at(off, &mut line);
        if !recorder::is_sealed(&line) {
            return None;
        }
        let f = |i: usize| u64::from_le_bytes(line[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let r = CommitRecord {
            seq: f(0),
            epoch: f(1),
            root: POffset(f(2)),
            bump: f(3),
            rt_root: POffset(f(4)),
            rt_floor: f(5),
        };
        ((1..1 << 63).contains(&r.seq) && r.seq % 2 == slot as u64).then_some(r)
    }

    /// The valid record with the higher `seq` in `media`; the empty record
    /// when neither slot holds one.
    fn newest(media: &SparseMedia) -> Self {
        (0..RECORD_AT.len())
            .filter_map(|slot| Self::decode(media, slot))
            .max_by_key(|r| r.seq)
            .unwrap_or_default()
    }
}

/// Dirty-line cache capacity in lines (256 KiB, an L2-ish footprint).
const CACHE_LINES: usize = 4096;

/// Emulated NVBM arena.
pub struct NvbmArena {
    /// The persistent bytes: chunks materialised by the first commit that
    /// reaches them (see [`crate::media`]).
    media: SparseMedia,
    /// Dirty cachelines (line index → line bytes). Eviction is
    /// deterministic (lowest line first); crash randomness comes from
    /// [`CrashMode`].
    cache: LineTable,
    cache_cap: usize,
    model: DeviceModel,
    /// Virtual clock charged by every access.
    pub clock: VirtualClock,
    /// Access statistics (NVBM tier + caller-recorded DRAM tier).
    pub stats: MemStats,
    /// Tracing journal for this device. Disabled (free) by default;
    /// attach with `arena.tracer = Tracer::enabled(tid)`. Span guards from
    /// [`NvbmArena::span`] stamp begin/end with this arena's [`VirtualClock`].
    pub tracer: Tracer,
    /// Installed crash-opportunity plan (see [`FailPlan`]).
    plan: Option<FailPlan>,
    /// The two live edges between the octree and `pm-rt` regions: the
    /// octree bump-allocates upward in `[HEADER_SIZE, octree_edge)` and
    /// the `pm-rt` heap grows downward in `[rt_floor, rt_heap_top)`. Each
    /// side publishes its edge here and consults the other's before
    /// growing, so neither can silently overwrite committed state the
    /// other owns. Not part of the media: re-derived (conservatively, from
    /// the commit record's hints) on `from_media`/`restore_media`, then
    /// corrected by each subsystem's restore.
    octree_edge: u64,
    rt_floor: u64,
    /// Refcounted pins on `pm-rt` root-table epochs (MVCC snapshot
    /// readers). Volatile: invalidated whenever the media is replaced,
    /// because the pinned epochs belong to the old lineage.
    rt_pins: EpochPins,
    /// Flight-recorder ring base (from the header descriptor; 0 = none).
    rec_base: u64,
    /// Flight-recorder ring capacity in one-cacheline slots (0 = none).
    rec_slots: usize,
    /// Next recorder sequence number (volatile; re-derived from the
    /// recovered ring on `from_media`/`restore_media`).
    rec_next_seq: u64,
    /// Recorder on/off switch (volatile). On by default; benches flip it
    /// off to measure the recorder's virtual-clock overhead.
    rec_enabled: bool,
    /// The record the last [`NvbmArena::publish`] made durable, or the
    /// newest valid one on adopted media: what a crash now recovers.
    committed: CommitRecord,
    /// The record the next [`NvbmArena::publish`] writes. Each publisher
    /// edits its own fields — a persist the octree's, a runtime commit
    /// the `rt_*` ones — and `publish` assigns `seq`. Volatile; equal to
    /// the committed record after every publication.
    pub next: CommitRecord,
}

/// Derive the live allocation boundaries from the media's commit record:
/// the persisted rt-floor hint clamped under the top of the heap (the
/// flight-recorder ring base when one is present, else capacity), and the
/// bump hint clamped under that floor, since octants only ever live below
/// the rt heap. A zero rt hint means the rt heap was never used (floor =
/// top).
fn derive_live_bounds(media: &SparseMedia, record: &CommitRecord) -> (u64, u64) {
    let cap = media.size() as u64;
    let top = match recorder::region_of(media) {
        Some((base, slots)) if slots > 0 => base,
        _ => cap,
    };
    let rt = record.rt_floor;
    let floor = if rt == 0 { top } else { rt.clamp(HEADER_SIZE, top) };
    (record.bump.clamp(HEADER_SIZE, floor), floor)
}

impl NvbmArena {
    /// Create a fresh, zeroed arena of `capacity` bytes with a
    /// default-sized flight-recorder ring (see
    /// [`NvbmArena::default_recorder_slots`]). Host memory grows with the
    /// bytes committed, not with `capacity` (see
    /// [`NvbmArena::resident_bytes`]).
    pub fn new(capacity: usize, model: DeviceModel) -> Self {
        let slots = Self::default_recorder_slots(capacity);
        Self::new_with_recorder(capacity, model, slots)
    }

    /// Default recorder sizing: 1/8th of the device, capped at 256 slots
    /// (16 KiB); 0 (disabled) for devices too small to spare a slot.
    pub fn default_recorder_slots(capacity: usize) -> usize {
        if (capacity as u64) < HEADER_SIZE + CACHELINE as u64 {
            return 0;
        }
        (capacity / 8 / CACHELINE).min(256)
    }

    /// [`NvbmArena::new`] with an explicit flight-recorder ring capacity
    /// (`slots` one-cacheline entries carved from the top of the device;
    /// 0 disables the recorder).
    pub fn new_with_recorder(capacity: usize, model: DeviceModel, slots: usize) -> Self {
        assert!(capacity as u64 >= HEADER_SIZE, "arena smaller than header");
        let rec_bytes = (slots * CACHELINE) as u64;
        assert!(
            rec_bytes == 0 || HEADER_SIZE + rec_bytes <= capacity as u64,
            "recorder ring ({rec_bytes} bytes) does not fit in {capacity} bytes"
        );
        let rec_base =
            if slots == 0 { 0 } else { (capacity as u64 - rec_bytes) & !(CACHELINE as u64 - 1) };
        let heap_top = if slots == 0 { capacity as u64 } else { rec_base };
        let mut stats = MemStats::new(capacity);
        stats.set_region_bounds(rec_base, heap_top);
        let mut a = NvbmArena {
            media: SparseMedia::zeroed(capacity),
            cache: LineTable::default(),
            cache_cap: CACHE_LINES,
            model,
            clock: VirtualClock::new(),
            stats,
            tracer: Tracer::default(),
            plan: None,
            octree_edge: HEADER_SIZE,
            rt_floor: heap_top,
            rt_pins: EpochPins::new(),
            rec_base,
            rec_slots: slots,
            rec_next_seq: 1,
            rec_enabled: true,
            committed: CommitRecord::default(),
            next: CommitRecord::default(),
        };
        a.format();
        a
    }

    /// Build an arena directly over `media` (e.g. a crash snapshot from a
    /// [`FailPlan`] capture), adopted as is. The dirty cache starts cold,
    /// exactly like a rebooted node. The flight recorder is recovered from
    /// the media: recording continues after the last surviving entry.
    pub fn from_media(media: SparseMedia, model: DeviceModel) -> Self {
        assert!(media.size() as u64 >= HEADER_SIZE, "media smaller than header");
        let capacity = media.size();
        let mut a = NvbmArena {
            media,
            cache: LineTable::default(),
            cache_cap: CACHE_LINES,
            model,
            clock: VirtualClock::new(),
            stats: MemStats::new(capacity),
            tracer: Tracer::default(),
            plan: None,
            octree_edge: HEADER_SIZE,
            rt_floor: capacity as u64,
            rt_pins: EpochPins::new(),
            rec_base: 0,
            rec_slots: 0,
            rec_next_seq: 1,
            rec_enabled: true,
            committed: CommitRecord::default(),
            next: CommitRecord::default(),
        };
        a.adopt_media_layout();
        a
    }

    /// Re-derive what the arena keeps about its media's layout from the
    /// media itself: the committed record (the valid slot with the higher
    /// `seq`), the region bounds from its hints, the flight recorder ring
    /// (recording continues after its last surviving entry) and the
    /// stats' region bounds.
    fn adopt_media_layout(&mut self) {
        self.committed = CommitRecord::newest(&self.media);
        self.next = self.committed;
        let (octree_edge, rt_floor) = derive_live_bounds(&self.media, &self.committed);
        let (rec_base, rec_slots) = recorder::region_of(&self.media).unwrap_or((0, 0));
        (self.octree_edge, self.rt_floor) = (octree_edge, rt_floor);
        self.rec_base = rec_base;
        self.rec_slots = rec_slots;
        self.rec_next_seq = recorder::recover(&self.media).last().map_or(1, |e| e.seq + 1);
        self.stats.set_region_bounds(rec_base, rt_floor);
    }

    // ---- tracing ---------------------------------------------------------

    /// Open a tracing span stamped with this arena's virtual clock. A
    /// no-op guard when no tracer is attached.
    pub fn span(&self, name: &'static str) -> Span {
        if !self.tracer.is_enabled() {
            return Span::noop();
        }
        let clock = self.clock.clone();
        self.tracer.span(name, move || clock.now_ns())
    }

    /// Record a point event at the current virtual time (e.g. a sampling
    /// decision). No-op when tracing is disabled.
    pub fn instant(&self, name: &'static str, arg: Option<u64>) {
        if self.tracer.is_enabled() {
            self.tracer.instant(name, self.clock.now_ns(), arg);
        }
    }

    // ---- flight recorder -------------------------------------------------

    /// Highest offset the downward-growing rt heap may occupy: the base
    /// of the recorder ring when one is carved, the device capacity
    /// otherwise. `pm-rt` uses this instead of [`NvbmArena::capacity`] so
    /// heap objects never collide with the ring.
    pub fn rt_heap_top(&self) -> u64 {
        if self.rec_base == 0 {
            self.capacity() as u64
        } else {
            self.rec_base
        }
    }

    /// Disable or re-enable recording (volatile switch; the persisted
    /// ring is untouched). Benches use this to measure the recorder's
    /// virtual-clock overhead.
    pub fn set_recorder_enabled(&mut self, on: bool) {
        self.rec_enabled = on;
    }

    /// Whether recording is live (a ring exists and is enabled).
    pub fn recorder_enabled(&self) -> bool {
        self.rec_enabled && self.rec_slots > 0
    }

    /// Append one entry to the flight recorder: a single cacheline store
    /// followed by a line flush — the exact discipline real data uses, so
    /// the entry is durable the moment this returns and a crash sweep
    /// injecting *during* the append can at worst tear this one entry.
    pub fn rec_mark(&mut self, kind: RecKind, label: &'static str, arg: u64) {
        if !self.recorder_enabled() {
            return;
        }
        let seq = self.rec_next_seq;
        let slot = (seq - 1) % self.rec_slots as u64;
        let off = self.rec_base + slot * CACHELINE as u64;
        let bytes = recorder::encode_slot(seq, self.clock.now_ns(), arg, kind, label);
        self.write(off, &bytes);
        self.flush_line(off);
        self.rec_next_seq = seq + 1;
    }

    /// Recover the flight recorder from this arena's *durable* view (the
    /// media, not the dirty cache) — exactly what a post-crash reboot
    /// would see.
    pub fn recorder_dump(&self) -> RecorderDump {
        recorder::recover(&self.media)
    }

    // ---- write attribution ----------------------------------------------

    /// Set the protocol phase that committed bytes are attributed to (see
    /// [`MemStats::set_phase`]); returns the previous phase so callers
    /// restore it when their phase ends.
    pub fn set_phase(&mut self, phase: &'static str) -> &'static str {
        self.stats.set_phase(phase)
    }

    // ---- crash-opportunity plan -----------------------------------------

    /// Install a crash-opportunity plan. Replaces any existing plan.
    pub fn set_fail_plan(&mut self, plan: FailPlan) {
        self.plan = Some(plan);
    }

    /// Remove and return the installed plan (with its counters/capture).
    pub fn take_fail_plan(&mut self) -> Option<FailPlan> {
        self.plan.take()
    }

    /// An explicit, labelled crash opportunity: protocol code calls this
    /// between phases (e.g. `"gc::sweep"`, `"persist::root_swap"`) so
    /// sweeps can attribute opportunities to protocol phases. The label
    /// is first appended (and flushed) to the flight recorder, so at the
    /// moment a sweep injects a crash here, the recorder's newest durable
    /// entry *is* this failpoint.
    pub fn failpoint(&mut self, label: &'static str) {
        self.rec_mark(RecKind::Failpoint, label, 0);
        self.opportunity(Some(label));
    }

    /// Fire one crash opportunity. No-op unless a plan is installed.
    #[inline]
    fn opportunity(&mut self, label: Option<&'static str>) {
        let Some(mut plan) = self.plan.take() else {
            return;
        };
        plan.observe(label, &self.media, &self.cache);
        self.plan = Some(plan);
    }

    /// Shrink the dirty-line cache so a test can force evictions.
    #[cfg(test)]
    fn set_cache_lines(&mut self, lines: usize) {
        self.cache_cap = lines.max(1);
        self.evict_over_cap();
    }

    /// Write the header magic and the flight-recorder ring descriptor onto
    /// the fresh all-zero media, so both record slots are empty, bypassing
    /// the cache (a freshly formatted device is by definition persistent).
    fn format(&mut self) {
        for (off, v) in [
            (OFF_MAGIC, MAGIC),
            (OFF_REC_BASE, self.rec_base),
            (OFF_REC_SLOTS, self.rec_slots as u64),
        ] {
            self.media.write_at(off as usize, &v.to_le_bytes());
        }
    }

    /// Device capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.media.size()
    }

    /// Host bytes the media holds: the chunks some commit or import has
    /// materialised. Untouched device ranges cost nothing.
    pub fn resident_bytes(&self) -> usize {
        self.media.resident_bytes()
    }

    /// The timing model in force.
    #[inline]
    pub fn model(&self) -> &DeviceModel {
        &self.model
    }

    fn check_range(&self, offset: u64, len: usize) {
        assert!(
            offset.checked_add(len as u64).is_some_and(|end| end <= self.media.size() as u64),
            "NVBM access out of bounds: offset {offset} len {len} capacity {}",
            self.media.size()
        );
    }

    /// Read `buf.len()` bytes at `offset`, observing un-flushed stores
    /// (the CPU reads through its own cache).
    pub fn read(&mut self, offset: u64, buf: &mut [u8]) {
        self.check_range(offset, buf.len());
        let lines = DeviceModel::lines(offset, buf.len());
        self.clock.advance(lines * self.model.nvbm.read_ns);
        self.stats.nvbm_read(buf.len(), lines);
        self.media.read_at(offset as usize, buf);
        self.cache.apply_overlay(offset, buf);
    }

    /// Write `data` at `offset`. The store lands in the dirty-line cache;
    /// it reaches the media on flush, eviction, or a lucky crash.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        self.check_range(offset, data.len());
        if data.is_empty() {
            return;
        }
        self.opportunity(None);
        let lines = DeviceModel::lines(offset, data.len());
        self.clock.advance(lines * self.model.nvbm.write_ns);
        self.stats.nvbm_write(data.len(), lines);
        let media = &self.media;
        self.cache
            .store(media.size(), offset, data, |start, buf| media.read_at(start as usize, buf));
        self.evict_over_cap();
    }

    fn evict_over_cap(&mut self) {
        while self.cache.len() > self.cache_cap {
            let (line, data) = self.cache.pop_lowest().expect("cache non-empty");
            commit_line_to(&mut self.media, Some(&mut self.stats), line, &data);
        }
    }

    /// Flush one cacheline (the `clflush` analogue). Charges one write
    /// latency for the media commit.
    pub fn flush_line(&mut self, offset: u64) {
        let line = offset / CACHELINE as u64;
        // The opportunity precedes the write-back, so it must see the line.
        if self.plan.is_some() && self.cache.get(line).is_some() {
            self.opportunity(None);
        }
        if let Some(data) = self.cache.remove(line) {
            self.clock.advance(self.model.nvbm.write_ns);
            commit_line_to(&mut self.media, Some(&mut self.stats), line, &data);
        }
    }

    /// Flush every dirty line (an `sfence` + full write-back). Used at
    /// persist points and before [`Self::save`].
    pub fn flush_all(&mut self) {
        if !self.cache.is_empty() {
            self.opportunity(None);
        }
        let cache = std::mem::take(&mut self.cache);
        self.clock.advance(cache.len() as u64 * self.model.nvbm.write_ns);
        for (line, data) in cache.sorted() {
            commit_line_to(&mut self.media, Some(&mut self.stats), line, data);
        }
    }

    /// Number of dirty (unflushed) lines.
    pub fn dirty_lines(&self) -> usize {
        self.cache.len()
    }

    /// Simulate a crash: dirty lines are lost or partially committed per
    /// `mode`; the cache is emptied either way. The media afterwards is
    /// exactly what a rebooted node would find in its NVBM.
    pub fn crash(&mut self, mode: CrashMode) {
        let cache = std::mem::take(&mut self.cache);
        apply_crash(&mut self.media, &cache, mode, Some(&mut self.stats));
    }

    /// An immutable snapshot of the CPU-visible device state: the
    /// persistent media overlaid by a frozen copy of the dirty-line cache.
    pub fn snapshot(&self) -> ArenaSnapshot<'_> {
        ArenaSnapshot { media: &self.media, dirty: self.cache.clone() }
    }

    // ---- device header -------------------------------------------------

    /// Is the device formatted (magic present on persistent media)?
    pub fn is_formatted(&mut self) -> bool {
        let mut b = [0u8; 8];
        self.read(OFF_MAGIC, &mut b);
        u64::from_le_bytes(b) == MAGIC
    }

    /// The last published record: what a crash now recovers.
    pub fn committed(&self) -> CommitRecord {
        self.committed
    }

    /// Publish [`NvbmArena::next`]: store it, sealed, in the slot the
    /// committed record does not occupy and flush that one line — the one
    /// commit point of the octree and the runtime alike. Until the line is
    /// on media a crash recovers the committed record; a torn line fails
    /// its seal, so recovery still takes the committed one. Stores nothing
    /// when `next` equals the committed record.
    pub fn publish(&mut self) {
        let seq = self.committed.seq + 1;
        let record = CommitRecord { seq, ..self.next };
        if record == (CommitRecord { seq, ..self.committed }) {
            return;
        }
        let off = RECORD_AT[(seq % 2) as usize];
        self.write(off, &record.encode());
        self.flush_line(off);
        self.committed = record;
        self.next = record;
    }

    // ---- live allocation boundaries --------------------------------------

    /// The octree allocator's live bump pointer: the `pm-rt` heap must
    /// not grow below this. Volatile; free to read (no media access).
    pub fn live_bump(&self) -> u64 {
        self.octree_edge
    }

    /// Publish the octree allocator's bump pointer. Called by the octree
    /// store after every allocation (and allocator rebuild) so the
    /// `pm-rt` heap sees the boundary move in real time. Clamped into
    /// the device.
    pub fn publish_bump(&mut self, b: u64) {
        self.octree_edge = b.clamp(HEADER_SIZE, self.capacity() as u64);
    }

    /// The `pm-rt` heap's live floor: the octree allocator must not bump
    /// past this. Volatile; free to read (no media access).
    pub fn live_rt_floor(&self) -> u64 {
        self.rt_floor
    }

    /// Publish the `pm-rt` heap floor. Called by the runtime after every
    /// heap allocation (and heap rebuild) so the octree allocator sees
    /// the boundary move in real time (and so wear attribution classifies
    /// commits above it as runtime-heap traffic). Clamped into the
    /// device.
    pub fn publish_rt_floor(&mut self, f: u64) {
        self.rt_floor = f.clamp(HEADER_SIZE, self.capacity() as u64);
        self.stats.set_rt_floor(self.rt_floor);
    }

    /// The device's registry of pinned `pm-rt` root-table epochs (MVCC
    /// snapshot readers). The runtime consults it before freeing retired
    /// blobs; snapshot handles hold [`crate::pins::PinGuard`]s from it.
    pub fn rt_pins(&self) -> &EpochPins {
        &self.rt_pins
    }

    // ---- whole-device persistence (node reboot) --------------------------

    /// Flush and save the media to a host file as a flat image of
    /// [`NvbmArena::capacity`] bytes (simulates the NVBM DIMM surviving a
    /// node reboot).
    pub fn save(&mut self, path: &Path) -> std::io::Result<()> {
        self.flush_all();
        std::fs::write(path, self.media.to_image())
    }

    /// Load a media image saved by [`Self::save`]; only its non-zero
    /// chunks are kept. Clock and stats start fresh; the dirty cache is
    /// empty (a rebooted CPU cache is cold). A file shorter than the device
    /// header (truncated or empty) is [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &Path, model: DeviceModel) -> std::io::Result<Self> {
        let image = std::fs::read(path)?;
        if (image.len() as u64) < HEADER_SIZE {
            let short = format!("{}-byte image is shorter than the arena header", image.len());
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, short));
        }
        Ok(Self::from_media(SparseMedia::from_image(&image), model))
    }

    /// Clone the persistent media of this arena (flushes first). Used by
    /// the replica feature to snapshot `V_{i-1}` onto another node. The
    /// clone copies the present chunks only.
    pub fn clone_media(&mut self) -> SparseMedia {
        self.flush_all();
        self.media.clone()
    }

    /// Overwrite this arena's media with a copy of `media` (replica
    /// restore). Any pinned `pm-rt` snapshot epochs belong to the replaced
    /// lineage, so the pin registry is invalidated: surviving snapshot
    /// handles report `SnapshotGone` rather than reading reused blobs.
    pub fn restore_media(&mut self, media: &SparseMedia) {
        assert_eq!(media.size(), self.media.size(), "media size mismatch");
        self.media = media.clone();
        self.cache.clear();
        self.rt_pins.invalidate();
        self.adopt_media_layout();
    }
}

/// An immutable view of the device at one instant
/// ([`NvbmArena::snapshot`]): the persistent media plus a frozen copy of
/// the dirty-line cache. Taking one has no clock or stats side effects.
pub struct ArenaSnapshot<'a> {
    media: &'a SparseMedia,
    dirty: LineTable,
}

impl ArenaSnapshot<'_> {
    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.media.size()
    }

    /// Number of dirty lines frozen into the snapshot.
    pub fn dirty_lines(&self) -> usize {
        self.dirty.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::media::CHUNK;

    fn arena() -> NvbmArena {
        NvbmArena::new(1 << 20, DeviceModel::default())
    }

    #[test]
    fn write_read_roundtrip() {
        let mut a = arena();
        a.write(4096, b"hello, nvbm");
        let mut buf = [0u8; 11];
        a.read(4096, &mut buf);
        assert_eq!(&buf, b"hello, nvbm");
    }

    #[test]
    fn read_sees_unflushed_writes_across_lines() {
        let mut a = arena();
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        a.write(1000, &data); // spans 4 lines, unaligned
        let mut buf = vec![0u8; 200];
        a.read(1000, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn latency_charged_per_line() {
        let mut a = arena();
        let t0 = a.clock.now_ns();
        a.write(0x1000, &[0u8; 64]); // exactly one aligned line
        assert_eq!(a.clock.now_ns() - t0, 150);
        let t1 = a.clock.now_ns();
        let mut b = [0u8; 64];
        a.read(0x1000, &mut b);
        assert_eq!(a.clock.now_ns() - t1, 100);
        let t2 = a.clock.now_ns();
        a.write(0x1000 + 32, &[0u8; 64]); // straddles two lines
        assert_eq!(a.clock.now_ns() - t2, 300);
    }

    #[test]
    fn crash_lose_dirty_reverts_unflushed() {
        let mut a = arena();
        a.write(8192, b"persisted");
        a.flush_all();
        a.write(8192, b"ephemeral");
        a.crash(CrashMode::LoseDirty);
        let mut buf = [0u8; 9];
        a.read(8192, &mut buf);
        assert_eq!(&buf, b"persisted");
    }

    #[test]
    fn crash_commit_random_is_deterministic() {
        let run = |seed| {
            let mut a = arena();
            for i in 0..32u64 {
                a.write(4096 + i * 64, &[i as u8; 64]);
            }
            a.crash(CrashMode::CommitRandom { p: 0.5, seed });
            let mut survived = 0;
            for i in 0..32u64 {
                let mut b = [0u8; 1];
                a.read(4096 + i * 64, &mut b);
                if b[0] == i as u8 && i != 0 {
                    survived += 1;
                }
            }
            survived
        };
        assert_eq!(run(42), run(42));
        // With p=0.5 over 31 distinguishable lines, some but not all survive.
        let s = run(42);
        assert!(s > 0 && s < 31, "survived {s}");
    }

    #[test]
    fn torn_write_commits_aligned_prefixes() {
        let run = |seed| {
            let mut a = arena();
            for i in 0..16u64 {
                a.write(4096 + i * 64, &[0xAB; 64]);
            }
            a.crash(CrashMode::TornWrite { seed });
            let mut prefixes = Vec::new();
            for i in 0..16u64 {
                let mut b = [0u8; 64];
                a.read(4096 + i * 64, &mut b);
                let committed = b.iter().take_while(|&&x| x == 0xAB).count();
                // Prefix property: after the committed prefix, nothing.
                assert!(b[committed..].iter().all(|&x| x == 0), "suffix leaked");
                assert_eq!(committed % 8, 0, "prefix must be 8-byte aligned");
                prefixes.push(committed);
            }
            prefixes
        };
        assert_eq!(run(3), run(3), "torn writes must be deterministic");
        let p = run(3);
        assert!(p.iter().any(|&x| x > 0 && x < 64), "some line should tear mid-way: {p:?}");
        assert_ne!(run(3), run(99), "different seeds tear differently");
    }

    #[test]
    fn flush_makes_writes_crash_proof() {
        let mut a = arena();
        a.write(4096, b"important");
        a.flush_all();
        a.crash(CrashMode::LoseDirty);
        let mut buf = [0u8; 9];
        a.read(4096, &mut buf);
        assert_eq!(&buf, b"important");
    }

    /// Flip the bits of `mask` in the byte of `media` at `off`.
    fn flip(media: &mut SparseMedia, off: usize, mask: u8) {
        let mut b = [0u8];
        media.read_at(off, &mut b);
        media.write_at(off, &[b[0] ^ mask]);
    }

    /// Publish `root` (with the given octree epoch) as the next record.
    fn publish_root(a: &mut NvbmArena, epoch: u64, root: u64) {
        a.next.epoch = epoch;
        a.next.root = POffset(root);
        a.publish();
    }

    #[test]
    fn a_publication_is_one_sealed_line_in_the_other_slot() {
        let mut a = arena();
        assert_eq!(a.committed(), CommitRecord::default());
        for seq in 1..=3u64 {
            let (lines, bytes) = (a.stats.nvbm.write_lines, a.stats.bytes_by_region()[0]);
            publish_root(&mut a, seq, 4096 * seq);
            assert_eq!(a.committed().seq, seq);
            assert_eq!(a.stats.nvbm.write_lines - lines, 1, "one line store");
            assert_eq!(a.stats.bytes_by_region()[0] - bytes, 64, "one header line commit");
            assert_eq!(a.dirty_lines(), 0, "flushed");
            // The slot seq names holds it; the other still holds seq - 1.
            let img = a.clone_media();
            assert_eq!(CommitRecord::decode(&img, (seq % 2) as usize), Some(a.committed()));
            let older = CommitRecord::decode(&img, ((seq + 1) % 2) as usize).map(|r| r.seq);
            assert_eq!(older, (seq > 1).then_some(seq - 1));
        }
        // An unchanged record publishes nothing.
        let lines = a.stats.nvbm.write_lines;
        a.publish();
        assert_eq!((a.stats.nvbm.write_lines, a.committed().seq), (lines, 3));
        a.crash(CrashMode::LoseDirty);
        let b = NvbmArena::from_media(a.clone_media(), DeviceModel::default());
        assert_eq!((b.committed(), b.next), (a.committed(), a.committed()));
    }

    #[test]
    fn recovery_takes_the_valid_slot_with_the_higher_seq() {
        let mut a = arena();
        publish_root(&mut a, 1, 4096);
        publish_root(&mut a, 2, 8192);
        let img = a.clone_media();
        let (old, new) = (CommitRecord::decode(&img, 1).unwrap(), a.committed());
        let adopt = |img: SparseMedia| NvbmArena::from_media(img, DeviceModel::default());
        assert_eq!(adopt(img.clone()).committed(), new);
        // Any one bit of the newer line flipped: its seal fails.
        for bit in 0..CACHELINE * 8 {
            let mut bad = img.clone();
            flip(&mut bad, RECORD_AT[0] as usize + bit / 8, 1 << (bit % 8));
            assert_eq!(adopt(bad).committed(), old, "bit {bit}");
        }
        // A sealed record in slot 0 whose seq names slot 1 (a stale copy),
        // or whose seq is in the upper half of the range, is no record.
        for seq in [3, 1 << 63] {
            let mut bad = img.clone();
            bad.write_at(RECORD_AT[0] as usize, &CommitRecord { seq, ..new }.encode());
            assert_eq!(adopt(bad).committed(), old, "seq {seq}");
        }
        // Neither slot valid: the empty record.
        let mut none = img.clone();
        flip(&mut none, RECORD_AT[1] as usize, 1);
        flip(&mut none, RECORD_AT[0] as usize, 1);
        assert_eq!(adopt(none).committed(), CommitRecord::default());
    }

    #[test]
    fn header_formatted() {
        let mut a = arena();
        assert!(a.is_formatted());
        assert_eq!(a.committed(), CommitRecord::default());
        assert_eq!(a.live_bump(), HEADER_SIZE);
    }

    #[test]
    fn eviction_commits_oldest_lines() {
        let mut a = arena();
        a.set_cache_lines(4);
        for i in 0..8u64 {
            a.write(4096 + i * 64, &[7u8; 64]);
        }
        assert!(a.dirty_lines() <= 4);
        // Early lines were evicted to media: visible even after crash.
        a.crash(CrashMode::LoseDirty);
        let mut b = [0u8; 1];
        a.read(4096, &mut b);
        assert_eq!(b[0], 7);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("nvbm_test_save");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("image.nvbm");
        let mut a = arena();
        a.write(5000, b"survives reboot");
        publish_root(&mut a, 1, 5000);
        a.save(&path).unwrap();
        let mut b = NvbmArena::load(&path, DeviceModel::default()).unwrap();
        assert!(b.is_formatted());
        assert_eq!(b.committed().root, POffset(5000));
        let mut buf = [0u8; 15];
        b.read(5000, &mut buf);
        assert_eq!(&buf, b"survives reboot");
        // A truncated image is an error, not a panic.
        for len in [0, HEADER_SIZE as usize - 1] {
            std::fs::write(&path, vec![0u8; len]).unwrap();
            let err = NvbmArena::load(&path, DeviceModel::default()).err().expect("too short");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{len} bytes: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn live_bounds_rederived_from_media() {
        let mut a = arena();
        // The recorder ring carves the top of the device; the rt heap's
        // virgin floor sits just below it.
        let (rec_base, rec_slots) = (a.rec_base, a.rec_slots);
        assert_eq!(rec_slots, 256);
        assert_eq!(rec_base, (1 << 20) - 256 * 64);
        assert_eq!(a.live_bump(), HEADER_SIZE);
        assert_eq!(a.live_rt_floor(), rec_base);
        a.next.bump = 4096;
        a.next.rt_floor = rec_base - 8192;
        a.publish();
        let b = NvbmArena::from_media(a.clone_media(), DeviceModel::default());
        assert_eq!(b.live_bump(), 4096);
        assert_eq!(b.live_rt_floor(), rec_base - 8192);
        // restore_media re-derives too; a zero rt hint means floor = ring
        // base.
        let mut c = arena();
        c.next.bump = 2048;
        c.publish();
        let img = c.clone_media();
        let mut d = arena();
        d.publish_bump(9999);
        d.publish_rt_floor(5000);
        d.restore_media(&img);
        assert_eq!(d.live_bump(), 2048);
        assert_eq!(d.live_rt_floor(), rec_base);
        // Hostile hints are clamped: an rt floor inside the recorder ring
        // or past the device under the ring, a bump past either under the
        // floor.
        for (bump, floor) in [(u64::MAX, rec_base + 64), (rec_base + 64, u64::MAX)] {
            let mut e = arena();
            e.next.bump = bump;
            e.next.rt_floor = floor;
            e.publish();
            let f = NvbmArena::from_media(e.clone_media(), DeviceModel::default());
            assert_eq!((f.live_bump(), f.live_rt_floor()), (rec_base, rec_base));
        }
    }

    #[test]
    fn replica_media_clone_restore() {
        let mut a = arena();
        a.write(4096, b"replica me");
        let img = a.clone_media();
        let mut b = arena();
        b.restore_media(&img);
        let mut buf = [0u8; 10];
        b.read(4096, &mut buf);
        assert_eq!(&buf, b"replica me");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let mut a = NvbmArena::new(4096, DeviceModel::default());
        let mut b = [0u8; 8];
        a.read(4095, &mut b);
    }

    #[test]
    fn stats_track_lines_and_bytes() {
        let mut a = arena();
        a.write(0x2000, &[0u8; 100]); // 2 lines
        assert_eq!(a.stats.nvbm.write_lines, 2);
        assert_eq!(a.stats.nvbm.bytes_written, 100);
        let mut b = [0u8; 100];
        a.read(0x2000, &mut b);
        assert_eq!(a.stats.nvbm.read_lines, 2);
    }

    #[test]
    fn wear_counted_on_commit_not_on_write() {
        let mut a = arena();
        for _ in 0..10 {
            a.write(0x3000, &[1u8; 64]);
        }
        assert_eq!(a.stats.max_wear(), (0, 0), "no commit yet");
        a.flush_all();
        assert_eq!(a.stats.max_wear(), (1, 0x3000), "ten cached writes commit once");
        assert_eq!(a.stats.bytes_by_region()[1], 64, "0x3000 is octree territory");
    }

    #[test]
    fn failpoints_land_in_the_recorder_durably() {
        let mut a = arena();
        a.failpoint("persist::merge");
        a.failpoint("persist::root_swap");
        // No flush_all: each entry is flushed by rec_mark itself.
        a.crash(CrashMode::LoseDirty);
        let d = a.recorder_dump();
        assert!(d.header_ok);
        let labels: Vec<&str> = d.entries.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, vec!["persist::merge", "persist::root_swap"]);
        assert_eq!(d.last().expect("entries").seq, 2);
    }

    #[test]
    fn recorder_survives_restore_and_continues_numbering() {
        let mut a = arena();
        a.rec_mark(crate::recorder::RecKind::Note, "before", 7);
        a.failpoint("gc::sweep");
        let img = a.clone_media();
        // A rebooted arena adopts the ring and appends after seq 2.
        let mut b = NvbmArena::from_media(img.clone(), DeviceModel::default());
        b.rec_mark(crate::recorder::RecKind::Note, "after", 0);
        let d = b.recorder_dump();
        let seqs: Vec<u64> = d.entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(d.entries[0].arg, 7);
        assert_eq!(d.entries[2].label, "after");
        // restore_media adopts too.
        let mut c = arena();
        c.restore_media(&img);
        c.rec_mark(crate::recorder::RecKind::Note, "replica", 0);
        assert_eq!(c.recorder_dump().last().expect("entries").seq, 3);
    }

    #[test]
    fn recorder_disabled_writes_nothing() {
        let mut a = arena();
        a.set_recorder_enabled(false);
        a.failpoint("persist::merge");
        assert!(a.recorder_dump().entries.is_empty());
        let t0 = a.clock.now_ns();
        a.failpoint("persist::flush");
        assert_eq!(a.clock.now_ns(), t0, "disabled recorder is free");
        // Tiny devices have no ring at all and never panic.
        let mut tiny = NvbmArena::new(HEADER_SIZE as usize, DeviceModel::default());
        tiny.failpoint("persist::merge");
        assert_eq!((tiny.rec_base, tiny.rec_slots), (0, 0));
    }

    #[test]
    fn snapshot_copies_the_dirty_lines_for_free() {
        let mut a = arena();
        a.write(4096, b"dirty");
        let (t0, reads) = (a.clock.now_ns(), a.stats.nvbm.read_lines);
        let snap = a.snapshot();
        assert_eq!((snap.capacity(), snap.dirty_lines()), (1 << 20, 1));
        drop(snap);
        assert_eq!((a.clock.now_ns(), a.stats.nvbm.read_lines), (t0, reads), "a snapshot is free");
        a.write(8192, b"later");
        assert_eq!(a.snapshot().dirty_lines(), 2);
    }

    /// Bytes `seed + i` for `i` in `0..len`, never zero.
    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_add(seed) | 1).collect()
    }

    fn read_vec(a: &mut NvbmArena, offset: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        a.read(offset, &mut buf);
        buf
    }

    #[test]
    fn stores_across_a_chunk_boundary_behave_like_flat_memory() {
        let b = CHUNK as u64;
        // Four lines, b-128..b+128: the two middle ones touch the boundary.
        let data = pattern(200, 1);
        let mut a = arena();
        a.write(b - 100, &data);
        assert_eq!(read_vec(&mut a, b - 100, 200), data, "read through the cache");
        a.flush_line(b - 64);
        a.flush_line(b);
        a.crash(CrashMode::LoseDirty);
        let got = read_vec(&mut a, b - 100, 200);
        assert_eq!(got[36..164], data[36..164], "the flushed lines survive");
        assert!(got[..36].iter().chain(&got[164..]).all(|&x| x == 0), "the rest is lost");
        // Eviction writes back the lowest lines across the boundary.
        let mut a = arena();
        a.set_cache_lines(1);
        a.write(b - 100, &data);
        a.crash(CrashMode::LoseDirty);
        let got = read_vec(&mut a, b - 100, 200);
        assert_eq!(got[..164], data[..164], "three evicted lines");
        assert!(got[164..].iter().all(|&x| x == 0), "the dirty one is lost");
        // A pm-rt-sized blob across a boundary, through a media clone.
        let blob = pattern(4096 + 100, 7);
        let mut a = arena();
        a.write(2 * b - 2000, &blob);
        let mut b2 = NvbmArena::from_media(a.clone_media(), DeviceModel::default());
        assert_eq!(read_vec(&mut b2, 2 * b - 2000, blob.len()), blob);
        assert_eq!(b2.resident_bytes(), 3 * CHUNK, "the header's chunk and the blob's two");
    }

    #[test]
    fn every_crash_mode_commits_the_same_bytes_live_and_in_a_crash_view() {
        let b = CHUNK as u64;
        let modes = [
            CrashMode::LoseDirty,
            CrashMode::CommitRandom { p: 0.5, seed: 11 },
            CrashMode::TornWrite { seed: 5 },
        ];
        for mode in modes {
            let mut a = arena();
            a.write(b - 1024, &pattern(2048, 3));
            a.flush_all();
            a.write(b - 1000, &pattern(2000, 9));
            // The media a crash view builds at the last opportunity
            // against the live media crashed right after it.
            let seen = std::sync::Arc::new(std::sync::Mutex::new(None));
            let sink = seen.clone();
            a.set_fail_plan(FailPlan::with_hook(Box::new(move |v| {
                if v.label == Some("boundary") {
                    *sink.lock().unwrap() = Some((v.image(mode), v.full_image()));
                }
            })));
            a.failpoint("boundary");
            a.take_fail_plan();
            a.crash(mode);
            let (view, full) = seen.lock().unwrap().take().expect("the hook ran");
            assert_eq!(a.clone_media().to_image(), view.to_image(), "{mode:?}");
            assert_ne!(view.to_image(), full.to_image(), "{mode:?}: something was lost");
        }
    }

    #[test]
    fn untouched_ranges_read_zeros_and_materialise_nothing() {
        let mut a = NvbmArena::new(1 << 30, DeviceModel::default());
        assert_eq!(a.resident_bytes(), CHUNK, "the header's chunk");
        let mut buf = vec![0xFF; 3 * CHUNK];
        a.read(5 * CHUNK as u64 - 7, &mut buf);
        assert!(buf.iter().all(|&x| x == 0));
        // A store a crash loses materialises nothing; a write-back does.
        a.write(11 * CHUNK as u64, b"lost");
        a.crash(CrashMode::LoseDirty);
        assert_eq!(a.resident_bytes(), CHUNK);
        a.write(11 * CHUNK as u64, b"kept");
        a.flush_all();
        assert_eq!(a.resident_bytes(), 2 * CHUNK);
    }

    #[test]
    fn an_all_zero_image_adopts_no_chunk() {
        let path = std::env::temp_dir().join(format!("nvbm_zeros_{}.img", std::process::id()));
        std::fs::write(&path, vec![0; 1 << 20]).unwrap();
        let loaded = NvbmArena::load(&path, DeviceModel::default()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.resident_bytes(), 0);
        let zeros = SparseMedia::zeroed(1 << 20);
        assert_eq!(
            NvbmArena::from_media(zeros.clone(), DeviceModel::default()).resident_bytes(),
            0
        );
        let mut a = arena();
        a.restore_media(&zeros);
        assert_eq!(a.resident_bytes(), 0);
    }

    #[test]
    fn flat_images_round_trip_byte_equal() {
        // A device whose end is neither chunk- nor line-aligned.
        let cap = 5 * CHUNK + 1000;
        let mut a = NvbmArena::new(cap, DeviceModel::default());
        a.write(CHUNK as u64 - 50, &pattern(100, 2));
        a.write(3 * CHUNK as u64 + 4096, &pattern(64, 4));
        a.write(cap as u64 - 1, &[0xEE]);
        publish_root(&mut a, 1, 4096);
        let img = a.clone_media();
        assert_eq!((img.size(), img.resident_bytes()), (cap, a.resident_bytes()));
        let flat = img.to_image();
        assert_eq!((flat.len(), flat[cap - 1]), (cap, 0xEE));
        let mut b = NvbmArena::from_media(img.clone(), DeviceModel::default());
        assert_eq!(b.resident_bytes(), a.resident_bytes());
        assert_eq!(b.clone_media().to_image(), flat, "clone_media → from_media");
        let mut c = NvbmArena::new(cap, DeviceModel::default());
        c.restore_media(&img);
        assert_eq!(c.clone_media().to_image(), flat, "restore_media");
        let path = std::env::temp_dir().join(format!("nvbm_sparse_{}.img", std::process::id()));
        a.save(&path).unwrap();
        let mut d = NvbmArena::load(&path, DeviceModel::default()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), flat, "save");
        assert_eq!(d.clone_media().to_image(), flat, "save → load");
        assert_eq!(d.resident_bytes(), a.resident_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recorder_ring_wraps_and_keeps_newest() {
        let mut a = NvbmArena::new_with_recorder(1 << 20, DeviceModel::default(), 8);
        for i in 0..20u64 {
            a.rec_mark(crate::recorder::RecKind::Note, "op", i);
        }
        let d = a.recorder_dump();
        assert_eq!(d.slots, 8);
        let args: Vec<u64> = d.entries.iter().map(|e| e.arg).collect();
        assert_eq!(args, (12..20).collect::<Vec<u64>>());
    }
}
