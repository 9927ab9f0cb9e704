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
use crate::model::{DeviceModel, CACHELINE};
use crate::pins::EpochPins;
use crate::recorder::{self, RecKind, RecorderDump, OFF_REC_BASE, OFF_REC_SLOTS};
use crate::region::RegionManager;
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
/// `mode`. Shared by [`NvbmArena::crash`] (which destroys the cache) and
/// [`CrashView::image`](crate::failplan::CrashView::image) (which builds a
/// virtual snapshot while the run continues). `stats` is charged for wear
/// only when the caller is the live arena.
pub(crate) fn apply_crash(
    media: &mut [u8],
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
                let e = (s + words * 8).min(media.len());
                if s >= e {
                    continue;
                }
                media[s..e].copy_from_slice(&data[..e - s]);
                if let Some(st) = stats.as_deref_mut() {
                    st.wear_commit(s as u64, e - s);
                }
            }
        }
    }
}

/// Commit one full cacheline to `media`, charging wear when stats are live.
pub(crate) fn commit_line_to(
    media: &mut [u8],
    stats: Option<&mut MemStats>,
    line: u64,
    data: &[u8; CACHELINE],
) {
    let s = line as usize * CACHELINE;
    let e = (s + CACHELINE).min(media.len());
    media[s..e].copy_from_slice(&data[..e - s]);
    if let Some(st) = stats {
        st.wear_commit(s as u64, e - s);
    }
}

/// Size of the device header (root slots, epoch, allocator bump pointer).
pub const HEADER_SIZE: u64 = 256;

const MAGIC: u64 = 0x504d_4f43_5452_4545; // "PMOCTREE"-ish
const OFF_MAGIC: u64 = 0;
const OFF_EPOCH: u64 = 8;
const OFF_ROOT0: u64 = 16;
#[allow(dead_code)]
const OFF_ROOT1: u64 = 24;
const OFF_BUMP: u64 = 32;
const OFF_RT_ROOT: u64 = 40;
const OFF_RT_BUMP: u64 = 48;

/// Number of 8-byte root slots in the header.
pub const ROOT_SLOTS: usize = 2;

/// Dirty-line cache capacity in lines (256 KiB, an L2-ish footprint).
const CACHE_LINES: usize = 4096;

/// Emulated NVBM arena.
pub struct NvbmArena {
    media: Vec<u8>,
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
    /// The device address space as explicit typed regions (root table,
    /// octree, rt heap, recorder) with live edges: the octree
    /// bump-allocates upward in `[HEADER_SIZE, octree_edge)` and the
    /// `pm-rt` heap grows downward in `[rt_floor, heap_top)`. Each side
    /// publishes its edge here and consults the other's before growing,
    /// so neither can silently overwrite committed state the other owns.
    /// Not part of the media: re-derived (conservatively, from the
    /// persisted header hints) on `from_media`/`restore_media`, then
    /// corrected by each subsystem's restore.
    regions: RegionManager,
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
}

/// Derive the live allocation boundaries from a media image's header:
/// the persisted bump / rt-floor hints, clamped into the arena. A zero
/// rt hint means the rt heap was never used (floor = top of the heap —
/// the flight-recorder ring base when one is present, else capacity).
fn derive_live_bounds(media: &[u8]) -> (u64, u64) {
    let cap = media.len() as u64;
    let rd = |off: u64| {
        let s = off as usize;
        u64::from_le_bytes(media[s..s + 8].try_into().expect("header slot"))
    };
    let bump = rd(OFF_BUMP).clamp(HEADER_SIZE, cap);
    let top = match recorder::region_of(media) {
        Some((base, slots)) if slots > 0 => base,
        _ => cap,
    };
    let rt = rd(OFF_RT_BUMP);
    let floor = if rt == 0 { top } else { rt.clamp(HEADER_SIZE, top) };
    (bump, floor)
}

impl NvbmArena {
    /// Create a fresh, zeroed arena of `capacity` bytes with a
    /// default-sized flight-recorder ring (see
    /// [`NvbmArena::default_recorder_slots`]).
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
            media: vec![0; capacity],
            cache: LineTable::default(),
            cache_cap: CACHE_LINES,
            model,
            clock: VirtualClock::new(),
            stats,
            tracer: Tracer::default(),
            plan: None,
            regions: RegionManager::new(capacity as u64, rec_base),
            rt_pins: EpochPins::new(),
            rec_base,
            rec_slots: slots,
            rec_next_seq: 1,
            rec_enabled: true,
        };
        a.format();
        a
    }

    /// Build an arena directly over a media image (e.g. a crash snapshot
    /// from a [`FailPlan`] capture). The dirty cache starts cold, exactly
    /// like a rebooted node. The flight recorder is recovered from the
    /// image: recording continues after the last surviving entry.
    pub fn from_media(media: Vec<u8>, model: DeviceModel) -> Self {
        assert!(media.len() as u64 >= HEADER_SIZE, "image too small");
        let mut stats = MemStats::new(media.len());
        let (octree_edge, rt_floor) = derive_live_bounds(&media);
        let (rec_base, rec_slots) = recorder::region_of(&media).unwrap_or((0, 0));
        let rec_next_seq = recorder::recover(&media).last().map_or(1, |e| e.seq + 1);
        stats.set_region_bounds(rec_base, rt_floor);
        let regions =
            RegionManager::from_bounds(media.len() as u64, rec_base, octree_edge, rt_floor);
        NvbmArena {
            media,
            cache: LineTable::default(),
            cache_cap: CACHE_LINES,
            model,
            clock: VirtualClock::new(),
            stats,
            tracer: Tracer::default(),
            plan: None,
            regions,
            rt_pins: EpochPins::new(),
            rec_base,
            rec_slots,
            rec_next_seq,
            rec_enabled: true,
        }
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

    /// [`NvbmArena::span`] with a numeric argument (e.g. a step index).
    pub fn span_arg(&self, name: &'static str, arg: u64) -> Span {
        if !self.tracer.is_enabled() {
            return Span::noop();
        }
        let clock = self.clock.clone();
        self.tracer.span_arg(name, arg, move || clock.now_ns())
    }

    /// Record a point event at the current virtual time (e.g. a sampling
    /// decision). No-op when tracing is disabled.
    pub fn instant(&self, name: &'static str, arg: Option<u64>) {
        if self.tracer.is_enabled() {
            self.tracer.instant(name, self.clock.now_ns(), arg);
        }
    }

    /// Publish the ad-hoc [`MemStats`] accumulators into the tracer's
    /// metrics registry (counters for tier/traversal totals, gauges for
    /// wear), so one metrics snapshot carries everything. No-op when
    /// tracing is disabled.
    pub fn publish_metrics(&self) {
        if !self.tracer.is_enabled() {
            return;
        }
        let t = &self.tracer;
        let s = &self.stats;
        t.counter_set("nvbm.read_lines", s.nvbm.read_lines);
        t.counter_set("nvbm.write_lines", s.nvbm.write_lines);
        t.counter_set("nvbm.bytes_read", s.nvbm.bytes_read);
        t.counter_set("nvbm.bytes_written", s.nvbm.bytes_written);
        t.counter_set("dram.read_lines", s.dram.read_lines);
        t.counter_set("dram.write_lines", s.dram.write_lines);
        t.counter_set("dram.bytes_read", s.dram.bytes_read);
        t.counter_set("dram.bytes_written", s.dram.bytes_written);
        t.counter_set("trav.root_descents", s.trav.root_descents);
        t.counter_set("trav.index_hits", s.trav.index_hits);
        t.counter_set("trav.index_rebuilds", s.trav.index_rebuilds);
        t.counter_set("trav.index_rebuild_octants", s.trav.index_rebuild_octants);
        t.counter_set("trav.descent_lines", s.trav.descent_lines);
        t.gauge_set("trav.charged_lines_per_descent", s.trav.charged_lines_per_descent());
        let (max_wear, max_wear_offset) = s.max_wear();
        t.gauge_set("wear.max", max_wear as f64);
        t.gauge_set("wear.max_offset", max_wear_offset as f64);
        t.gauge_set("wear.mean", s.mean_wear());
        t.gauge_set("wear.flatness", s.wear_flatness());
        t.counter_set("wear.relocations", s.relocations());
        t.counter_set("wear.relocated_bytes", s.relocated_bytes());
        let by_region = s.bytes_by_region();
        t.counter_set("wear.bytes.root_table", by_region[0]);
        t.counter_set("wear.bytes.octree", by_region[1]);
        t.counter_set("wear.bytes.rt_heap", by_region[2]);
        t.counter_set("wear.bytes.recorder", by_region[3]);
        for (phase, bytes) in s.bytes_by_phase() {
            t.counter_set_labeled("wear.bytes_by_phase", &format!("phase=\"{phase}\""), bytes);
        }
        t.counter_set("recorder.entries", self.rec_next_seq - 1);
        t.gauge_set("write_fraction", s.overall_write_fraction());
        t.gauge_set("clock.now_secs", self.clock.now_secs());
    }

    // ---- flight recorder -------------------------------------------------

    /// Highest offset the downward-growing rt heap may occupy: the base
    /// of the recorder ring when one is carved, the device capacity
    /// otherwise. `pm-rt` uses this instead of [`NvbmArena::capacity`] so
    /// heap objects never collide with the ring.
    pub fn rt_heap_top(&self) -> u64 {
        self.regions.heap_top()
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

    /// Write the header magic, zeroed roots, and the flight-recorder ring
    /// descriptor, bypassing the cache (a freshly formatted device is by
    /// definition persistent).
    fn format(&mut self) {
        self.media[..HEADER_SIZE as usize].fill(0);
        self.media[OFF_MAGIC as usize..OFF_MAGIC as usize + 8]
            .copy_from_slice(&MAGIC.to_le_bytes());
        let bump = HEADER_SIZE;
        self.media[OFF_BUMP as usize..OFF_BUMP as usize + 8].copy_from_slice(&bump.to_le_bytes());
        self.media[OFF_REC_BASE as usize..OFF_REC_BASE as usize + 8]
            .copy_from_slice(&self.rec_base.to_le_bytes());
        self.media[OFF_REC_SLOTS as usize..OFF_REC_SLOTS as usize + 8]
            .copy_from_slice(&(self.rec_slots as u64).to_le_bytes());
    }

    /// Device capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.media.len()
    }

    /// The timing model in force.
    #[inline]
    pub fn model(&self) -> &DeviceModel {
        &self.model
    }

    fn check_range(&self, offset: u64, len: usize) {
        assert!(
            offset.checked_add(len as u64).is_some_and(|end| end <= self.media.len() as u64),
            "NVBM access out of bounds: offset {offset} len {len} capacity {}",
            self.media.len()
        );
    }

    /// Read `buf.len()` bytes at `offset`, observing un-flushed stores
    /// (the CPU reads through its own cache).
    pub fn read(&mut self, offset: u64, buf: &mut [u8]) {
        self.check_range(offset, buf.len());
        let lines = DeviceModel::lines(offset, buf.len());
        self.clock.advance(lines * self.model.nvbm.read_ns);
        self.stats.nvbm_read(buf.len(), lines);
        buf.copy_from_slice(&self.media[offset as usize..offset as usize + buf.len()]);
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
        self.cache.store(media.len(), offset, data, |start, buf| {
            buf.copy_from_slice(&media[start as usize..start as usize + buf.len()]);
        });
        self.evict_over_cap();
    }

    fn commit_line(media: &mut [u8], stats: &mut MemStats, line: u64, data: &[u8; CACHELINE]) {
        commit_line_to(media, Some(stats), line, data);
    }

    fn evict_over_cap(&mut self) {
        while self.cache.len() > self.cache_cap {
            let (line, data) = self.cache.pop_lowest().expect("cache non-empty");
            Self::commit_line(&mut self.media, &mut self.stats, line, &data);
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
            Self::commit_line(&mut self.media, &mut self.stats, line, &data);
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
            Self::commit_line(&mut self.media, &mut self.stats, line, data);
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

    // ---- domain-parallel shard support -----------------------------------

    /// An immutable snapshot of the CPU-visible device state (persistent
    /// media overlaid by a frozen copy of the dirty-line cache), taken at
    /// a domain-parallel sweep's fork point. `Sync`: N worker threads read
    /// through it concurrently while each buffers its own stores in a
    /// [`ShardWriter`].
    pub fn snapshot(&self) -> ArenaSnapshot<'_> {
        ArenaSnapshot { media: &self.media, dirty: self.cache.clone(), model: self.model }
    }

    /// Absorb one write domain's buffered stores at the join point of a
    /// domain-parallel sweep. Called serially in a fixed domain order
    /// independent of the worker count, so the resulting cache, virtual
    /// clock, stats and flight recorder are byte-identical for any number
    /// of workers.
    ///
    /// The publication edge is recorded as a *per-thread interleaving*
    /// crash opportunity before the merge: the dirty image handed to the
    /// installed [`FailPlan`] is the current cache plus this delta — the
    /// state a crash would leave had the scheduler absorbed exactly this
    /// prefix of domains before dying. As with [`NvbmArena::failpoint`],
    /// the label is first appended durably to the flight recorder.
    pub fn absorb_shard(&mut self, label: &'static str, delta: ShardDelta) {
        self.rec_mark(RecKind::Failpoint, label, delta.overlay.len() as u64);
        if let Some(mut plan) = self.plan.take() {
            let mut merged = self.cache.clone();
            merged.merge(&delta.overlay);
            plan.observe_interleave(Some(label), &self.media, &merged);
            self.plan = Some(plan);
        }
        self.clock.advance(delta.clock_ns);
        self.stats.nvbm_read(delta.read_bytes as usize, delta.read_lines);
        self.stats.nvbm_write(delta.write_bytes as usize, delta.write_lines);
        self.cache.merge(&delta.overlay);
        // The overlay's copy of the lines is not needed while they drain.
        drop(delta);
        self.evict_over_cap();
    }

    // ---- device header -------------------------------------------------

    /// An 8-byte header write, immediately flushed: the one place the
    /// protocol relies on an atomic persistent store (root-pointer swap).
    fn header_write_u64(&mut self, off: u64, v: u64) {
        debug_assert!(off + 8 <= HEADER_SIZE);
        self.write(off, &v.to_le_bytes());
        self.flush_line(off);
    }

    fn header_read_u64(&mut self, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Is the device formatted (magic present on persistent media)?
    pub fn is_formatted(&mut self) -> bool {
        self.header_read_u64(OFF_MAGIC) == MAGIC
    }

    /// Get persistent root slot `i` (`ADDR(V_i)` / `ADDR(V_{i-1})`).
    pub fn root(&mut self, slot: usize) -> POffset {
        assert!(slot < ROOT_SLOTS);
        POffset(self.header_read_u64(OFF_ROOT0 + 8 * slot as u64))
    }

    /// Atomically set persistent root slot `i`.
    pub fn set_root(&mut self, slot: usize, p: POffset) {
        assert!(slot < ROOT_SLOTS);
        self.header_write_u64(OFF_ROOT0 + 8 * slot as u64, p.0);
    }

    /// Persistent epoch counter (incremented at every persist point).
    pub fn epoch(&mut self) -> u64 {
        self.header_read_u64(OFF_EPOCH)
    }

    /// Set the persistent epoch.
    pub fn set_epoch(&mut self, e: u64) {
        self.header_write_u64(OFF_EPOCH, e);
    }

    /// Persisted allocator bump pointer.
    pub fn bump_hint(&mut self) -> u64 {
        self.header_read_u64(OFF_BUMP)
    }

    /// Persist the allocator bump pointer.
    pub fn set_bump_hint(&mut self, b: u64) {
        self.header_write_u64(OFF_BUMP, b);
    }

    /// Stage the allocator bump pointer *without* the immediate line
    /// flush: the hint rides the next atomic header write's media commit
    /// (the root swap shares the cacheline), halving block-0 wear per
    /// persist. Safe because recovery treats the bump slot as a hint —
    /// a torn line persisting it without the root swap only wastes
    /// space, never corrupts.
    pub fn stage_bump_hint(&mut self, b: u64) {
        self.write(OFF_BUMP, &b.to_le_bytes());
    }

    /// Stage the persistent epoch without the immediate line flush (see
    /// [`NvbmArena::stage_bump_hint`]). Safe because the epoch is a
    /// monotone counter recovery only lower-bounds: a torn line that
    /// persists the epoch without the root swap merely inflates it, and
    /// restore already resumes at `max(header_epoch, scan.max_epoch)+1`.
    pub fn stage_epoch(&mut self, e: u64) {
        self.write(OFF_EPOCH, &e.to_le_bytes());
    }

    /// Persistent root of the orthogonal-persistence runtime (`pm-rt`)
    /// object table. `0` means no table has ever been committed.
    pub fn rt_root(&mut self) -> POffset {
        POffset(self.header_read_u64(OFF_RT_ROOT))
    }

    /// Atomically publish a new `pm-rt` object table: the runtime's one
    /// commit point, same atomicity argument as [`NvbmArena::set_root`].
    pub fn set_rt_root(&mut self, p: POffset) {
        self.header_write_u64(OFF_RT_ROOT, p.0);
    }

    /// Persisted floor of the `pm-rt` downward-growing heap (grows from
    /// the top of the device toward the octree's bump allocator). `0`
    /// means the heap has never been used (floor = capacity).
    pub fn rt_bump_hint(&mut self) -> u64 {
        self.header_read_u64(OFF_RT_BUMP)
    }

    /// Persist the `pm-rt` heap floor.
    pub fn set_rt_bump_hint(&mut self, b: u64) {
        self.header_write_u64(OFF_RT_BUMP, b);
    }

    // ---- live allocation boundaries --------------------------------------

    /// The octree allocator's live bump pointer: the `pm-rt` heap must
    /// not grow below this. Volatile; free to read (no media access).
    pub fn live_bump(&self) -> u64 {
        self.regions.octree_edge()
    }

    /// Publish the octree allocator's bump pointer. Called by the octree
    /// store after every allocation (and allocator rebuild) so the
    /// `pm-rt` heap sees the boundary move in real time.
    pub fn publish_bump(&mut self, b: u64) {
        self.regions.publish_octree_edge(b);
    }

    /// The `pm-rt` heap's live floor: the octree allocator must not bump
    /// past this. Volatile; free to read (no media access).
    pub fn live_rt_floor(&self) -> u64 {
        self.regions.rt_floor()
    }

    /// Publish the `pm-rt` heap floor. Called by the runtime after every
    /// heap allocation (and heap rebuild) so the octree allocator sees
    /// the boundary move in real time (and so wear attribution classifies
    /// commits above it as runtime-heap traffic).
    pub fn publish_rt_floor(&mut self, f: u64) {
        let floor = self.regions.publish_rt_floor(f);
        self.stats.set_rt_floor(floor);
    }

    /// The device's registry of pinned `pm-rt` root-table epochs (MVCC
    /// snapshot readers). The runtime consults it before freeing retired
    /// blobs; snapshot handles hold [`crate::pins::PinGuard`]s from it.
    pub fn rt_pins(&self) -> &EpochPins {
        &self.rt_pins
    }

    // ---- whole-device persistence (node reboot) --------------------------

    /// Flush and save the media image to a host file (simulates the NVBM
    /// DIMM surviving a node reboot — or a replica shipped elsewhere).
    pub fn save(&mut self, path: &Path) -> std::io::Result<()> {
        self.flush_all();
        std::fs::write(path, &self.media)
    }

    /// Load a media image saved by [`Self::save`]. Clock and stats start
    /// fresh; the dirty cache is empty (a rebooted CPU cache is cold).
    /// A file shorter than the device header (truncated or empty) is
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &Path, model: DeviceModel) -> std::io::Result<Self> {
        let media = std::fs::read(path)?;
        if (media.len() as u64) < HEADER_SIZE {
            let short = format!("{}-byte image is shorter than the arena header", media.len());
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, short));
        }
        Ok(Self::from_media(media, model))
    }

    /// Clone the persistent image of this arena (flushes first). Used by
    /// the replica feature to snapshot `V_{i-1}` onto another node.
    pub fn clone_media(&mut self) -> Vec<u8> {
        self.flush_all();
        self.media.clone()
    }

    /// Overwrite this arena's media with `image` (replica restore). Any
    /// pinned `pm-rt` snapshot epochs belong to the replaced lineage, so
    /// the pin registry is invalidated: surviving snapshot handles report
    /// `SnapshotGone` rather than reading reused blobs.
    pub fn restore_media(&mut self, image: &[u8]) {
        assert_eq!(image.len(), self.media.len(), "image size mismatch");
        self.media.copy_from_slice(image);
        self.cache.clear();
        let (bump, floor) = derive_live_bounds(&self.media);
        self.rt_pins.invalidate();
        // The image carries its own flight recorder: adopt its ring and
        // continue recording after its last surviving entry.
        let (rec_base, rec_slots) = recorder::region_of(&self.media).unwrap_or((0, 0));
        self.regions = RegionManager::from_bounds(self.media.len() as u64, rec_base, bump, floor);
        self.rec_base = rec_base;
        self.rec_slots = rec_slots;
        self.rec_next_seq = recorder::recover(&self.media).last().map_or(1, |e| e.seq + 1);
        self.stats.set_region_bounds(rec_base, floor);
    }
}

/// An immutable view of the device at a fork point: the persistent media
/// plus a frozen copy of the dirty-line cache. Reads through it see
/// exactly what [`NvbmArena::read`] saw at the moment of the snapshot,
/// with no clock or stats side effects — per-domain [`ShardWriter`]s
/// charge their own accounts and settle them at absorb time.
pub struct ArenaSnapshot<'a> {
    media: &'a [u8],
    dirty: LineTable,
    model: DeviceModel,
}

impl ArenaSnapshot<'_> {
    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.media.len()
    }

    /// The timing model in force at snapshot time.
    pub fn model(&self) -> &DeviceModel {
        &self.model
    }

    /// Read `buf.len()` bytes at `offset`, observing the stores that were
    /// un-flushed when the snapshot was taken.
    pub fn read_into(&self, offset: u64, buf: &mut [u8]) {
        assert!(
            offset.checked_add(buf.len() as u64).is_some_and(|end| end <= self.media.len() as u64),
            "NVBM snapshot access out of bounds: offset {offset} len {} capacity {}",
            buf.len(),
            self.media.len()
        );
        buf.copy_from_slice(&self.media[offset as usize..offset as usize + buf.len()]);
        self.dirty.apply_overlay(offset, buf);
    }
}

/// One write domain's private device view during a domain-parallel sweep.
///
/// Reads fall through the writer's own overlay to the shared
/// [`ArenaSnapshot`]; writes buffer into the overlay with the same
/// read-modify-write cacheline discipline as [`NvbmArena::write`].
/// Latency and access statistics accumulate locally and are charged to
/// the device when the finished overlay is absorbed
/// ([`NvbmArena::absorb_shard`]), which keeps the virtual clock and
/// stats deterministic for any worker count. Buffered stores fire no
/// crash opportunities — a shard is invisible until its publication
/// edge, which is where [`NvbmArena::absorb_shard`] injects the
/// per-thread interleaving opportunity.
pub struct ShardWriter<'a> {
    snap: &'a ArenaSnapshot<'a>,
    overlay: LineTable,
    clock_ns: u64,
    read_bytes: u64,
    read_lines: u64,
    write_bytes: u64,
    write_lines: u64,
}

impl<'a> ShardWriter<'a> {
    /// A writer with an empty overlay over `snap`.
    pub fn new(snap: &'a ArenaSnapshot<'a>) -> Self {
        ShardWriter {
            snap,
            overlay: LineTable::default(),
            clock_ns: 0,
            read_bytes: 0,
            read_lines: 0,
            write_bytes: 0,
            write_lines: 0,
        }
    }

    /// Read `buf.len()` bytes at `offset`: the writer's own stores first,
    /// then the snapshot underneath.
    pub fn read(&mut self, offset: u64, buf: &mut [u8]) {
        let lines = DeviceModel::lines(offset, buf.len());
        self.clock_ns += lines * self.snap.model.nvbm.read_ns;
        self.read_lines += lines;
        self.read_bytes += buf.len() as u64;
        self.snap.read_into(offset, buf);
        self.overlay.apply_overlay(offset, buf);
    }

    /// Buffer a store of `data` at `offset` into the overlay.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        assert!(
            offset
                .checked_add(data.len() as u64)
                .is_some_and(|end| end <= self.snap.capacity() as u64),
            "NVBM shard access out of bounds: offset {offset} len {} capacity {}",
            data.len(),
            self.snap.capacity()
        );
        if data.is_empty() {
            return;
        }
        let lines = DeviceModel::lines(offset, data.len());
        self.clock_ns += lines * self.snap.model.nvbm.write_ns;
        self.write_lines += lines;
        self.write_bytes += data.len() as u64;
        let snap = self.snap;
        self.overlay.store(snap.capacity(), offset, data, |start, buf| {
            snap.read_into(start, buf);
        });
    }

    /// Number of dirty lines currently buffered.
    pub fn dirty_lines(&self) -> usize {
        self.overlay.len()
    }

    /// Freeze this writer into a delta for [`NvbmArena::absorb_shard`].
    pub fn into_delta(self) -> ShardDelta {
        ShardDelta {
            overlay: self.overlay,
            clock_ns: self.clock_ns,
            read_bytes: self.read_bytes,
            read_lines: self.read_lines,
            write_bytes: self.write_bytes,
            write_lines: self.write_lines,
        }
    }
}

/// The buffered effects of one write domain: produced by
/// [`ShardWriter::into_delta`] on the worker side, consumed by
/// [`NvbmArena::absorb_shard`] at the serial join point. Owns its data
/// (no borrows), so it crosses thread boundaries freely.
pub struct ShardDelta {
    overlay: LineTable,
    clock_ns: u64,
    read_bytes: u64,
    read_lines: u64,
    write_bytes: u64,
    write_lines: u64,
}

impl ShardDelta {
    /// Number of dirty lines this delta merges into the device cache.
    pub fn dirty_lines(&self) -> usize {
        self.overlay.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

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

    #[test]
    fn root_slots_are_atomic_persistent() {
        let mut a = arena();
        a.set_root(0, POffset(12345));
        a.set_root(1, POffset(999));
        a.crash(CrashMode::LoseDirty);
        assert_eq!(a.root(0), POffset(12345));
        assert_eq!(a.root(1), POffset(999));
    }

    #[test]
    fn header_formatted() {
        let mut a = arena();
        assert!(a.is_formatted());
        assert_eq!(a.epoch(), 0);
        assert_eq!(a.root(0), POffset::NULL);
        assert_eq!(a.bump_hint(), HEADER_SIZE);
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
        a.set_root(0, POffset(5000));
        a.save(&path).unwrap();
        let mut b = NvbmArena::load(&path, DeviceModel::default()).unwrap();
        assert!(b.is_formatted());
        assert_eq!(b.root(0), POffset(5000));
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
        a.set_bump_hint(4096);
        a.set_rt_bump_hint(rec_base - 8192);
        let b = NvbmArena::from_media(a.clone_media(), DeviceModel::default());
        assert_eq!(b.live_bump(), 4096);
        assert_eq!(b.live_rt_floor(), rec_base - 8192);
        // restore_media re-derives too; a zero rt hint means floor = ring
        // base; an rt hint above the ring base is clamped under it.
        let mut c = arena();
        c.set_bump_hint(2048);
        let img = c.clone_media();
        let mut d = arena();
        d.publish_bump(9999);
        d.publish_rt_floor(5000);
        d.restore_media(&img);
        assert_eq!(d.live_bump(), 2048);
        assert_eq!(d.live_rt_floor(), rec_base);
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
    fn shard_writer_buffers_and_absorb_merges() {
        let mut a = arena();
        a.write(4096, b"base"); // dirty, unflushed: the snapshot must see it
        let t0 = a.clock.now_ns();
        let delta = {
            let snap = a.snapshot();
            let mut w = ShardWriter::new(&snap);
            let mut buf = [0u8; 4];
            w.read(4096, &mut buf);
            assert_eq!(&buf, b"base", "snapshot carries unflushed stores");
            w.write(4096, b"EDIT");
            w.read(4096, &mut buf);
            assert_eq!(&buf, b"EDIT", "writer reads its own overlay");
            assert_eq!(w.dirty_lines(), 1);
            w.into_delta()
        };
        assert_eq!(a.clock.now_ns(), t0, "buffered shard work charges nothing yet");
        assert_eq!(delta.dirty_lines(), 1);
        let w_lines = a.stats.nvbm.write_lines;
        a.absorb_shard("sweep::interleave", delta);
        let mut buf = [0u8; 4];
        a.read(4096, &mut buf);
        assert_eq!(&buf, b"EDIT", "absorbed overlay lands in the cache");
        // One shard read + one shard write, each a single line, plus the
        // recorder append rec_mark makes: clock moved by at least the
        // shard's own 100 + 150 ns.
        assert!(a.clock.now_ns() - t0 >= 250, "shard latency settles at absorb");
        assert!(a.stats.nvbm.write_lines > w_lines);
        // The overlay was seeded RMW from the snapshot: bytes around the
        // store survive a flush intact.
        a.flush_all();
        let mut line = [0u8; 64];
        a.read(4096, &mut line);
        assert_eq!(&line[..4], b"EDIT");
        assert!(line[4..].iter().all(|&b| b == 0));
    }

    #[test]
    fn absorb_fires_interleave_opportunity() {
        let mut a = arena();
        a.set_fail_plan(FailPlan::count());
        let delta = {
            let snap = a.snapshot();
            let mut w = ShardWriter::new(&snap);
            w.write(8192, b"dom0");
            w.into_delta()
        };
        a.absorb_shard("sweep::interleave", delta);
        let plan = a.take_fail_plan().expect("plan");
        assert_eq!(plan.interleavings(), 1);
        assert!(plan.opportunities() >= plan.interleavings());
        assert!(plan.labels().iter().any(|(_, l)| *l == "sweep::interleave"));
    }

    #[test]
    fn interleave_view_contains_prefix_of_domains() {
        // Absorbing domains serially must present the oracle with the
        // crash image of exactly the absorbed prefix: after absorbing
        // domain 0 the hook's full image holds dom0's bytes but not
        // dom1's; after absorbing domain 1 it holds both.
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<(bool, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        let mut a = arena();
        let deltas: Vec<ShardDelta> = {
            let snap = a.snapshot();
            [(8192u64, b"dom0"), (16384u64, b"dom1")]
                .iter()
                .map(|&(off, bytes)| {
                    let mut w = ShardWriter::new(&snap);
                    w.write(off, bytes);
                    w.into_delta()
                })
                .collect()
        };
        a.set_fail_plan(FailPlan::with_hook(Box::new(move |view| {
            if view.label == Some("sweep::interleave") {
                let img = view.full_image();
                log.lock()
                    .unwrap()
                    .push((&img[8192..8196] == b"dom0", &img[16384..16388] == b"dom1"));
            }
        })));
        for d in deltas {
            a.absorb_shard("sweep::interleave", d);
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.as_slice(), &[(true, false), (true, true)]);
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
