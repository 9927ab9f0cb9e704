//! Circular-log heap for runtime objects (the rt region's ring).
//!
//! The octree bump-allocates **upward** from the device header; the
//! runtime appends log records **downward-growing ring** carved from the
//! top of the same arena. Unlike the old size-class free-list heap,
//! allocation is strictly log-structured: every record is appended at
//! the ring head, the tail chases the oldest still-live record, and
//! space is reclaimed by the tail sweeping over records that died
//! (superseded blobs, retired commit-chain records) — plus compaction,
//! which relocates live tail records to the head so the tail can keep
//! moving. Sequential appends are the point: writes spread over the
//! whole ring instead of hammering a hot free-list block, which is what
//! flattens the wear histogram (Circ-Tree's argument).
//!
//! All bookkeeping here is **volatile**. Recovery never trusts it: the
//! committed table is rebuilt by chain-walking checksummed commit
//! records from the durable root pointer, and [`LogHeap::rebuild`]
//! re-seats the ring around exactly the records that walk names.
//!
//! Geometry: the ring occupies `[base, top)`. `top` is fixed (the
//! bottom of the flight-recorder region); `base` is the published rt
//! floor and only grows downward — in [`GROW_CHUNK`] steps, never past
//! the octree's live bump pointer (`limit`). The common shapes are the
//! classic two:
//!
//! ```text
//!  not wrapped:  base ... tail ███ head ──free──▶ top
//!  wrapped:      base ███ head ──free──▶ tail ███ top
//! ```
//!
//! but allocation is *next-fit*, not strict head-chasing: a record an
//! MVCC snapshot pins stays live (and byte-stable) indefinitely, and a
//! pure two-shape ring would wedge the moment the head came back around
//! to a pinned tail. Instead the allocator probes forward from the head,
//! jumping over live islands, wraps to the base when the top is
//! exhausted, and only then grows the window downward (geometrically, so
//! a working set that outgrows the window settles in O(log n) laps).
//! With nothing pinned every record dies in ring order and next-fit
//! degenerates to exactly the two shapes above.

use std::collections::{BTreeMap, HashMap, VecDeque};

use pmoctree_nvbm::model::CACHELINE;
use pmoctree_nvbm::POffset;

use crate::log::REC_HEADER;
use crate::rt::RtError;

/// Step by which the ring grows downward when the current window is too
/// small. Small on purpose: growth is the fallback, tail recycling the
/// steady state.
pub const GROW_CHUNK: u64 = 1024;

#[derive(Debug, Clone, Copy)]
struct RecMeta {
    size: u64,
    live: bool,
}

/// Volatile bookkeeping for the circular record log in `[base, top)`.
#[derive(Debug, Clone)]
pub struct LogHeap {
    /// Ring bottom — the published rt floor. Grows downward only.
    base: u64,
    /// Ring top (fixed; cacheline-aligned).
    top: u64,
    /// Lower bound the ring must never cross (octree live bump).
    limit: u64,
    /// Next append offset.
    head: u64,
    /// Next record sequence number.
    seq: u64,
    /// Record offsets in append (ring) order, oldest first.
    order: VecDeque<u64>,
    /// Per-record footprint and liveness.
    meta: HashMap<u64, RecMeta>,
    /// Live records by offset — the spatial index the next-fit probe
    /// walks to jump over pinned islands.
    live_index: BTreeMap<u64, u64>,
    /// Sum of live record footprints.
    live_bytes: u64,
    /// Wrap gap the caller still has to stamp with a pad header.
    pending_pad: Option<(u64, u64)>,
    /// Number of head wraps (telemetry).
    laps: u64,
}

impl LogHeap {
    /// Fresh empty ring under `top` (rounded down to a cacheline). The
    /// ring starts zero-sized and grows downward on first use.
    pub fn new(limit: u64, top: u64) -> Self {
        let top = top & !(CACHELINE as u64 - 1);
        LogHeap {
            base: top,
            top,
            limit,
            head: top,
            seq: 0,
            order: VecDeque::new(),
            meta: HashMap::new(),
            live_index: BTreeMap::new(),
            live_bytes: 0,
            pending_pad: None,
            laps: 0,
        }
    }

    /// Ring bottom: everything in `[floor, top)` is heap territory.
    pub fn floor(&self) -> u64 {
        self.base
    }

    /// Fixed ring top.
    pub fn top(&self) -> u64 {
        self.top
    }

    /// Refresh the lower limit (the octree's live bump pointer). Called
    /// before every allocation — the octree grows between runtime calls.
    pub fn set_limit(&mut self, limit: u64) {
        self.limit = limit;
    }

    /// Sum of live record footprints.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Current ring window size.
    pub fn window(&self) -> u64 {
        self.top - self.base
    }

    /// Live bytes over window size — the compaction watermark input.
    pub fn occupancy(&self) -> f64 {
        let w = self.window();
        if w == 0 {
            0.0
        } else {
            self.live_bytes as f64 / w as f64
        }
    }

    /// Number of head wraps so far.
    pub fn laps(&self) -> u64 {
        self.laps
    }

    /// Next record sequence number (consumes it).
    pub fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Is `off` a live record?
    pub fn is_live(&self, off: u64) -> bool {
        self.meta.get(&off).is_some_and(|m| m.live)
    }

    /// Live record offsets in ring order, oldest first.
    pub fn ring_live(&self) -> impl Iterator<Item = u64> + '_ {
        self.order.iter().copied().filter(|o| self.is_live(*o))
    }

    /// The wrap gap produced by the last [`LogHeap::alloc`], if any:
    /// `(offset, skip)` for a pad header the caller must write so a
    /// forward scan can jump the gap. Draining is the caller's job.
    pub fn take_pending_pad(&mut self) -> Option<(u64, u64)> {
        self.pending_pad.take()
    }

    /// Append a record of `size` bytes (8-byte aligned, from
    /// [`crate::log::record_size`]): next-fit from the head (jumping
    /// over live islands such as snapshot-pinned records), wrapping to
    /// the base, growing the window downward, or failing with
    /// [`RtError::Full`] when the octree bump leaves no room.
    pub fn alloc(&mut self, size: usize) -> Result<POffset, RtError> {
        debug_assert_eq!(size % 8, 0, "record sizes are 8-byte aligned");
        let need = size as u64;
        self.advance_tail();
        let off = if let Some(at) = self.probe(self.head, need) {
            at
        } else {
            // The head abandons its hole: stamp a pad header over the
            // free bytes so a forward scan can jump the seam. The pad
            // must stop at the next live island, not the top — under
            // next-fit the span `[head, top)` can contain live records,
            // and the head can sit flush against one (a probe places
            // records ending exactly where an island begins), so a
            // top-sized pad would clobber a live record header.
            let hole_end =
                self.live_index.range(self.head..).next().map_or(self.top, |(&off, _)| off);
            let gap = hole_end - self.head;
            if gap >= REC_HEADER as u64 {
                self.pending_pad = Some((self.head, gap - REC_HEADER as u64));
            }
            if let Some(at) = self.probe(self.base, need) {
                self.laps += 1;
                at
            } else {
                // No gap anywhere in the window: grow it downward —
                // geometrically when the octree permits, minimally if
                // that is too greedy — and place at the new base.
                let want = need.max(GROW_CHUNK).max(self.window() / 2);
                if self.grow_base(want).is_err() {
                    self.grow_base(need)?;
                }
                self.base
            }
        };
        self.head = off + need;
        self.order.push_back(off);
        self.meta.insert(off, RecMeta { size: need, live: true });
        self.live_index.insert(off, need);
        self.live_bytes += need;
        Ok(POffset(off))
    }

    /// Lowest offset `at >= from` where `need` bytes fit strictly below
    /// the next live record (and under the top). Live records never
    /// overlap and never start below `base`, so walking the spatial
    /// index from `at` upward visits every island in the way.
    fn probe(&self, from: u64, need: u64) -> Option<u64> {
        let mut at = from.max(self.base);
        loop {
            let end = at.checked_add(need)?;
            if end > self.top {
                return None;
            }
            match self.live_index.range(at..).next() {
                Some((&off, &sz)) if off < end => at = off + sz,
                _ => return Some(at),
            }
        }
    }

    /// Extend the window downward so `[new_base, old_base)` holds `need`
    /// bytes (cacheline-aligned), refusing to cross the octree bump.
    fn grow_base(&mut self, need: u64) -> Result<(), RtError> {
        let line = CACHELINE as u64 - 1;
        let new_base = self.base.saturating_sub(need) & !line;
        if new_base >= self.limit && self.base - new_base >= need {
            self.base = new_base;
            return Ok(());
        }
        Err(RtError::Full(format!(
            "rt log base {:#x} would cross the octree bump pointer {:#x} growing {need} bytes",
            self.base, self.limit
        )))
    }

    /// Mark the record at `off` dead; its space is free for the next
    /// probe that reaches it.
    pub fn mark_dead(&mut self, off: u64) {
        if let Some(m) = self.meta.get_mut(&off) {
            if m.live {
                m.live = false;
                self.live_bytes -= m.size;
                self.live_index.remove(&off);
            }
        }
        self.advance_tail();
    }

    /// Pop dead records off the ring tail.
    fn advance_tail(&mut self) {
        while let Some(&front) = self.order.front() {
            match self.meta.get(&front) {
                Some(m) if !m.live => {
                    self.order.pop_front();
                    self.meta.remove(&front);
                }
                _ => break,
            }
        }
        if self.order.is_empty() {
            self.head = self.base;
        }
    }

    /// Rebuild after a crash: `live` is the set of `(offset, footprint)`
    /// records the recovered commit chain names (blob records of live
    /// entries plus the chain records themselves). The ring is re-seated
    /// not-wrapped around them: base under the lowest record (clamped by
    /// the persisted floor hint), head after the highest. Gaps between
    /// live records are reclaimed as the tail sweeps past them.
    pub fn rebuild(
        limit: u64,
        top: u64,
        floor_hint: u64,
        live: impl IntoIterator<Item = (POffset, u64)>,
    ) -> Result<Self, RtError> {
        let mut h = LogHeap::new(limit, top);
        let mut recs: Vec<(u64, u64)> = live.into_iter().map(|(p, s)| (p.0, s)).collect();
        recs.sort_unstable();
        let mut base = h.top.min(if floor_hint == 0 { h.top } else { floor_hint });
        if let Some(&(lowest, _)) = recs.first() {
            base = base.min(lowest);
        }
        let base = base & !(CACHELINE as u64 - 1);
        if base < limit {
            return Err(RtError::Corrupt(format!("rt log base {base:#x} below limit {limit:#x}")));
        }
        let mut cursor = base;
        for &(off, size) in &recs {
            if off < cursor {
                return Err(RtError::Corrupt(format!("overlapping rt log records at {off:#x}")));
            }
            let end = off
                .checked_add(size)
                .ok_or_else(|| RtError::Corrupt(format!("rt log record at {off:#x} overflows")))?;
            if end > h.top {
                return Err(RtError::Corrupt(format!(
                    "rt log record ends at {end:#x} past top {:#x}",
                    h.top
                )));
            }
            h.order.push_back(off);
            h.meta.insert(off, RecMeta { size, live: true });
            h.live_index.insert(off, size);
            h.live_bytes += size;
            cursor = end;
        }
        h.base = base;
        h.head = if cursor == base { base } else { cursor };
        Ok(h)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::log::record_size;

    #[test]
    fn appends_are_sequential_and_grow_on_demand() {
        let mut h = LogHeap::new(256, 4096);
        let a = h.alloc(64).unwrap();
        let b = h.alloc(64).unwrap();
        // First alloc grows one chunk down from the top.
        assert_eq!(a.0, 4096 - GROW_CHUNK);
        assert_eq!(b.0, a.0 + 64);
        assert_eq!(h.floor(), 4096 - GROW_CHUNK);
        assert_eq!(h.live_bytes(), 128);
    }

    #[test]
    fn tail_death_lets_the_head_wrap() {
        let mut h = LogHeap::new(0, 4096);
        // Fill the initial 1024-byte window with 16 64-byte records.
        let offs: Vec<u64> = (0..16).map(|_| h.alloc(64).unwrap().0).collect();
        // Kill the four oldest: the tail sweeps, the head can wrap.
        for &o in &offs[..4] {
            h.mark_dead(o);
        }
        let wrapped = h.alloc(64).unwrap();
        assert_eq!(wrapped.0, h.floor(), "wrap lands at the ring base");
        assert_eq!(h.laps(), 1);
        // The wrapped gap holds three more records; with the gap
        // exhausted and every remaining record live, the next append
        // grows the window below the old base — never an overwrite.
        for _ in 0..3 {
            h.alloc(64).unwrap();
        }
        let old_floor = h.floor();
        let grown = h.alloc(64).unwrap();
        assert!(grown.0 < old_floor, "a full wrapped ring grows instead of overwriting");
        assert_eq!(h.floor(), grown.0);
    }

    #[test]
    fn full_window_grows_downward_when_all_live() {
        let mut h = LogHeap::new(0, 4096);
        let offs: Vec<u64> = (0..16).map(|_| h.alloc(64).unwrap().0).collect();
        let grown = h.alloc(64).unwrap();
        assert!(grown.0 < offs[0], "growth extends below the old base");
        assert_eq!(h.floor(), offs[0] - GROW_CHUNK);
    }

    #[test]
    fn wrap_gap_yields_a_pending_pad() {
        let mut h = LogHeap::new(0, 4096);
        // 240-byte records: 4 fit in the 1024 window with a 64-byte gap.
        let offs: Vec<u64> = (0..4).map(|_| h.alloc(240).unwrap().0).collect();
        for &o in &offs[..2] {
            h.mark_dead(o);
        }
        let w = h.alloc(240).unwrap();
        assert_eq!(w.0, h.floor());
        let (pad_off, skip) = h.take_pending_pad().unwrap();
        assert_eq!(pad_off, offs[3] + 240);
        assert_eq!(skip as usize, 64 - REC_HEADER);
        assert!(h.take_pending_pad().is_none(), "pad drains once");
    }

    #[test]
    fn pad_never_covers_a_live_island() {
        let mut h = LogHeap::new(0, 4096);
        let offs: Vec<u64> = (0..16).map(|_| h.alloc(64).unwrap().0).collect();
        // Free one mid-ring slot; the next alloc wraps into it and
        // leaves the head flush against the live record behind the hole.
        h.mark_dead(offs[2]);
        let w = h.alloc(64).unwrap();
        assert_eq!(w.0, offs[2]);
        assert!(h.take_pending_pad().is_none(), "zero-width top hole yields no pad");
        // The head now sits exactly at a live record. The next alloc
        // abandons the (zero-width) hole and wraps again; stamping a
        // top-sized pad here would overwrite the live header at the head.
        let grown = h.alloc(64).unwrap();
        assert!(h.take_pending_pad().is_none(), "no pad over the live island at the head");
        assert!(grown.0 < offs[0], "fully-live ring grows instead of overwriting");
        for &o in offs.iter().filter(|&&o| o != offs[2]) {
            assert!(h.is_live(o), "live records survive the wrap");
        }
    }

    #[test]
    fn wrapped_ring_reports_full_not_overwrite() {
        // Pin the window to exactly 1024 bytes by placing the octree
        // limit right under it: a wedged ring must report Full, never
        // overwrite a live record.
        let mut h = LogHeap::new(4096 - GROW_CHUNK, 4096);
        let offs: Vec<u64> = (0..16).map(|_| h.alloc(64).unwrap().0).collect();
        h.mark_dead(offs[0]); // one tail slot free
        let w = h.alloc(64).unwrap();
        assert_eq!(w.0, h.floor());
        // Gap now zero, every record live, growth blocked by the limit.
        let err = h.alloc(64).unwrap_err();
        assert!(matches!(err, RtError::Full(_)));
        assert!(format!("{err}").contains("cross the octree bump pointer"));
        for &o in &offs[1..] {
            assert!(h.is_live(o), "no live record may be overwritten");
        }
    }

    #[test]
    fn refuses_to_cross_limit() {
        let mut h = LogHeap::new(4096 - 64, 4096);
        assert!(h.alloc(64).is_ok());
        let err = h.alloc(64).unwrap_err();
        assert!(format!("{err}").contains("cross the octree bump pointer"));
    }

    #[test]
    fn rebuild_seats_ring_around_live_records() {
        let top = 4096u64;
        let live = vec![(POffset(top - 128), 64), (POffset(top - 320), 128)];
        let h = LogHeap::rebuild(256, top, top - 320, live).unwrap();
        assert_eq!(h.floor(), top - 320);
        assert_eq!(h.live_bytes(), 192);
        // Head sits after the highest record; the next append goes there
        // (nothing fits above, so it wraps or grows — here top-64 fits).
        let mut h = h;
        assert_eq!(h.alloc(64).unwrap().0, top - 64);
        // Ring order is ascending-offset after rebuild.
        let ring: Vec<u64> = h.ring_live().collect();
        assert_eq!(ring, vec![top - 320, top - 128, top - 64]);
    }

    #[test]
    fn rebuild_rejects_overlap_and_overflow() {
        let live = vec![(POffset(1024), 64), (POffset(1024), 64)];
        assert!(LogHeap::rebuild(256, 4096, 0, live).is_err());
        assert!(LogHeap::rebuild(256, 4096, 0, vec![(POffset(4096 - 32), 64)]).is_err());
        assert!(LogHeap::rebuild(4096, 4096, 64, vec![(POffset(64), 64)]).is_err());
    }

    #[test]
    fn record_size_is_the_footprint_currency() {
        // The ring allocates whole record footprints; make sure the
        // codec's sizing stays 8-byte aligned for any payload.
        for len in 0..128 {
            assert_eq!(record_size(len) % 8, 0);
            assert!(record_size(len) >= REC_HEADER + len + 4);
        }
    }
}
