//! Circular-log heap for runtime objects (the rt region's ring).
//!
//! The octree bump-allocates **upward** from the device header; the
//! runtime appends log records into a **downward-growing ring** carved
//! from the top of the same arena. Allocation is strictly
//! log-structured: every record is appended at the ring head, and space
//! comes back when records die (superseded blobs, retired commit-chain
//! records) — plus compaction, which relocates the oldest live records
//! to the head so the space behind them opens up. Sequential appends are
//! the point: writes spread over the whole ring instead of hammering a
//! hot free-list block, which is what flattens the wear histogram
//! (Circ-Tree's argument).
//!
//! The heap keeps one record index: the live records by offset, each
//! with its append stamp, and the same records by stamp — the ring
//! order, so the oldest live record is the first of `by_age`.
//!
//! All bookkeeping here is **volatile**. Recovery never trusts it: the
//! committed table is rebuilt by chain-walking checksummed commit
//! records from the durable root pointer, and [`LogHeap::rebuild`]
//! re-seats the ring around exactly the records that walk names. Nothing
//! reads the ring between records, so a hole the head abandons is left
//! as it is, unmarked.
//!
//! Geometry: the ring occupies `[base, top)`. `top` is fixed (the
//! bottom of the flight-recorder region); `base` is the published rt
//! floor and only grows downward — by at least [`GROW_CHUNK`], never past
//! the octree's live bump pointer (`limit`). The common shapes are the
//! classic two:
//!
//! ```text
//!  not wrapped:  base ... oldest ███ head ──free──▶ top
//!  wrapped:      base ███ head ──free──▶ oldest ███ top
//! ```
//!
//! but allocation is *next-fit*, not strict head-chasing: a record an
//! MVCC snapshot pins stays live (and byte-stable) indefinitely, and a
//! pure two-shape ring would wedge the moment the head came back around
//! to a pinned record. Instead the allocator probes forward from the
//! head, jumping over live islands, wraps to the base when the top is
//! exhausted, and only then grows the window downward: geometrically
//! when the live bytes crowd it (so a working set that outgrows the
//! window settles in O(log n) laps), and by no more than keeps it at most
//! half live when it is merely fragmented — where long-lived islands
//! leave no gap wide enough for one large record, how much the window
//! grows must not hinge on where the islands happen to sit.
//! With nothing pinned every record dies in ring order and next-fit
//! degenerates to exactly the two shapes above. With no record live the
//! head returns to the base.

use std::collections::BTreeMap;

use pmoctree_nvbm::model::CACHELINE;
use pmoctree_nvbm::POffset;
use pmoctree_nvbm::PmError;

/// Step by which the ring grows downward when the current window is too
/// small. Small on purpose: growth is the fallback, recycling the
/// steady state.
pub const GROW_CHUNK: u64 = 1024;

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
    /// Next append stamp.
    stamp: u64,
    /// Live records by offset: footprint and append stamp — the spatial
    /// index the next-fit probe walks to jump over pinned islands.
    live: BTreeMap<u64, (u64, u64)>,
    /// Live record offsets by append stamp: the ring order, oldest first.
    by_age: BTreeMap<u64, u64>,
    /// Sum of live record footprints.
    live_bytes: u64,
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
            stamp: 0,
            live: BTreeMap::new(),
            by_age: BTreeMap::new(),
            live_bytes: 0,
        }
    }

    /// Ring bottom: everything in `[floor, top)` is heap territory.
    pub fn floor(&self) -> u64 {
        self.base
    }

    /// Refresh the lower limit (the octree's live bump pointer). Called
    /// before every allocation — the octree grows between runtime calls.
    pub fn set_limit(&mut self, limit: u64) {
        self.limit = limit;
    }

    /// Sum of live record footprints.
    #[cfg(test)]
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

    /// Live record offsets in ring order, oldest first.
    pub fn ring_live(&self) -> impl Iterator<Item = u64> + '_ {
        self.by_age.values().copied()
    }

    /// Append a record of `size` bytes (8-byte aligned, from
    /// [`crate::log::record_size`]): next-fit from the head (jumping
    /// over live islands such as snapshot-pinned records), wrapping to
    /// the base, growing the window downward, or failing with
    /// [`PmError::Full`] when the octree bump leaves no room.
    pub fn alloc(&mut self, size: usize) -> Result<POffset, PmError> {
        debug_assert_eq!(size % 8, 0, "record sizes are 8-byte aligned");
        let need = size as u64;
        let off = match self.probe(self.head, need).or_else(|| self.probe(self.base, need)) {
            Some(at) => at,
            None => {
                // No gap anywhere in the window: grow it downward —
                // by half, at most, when the octree permits, minimally
                // if that is too greedy — and place at the new base. The
                // step is what the window lacks to stay at most half
                // live with the new record, so a fragmented window grows
                // by about the record and a crowded one geometrically.
                let lack = (2 * (self.live_bytes + need)).saturating_sub(self.window());
                let want = need.max(GROW_CHUNK).max(lack.min(self.window() / 2));
                if self.grow_base(want).is_err() {
                    self.grow_base(need)?;
                }
                self.base
            }
        };
        self.head = off + need;
        self.insert(off, need);
        Ok(POffset(off))
    }

    /// Index a new live record as the youngest.
    fn insert(&mut self, off: u64, size: u64) {
        self.live.insert(off, (size, self.stamp));
        self.by_age.insert(self.stamp, off);
        self.stamp += 1;
        self.live_bytes += size;
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
            match self.live.range(at..).next() {
                Some((&off, &(sz, _))) if off < end => at = off + sz,
                _ => return Some(at),
            }
        }
    }

    /// Extend the window downward so `[new_base, old_base)` holds `need`
    /// bytes (cacheline-aligned), refusing to cross the octree bump.
    fn grow_base(&mut self, need: u64) -> Result<(), PmError> {
        let line = CACHELINE as u64 - 1;
        let new_base = self.base.saturating_sub(need) & !line;
        if new_base >= self.limit && self.base - new_base >= need {
            self.base = new_base;
            return Ok(());
        }
        Err(PmError::Full(format!(
            "rt log base {:#x} would cross the octree bump pointer {:#x} growing {need} bytes",
            self.base, self.limit
        )))
    }

    /// Footprint of the live record at `off`.
    pub fn footprint(&self, off: u64) -> Option<u64> {
        self.live.get(&off).map(|&(size, _)| size)
    }

    /// Store a new record of at most the footprint of the live record at
    /// `off` in its slot: the new record is the youngest, and the slot
    /// keeps its footprint (the head stays).
    pub fn reuse(&mut self, off: u64) {
        if let Some((size, stamp)) = self.live.remove(&off) {
            self.by_age.remove(&stamp);
            self.live_bytes -= size;
            self.insert(off, size);
        }
    }

    /// Mark the record at `off` dead; its space is free for the next
    /// probe that reaches it. With no record left live, the head returns
    /// to the base.
    pub fn mark_dead(&mut self, off: u64) {
        if let Some((size, stamp)) = self.live.remove(&off) {
            self.by_age.remove(&stamp);
            self.live_bytes -= size;
        }
        if self.live.is_empty() {
            self.head = self.base;
        }
    }

    /// Rebuild after a crash: `live` is the set of `(offset, footprint)`
    /// records the recovered commit chain names (blob records of live
    /// entries plus the chain records themselves). The ring is re-seated
    /// not-wrapped around them: base under the lowest record and the
    /// persisted floor hint (clamped under `top`; a hint below `limit`,
    /// inside the octree's territory, is none), head after the highest.
    /// Gaps between live records are free for the next probe; the records
    /// age in offset order.
    pub fn rebuild(
        limit: u64,
        top: u64,
        floor_hint: u64,
        live: impl IntoIterator<Item = (POffset, u64)>,
    ) -> Result<Self, PmError> {
        let mut h = LogHeap::new(limit, top);
        let mut recs: Vec<(u64, u64)> = live.into_iter().map(|(p, s)| (p.0, s)).collect();
        recs.sort_unstable();
        let mut base = if floor_hint < limit { h.top } else { floor_hint.min(h.top) };
        if let Some(&(lowest, _)) = recs.first() {
            base = base.min(lowest);
        }
        let base = base & !(CACHELINE as u64 - 1);
        if base < limit {
            return Err(PmError::Corrupt(format!("rt log base {base:#x} below limit {limit:#x}")));
        }
        let mut cursor = base;
        for &(off, size) in &recs {
            if off < cursor {
                return Err(PmError::Corrupt(format!("overlapping rt log records at {off:#x}")));
            }
            let end = off
                .checked_add(size)
                .ok_or_else(|| PmError::Corrupt(format!("rt log record at {off:#x} overflows")))?;
            if end > h.top {
                return Err(PmError::Corrupt(format!(
                    "rt log record ends at {end:#x} past top {:#x}",
                    h.top
                )));
            }
            h.insert(off, size);
            cursor = end;
        }
        h.base = base;
        h.head = cursor;
        Ok(h)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::log::{record_size, REC_HEADER, REC_TRAILER};

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
        // Kill the four oldest: their space opens up, the head can wrap.
        for &o in &offs[..4] {
            h.mark_dead(o);
        }
        let floor = h.floor();
        let wrapped = h.alloc(64).unwrap();
        assert!(wrapped.0 < offs[15], "the append lands below an earlier one");
        assert_eq!((wrapped.0, h.floor()), (floor, floor), "wrap lands at the ring base");
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

    /// A window whose live bytes would fill a quarter of it, in islands
    /// too close for a large record, grows by that record; a window the
    /// live bytes fill grows by half.
    #[test]
    fn a_fragmented_window_grows_by_the_record_a_crowded_one_by_half() {
        let (top, window) = (1u64 << 20, 64u64 << 10);
        let grown = |every: u64| {
            // 64-byte records every `every` bytes over the whole window.
            let live = (0..window / every).map(|i| (POffset(top - window + i * every), 64));
            let mut h = LogHeap::rebuild(0, top, top - window, live).unwrap();
            assert_eq!(h.window(), window);
            let big = h.alloc(2048).unwrap();
            assert_eq!(big.0, h.floor(), "the record lands at the new base");
            top - window - h.floor()
        };
        assert_eq!(grown(256), 2048, "fragmented: grown by the record");
        assert_eq!(grown(64), window / 2, "crowded: grown by half");
    }

    #[test]
    fn a_head_flush_against_a_live_island_grows_past_it() {
        let mut h = LogHeap::new(0, 4096);
        let offs: Vec<u64> = (0..16).map(|_| h.alloc(64).unwrap().0).collect();
        // Free one mid-ring slot; the next alloc wraps into it and
        // leaves the head flush against the live record behind the hole.
        h.mark_dead(offs[2]);
        let w = h.alloc(64).unwrap();
        assert_eq!(w.0, offs[2]);
        // The head now sits exactly at a live record, and every record
        // is live: the next alloc must grow, not land on the island.
        let grown = h.alloc(64).unwrap();
        assert!(grown.0 < offs[0], "fully-live ring grows instead of overwriting");
        for &o in offs.iter().filter(|&&o| o != offs[2]) {
            assert!(h.live.contains_key(&o), "live records survive the wrap");
        }
    }

    #[test]
    fn the_ring_yields_each_live_record_once_oldest_first() {
        // `a_head_flush_against_a_live_island_grows_past_it`'s scenario:
        // kill a mid-ring record, then wrap an append into its hole. The
        // reused offset is the youngest record, listed once.
        let mut h = LogHeap::new(0, 4096);
        let offs: Vec<u64> = (0..16).map(|_| h.alloc(64).unwrap().0).collect();
        h.mark_dead(offs[2]);
        assert_eq!(h.alloc(64).unwrap().0, offs[2]);
        let ring: Vec<u64> = h.ring_live().collect();
        let mut want: Vec<u64> = offs.iter().copied().filter(|&o| o != offs[2]).collect();
        want.push(offs[2]);
        assert_eq!(ring, want, "each live record once, in append order");
        assert_eq!(h.live_bytes(), 64 * 16);
        // Every record dies, oldest first: the next append lands at the
        // base, not behind a record that is gone.
        for o in ring {
            h.mark_dead(o);
        }
        assert_eq!((h.ring_live().count(), h.live_bytes()), (0, 0));
        assert_eq!(h.alloc(64).unwrap().0, h.floor());
    }

    #[test]
    fn wrapped_ring_reports_full_not_overwrite() {
        // Pin the window to exactly 1024 bytes by placing the octree
        // limit right under it: a wedged ring must report Full, never
        // overwrite a live record.
        let mut h = LogHeap::new(4096 - GROW_CHUNK, 4096);
        let offs: Vec<u64> = (0..16).map(|_| h.alloc(64).unwrap().0).collect();
        h.mark_dead(offs[0]); // the oldest slot free
        let w = h.alloc(64).unwrap();
        assert_eq!(w.0, h.floor());
        // Gap now zero, every record live, growth blocked by the limit.
        let err = h.alloc(64).unwrap_err();
        assert!(matches!(err, PmError::Full(_)));
        assert!(format!("{err}").contains("cross the octree bump pointer"));
        for &o in &offs[1..] {
            assert!(h.live.contains_key(&o), "no live record may be overwritten");
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
            assert!(record_size(len) >= REC_HEADER + len + REC_TRAILER);
        }
    }
}
