//! Access accounting: read/write counts, byte volumes, wear map.
//!
//! The paper reports (a) the fraction of memory accesses that are writes
//! (41% average, 72% max for the droplet workload, §1), (b) NVBM write
//! counts saved by dynamic transformation (−31%, §5.5), and (c) implies
//! endurance pressure (Table 2). This module supplies those counters.

use serde::Serialize;

use crate::region::{classify_at, RegionKind};

/// Counters for one memory tier.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TierStats {
    /// Number of cacheline read operations.
    pub read_lines: u64,
    /// Number of cacheline write operations.
    pub write_lines: u64,
    /// Bytes read (as requested, not rounded to lines).
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

impl TierStats {
    /// Total line accesses.
    pub fn total_lines(&self) -> u64 {
        self.read_lines + self.write_lines
    }

    /// Fraction of accesses that are writes (0 when idle).
    pub fn write_fraction(&self) -> f64 {
        let t = self.total_lines();
        if t == 0 {
            0.0
        } else {
            self.write_lines as f64 / t as f64
        }
    }

    fn add(&mut self, other: &TierStats) {
        self.read_lines += other.read_lines;
        self.write_lines += other.write_lines;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }
}

/// Counters for *how* octants were located, independent of which tier paid
/// for the accesses. They make the sorted-leaf-index optimisation
/// observable: a query answered by the DRAM index bumps `index_hits`, a
/// query that had to walk the tree from the root bumps `root_descents`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TraversalStats {
    /// Full root-to-leaf descents taken (per-hop octant reads charged to
    /// whichever tier each hop lived in).
    pub root_descents: u64,
    /// Containment / neighbor queries answered from the Morton-sorted
    /// DRAM leaf index (no tree walk).
    pub index_hits: u64,
    /// Times the leaf index was rebuilt from a full leaf enumeration.
    pub index_rebuilds: u64,
    /// Octants enumerated across all index rebuilds (the rebuild cost; the
    /// enumeration's tier charges are accounted separately by the owner).
    pub index_rebuild_octants: u64,
    /// Cachelines charged (any tier) across all root-to-leaf descents.
    /// `descent_lines / root_descents` is the per-hit cost the hot/cold
    /// octant layout is designed to shrink: one navigation line per hop.
    pub descent_lines: u64,
}

impl TraversalStats {
    fn add(&mut self, other: &TraversalStats) {
        self.root_descents += other.root_descents;
        self.index_hits += other.index_hits;
        self.index_rebuilds += other.index_rebuilds;
        self.index_rebuild_octants += other.index_rebuild_octants;
        self.descent_lines += other.descent_lines;
    }

    /// Mean cachelines charged per root-to-leaf descent (0 when no
    /// descents ran).
    pub fn charged_lines_per_descent(&self) -> f64 {
        if self.root_descents == 0 {
            0.0
        } else {
            self.descent_lines as f64 / self.root_descents as f64
        }
    }
}

/// Canonical attribution regions of an NVBM device, in reporting order:
/// the header (root slots + allocator hints), the octree allocator's
/// upward territory, the `pm-rt` heap growing down from the top, and the
/// flight-recorder ring above it.
pub const REGIONS: [&str; 4] = ["root_table", "octree", "rt_heap", "recorder"];

/// A `(name, bytes)` attribution row — the compat serde has no map
/// support, so breakdowns serialize as vectors of these.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize)]
pub struct NamedBytes {
    /// Region or phase name.
    pub name: String,
    /// Bytes committed to media under that name.
    pub bytes: u64,
}

/// Serializable wear / write-amplification report: where committed bytes
/// landed (region), which protocol phase pushed them (phase), and how
/// unevenly the wear blocks absorbed them (histogram).
#[derive(Debug, Default, Clone, PartialEq, Serialize)]
pub struct WearReport {
    /// Committed bytes per device region, in [`REGIONS`] order.
    pub bytes_by_region: Vec<NamedBytes>,
    /// Committed bytes per protocol phase, sorted by phase name.
    pub bytes_by_phase: Vec<NamedBytes>,
    /// Log2-bucketed block-wear histogram: `wear_hist[i]` counts wear
    /// blocks whose commit count is in `[2^i, 2^(i+1))`; the last bucket
    /// absorbs everything ≥ 2^15. Untouched blocks are not counted.
    pub wear_hist: Vec<u64>,
    /// Commit count of the hottest wear block.
    pub max_wear: u32,
    /// Byte offset of the hottest wear block.
    pub max_wear_offset: u64,
    /// Mean commits over blocks ever written.
    pub mean_wear: f64,
    /// Wear blocks written at least once.
    pub blocks_touched: u64,
    /// Total bytes committed to media (sum over regions).
    pub bytes_committed: u64,
    /// Wear-leveling relocations performed (blobs/octants moved off hot
    /// blocks).
    pub relocations: u64,
    /// Bytes moved by wear-leveling relocations.
    pub relocated_bytes: u64,
    /// Wear flatness: hottest block's commit count over the mean (1.0 =
    /// perfectly even; 0 when nothing was ever committed). Post-relocation
    /// wear — blocks a relocation vacated count only their traffic since
    /// the move.
    pub flatness: f64,
}

/// Combined DRAM + NVBM accounting plus a per-block wear map for the NVBM
/// device.
#[derive(Debug, Clone)]
pub struct MemStats {
    /// DRAM tier counters (the C0 tree instruments itself through these).
    pub dram: TierStats,
    /// NVBM tier counters.
    pub nvbm: TierStats,
    /// Octant-location counters (root descents vs. leaf-index hits).
    pub trav: TraversalStats,
    /// Writes per 4 KiB wear block of the NVBM arena (committed lines).
    wear: Vec<u32>,
    /// Wear level each block had when a relocation last vacated it; the
    /// readouts subtract this so a block the GC has already cooled no
    /// longer reads as the live hot spot (only its post-move traffic
    /// counts).
    wear_baseline: Vec<u32>,
    /// Wear-leveling relocations recorded via [`MemStats::note_relocation`].
    relocations: u64,
    /// Bytes moved by those relocations.
    relocated_bytes: u64,
    /// Protocol phase commits are currently attributed to ("" = mutate).
    phase: &'static str,
    /// Base of the flight-recorder ring (0 = none): commits at or above
    /// it are recorder traffic.
    rec_base: u64,
    /// Live `pm-rt` heap floor (0 = none): commits in `[rt_floor,
    /// rec_base)` are runtime-heap traffic.
    rt_floor: u64,
    /// Committed bytes per region, [`REGIONS`] order.
    bytes_by_region: [u64; REGIONS.len()],
    /// Committed bytes per phase tag, sorted by tag. A phase gets its
    /// entry with its first commit.
    bytes_by_phase: Vec<(&'static str, u64)>,
    /// Position of `phase` in `bytes_by_phase`, if it has an entry:
    /// resolved when the phase is set, so that each commit is an indexed
    /// add instead of a string-keyed search.
    phase_slot: Option<usize>,
}

/// Wear-map block granularity.
pub const WEAR_BLOCK: usize = 4096;

/// The attribution phase in force when none was ever set: ordinary
/// mutation traffic between protocol phases.
pub const PHASE_MUTATE: &str = "mutate";

impl Default for MemStats {
    fn default() -> Self {
        MemStats::new(0)
    }
}

impl MemStats {
    /// Stats for an arena of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        MemStats {
            dram: TierStats::default(),
            nvbm: TierStats::default(),
            trav: TraversalStats::default(),
            wear: vec![0; capacity.div_ceil(WEAR_BLOCK)],
            wear_baseline: vec![0; capacity.div_ceil(WEAR_BLOCK)],
            relocations: 0,
            relocated_bytes: 0,
            phase: PHASE_MUTATE,
            rec_base: 0,
            rt_floor: 0,
            bytes_by_region: [0; REGIONS.len()],
            bytes_by_phase: Vec::new(),
            phase_slot: None,
        }
    }

    // ---- write attribution ----------------------------------------------

    /// Set the protocol phase subsequent commits are attributed to;
    /// returns the previous phase so callers can restore it when the
    /// phase ends (phases nest, e.g. `rt::commit` inside a persist hook).
    pub fn set_phase(&mut self, phase: &'static str) -> &'static str {
        self.phase_slot = self.find_phase(phase).ok();
        std::mem::replace(&mut self.phase, phase)
    }

    /// Position of `phase` in `bytes_by_phase`, or where it would go.
    fn find_phase(&self, phase: &str) -> Result<usize, usize> {
        self.bytes_by_phase.binary_search_by_key(&phase, |e| e.0)
    }

    /// The attribution phase in force.
    pub fn phase(&self) -> &'static str {
        self.phase
    }

    /// Publish the region boundaries commits are classified against: the
    /// flight-recorder ring base and the live `pm-rt` heap floor (0 for
    /// "none"). The owning arena keeps these fresh.
    pub fn set_region_bounds(&mut self, rec_base: u64, rt_floor: u64) {
        self.rec_base = rec_base;
        self.rt_floor = rt_floor;
    }

    /// Update just the live `pm-rt` heap floor.
    pub fn set_rt_floor(&mut self, rt_floor: u64) {
        self.rt_floor = rt_floor;
    }

    fn region_index(&self, offset: u64) -> usize {
        // One classification rule for the whole crate: the region
        // manager's (see `region::classify_at`).
        match classify_at(offset, self.rec_base, self.rt_floor) {
            RegionKind::RootTable => 0,
            RegionKind::Octree => 1,
            RegionKind::RtHeap => 2,
            RegionKind::Recorder => 3,
        }
    }

    /// Committed bytes per region, [`REGIONS`] order.
    pub fn bytes_by_region(&self) -> [u64; REGIONS.len()] {
        self.bytes_by_region
    }

    /// Committed bytes per phase tag, in name order.
    pub fn bytes_by_phase(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.bytes_by_phase.iter().copied()
    }

    /// Record one full root-to-leaf descent.
    #[inline]
    pub fn root_descent(&mut self) {
        self.trav.root_descents += 1;
    }

    /// Attribute `lines` cacheline charges to descent traffic. Callers
    /// measure the delta of tier line counters around a descent body so
    /// the same access is never double-counted.
    #[inline]
    pub fn descent_lines(&mut self, lines: u64) {
        self.trav.descent_lines += lines;
    }

    /// Total cacheline charges so far across both tiers — the snapshot
    /// callers delta around a descent to feed [`Self::descent_lines`].
    #[inline]
    pub fn total_lines_snapshot(&self) -> u64 {
        self.dram.total_lines() + self.nvbm.total_lines()
    }

    /// Record `n` queries answered from the sorted leaf index.
    #[inline]
    pub fn index_hits(&mut self, n: u64) {
        self.trav.index_hits += n;
    }

    /// Record a leaf-index rebuild that enumerated `octants` leaves.
    #[inline]
    pub fn index_rebuild(&mut self, octants: u64) {
        self.trav.index_rebuilds += 1;
        self.trav.index_rebuild_octants += octants;
    }

    /// Record an NVBM read of `len` bytes spanning `lines` cachelines.
    #[inline]
    pub fn nvbm_read(&mut self, len: usize, lines: u64) {
        self.nvbm.read_lines += lines;
        self.nvbm.bytes_read += len as u64;
    }

    /// Record an NVBM write of `len` bytes spanning `lines` cachelines.
    #[inline]
    pub fn nvbm_write(&mut self, len: usize, lines: u64) {
        self.nvbm.write_lines += lines;
        self.nvbm.bytes_written += len as u64;
    }

    /// Record a DRAM read (the volatile C0 tree calls this).
    #[inline]
    pub fn dram_read(&mut self, len: usize, lines: u64) {
        self.dram.read_lines += lines;
        self.dram.bytes_read += len as u64;
    }

    /// Record a DRAM write.
    #[inline]
    pub fn dram_write(&mut self, len: usize, lines: u64) {
        self.dram.write_lines += lines;
        self.dram.bytes_written += len as u64;
    }

    /// Record a committed (persisted) write of `bytes` bytes at byte
    /// `offset`: bumps the wear map and attributes the bytes to the
    /// current phase and the offset's region. Called when a dirty
    /// cacheline (or a torn prefix of one) actually reaches the media.
    #[inline]
    pub fn wear_commit(&mut self, offset: u64, bytes: usize) {
        let b = offset as usize / WEAR_BLOCK;
        if let Some(w) = self.wear.get_mut(b) {
            *w += 1;
        }
        self.bytes_by_region[self.region_index(offset)] += bytes as u64;
        let slot = match self.phase_slot {
            Some(slot) => slot,
            None => {
                let slot = self.find_phase(self.phase).unwrap_or_else(|at| {
                    self.bytes_by_phase.insert(at, (self.phase, 0));
                    at
                });
                self.phase_slot = Some(slot);
                slot
            }
        };
        self.bytes_by_phase[slot].1 += bytes as u64;
    }

    /// Record a wear-leveling relocation that moved `bytes` live bytes
    /// *off* the block holding `old_offset`. The vacated block's current
    /// wear becomes its baseline: the hottest-block readouts then track
    /// traffic *since* the move, so a spot the GC already cooled no
    /// longer masks the live peak.
    pub fn note_relocation(&mut self, old_offset: u64, bytes: usize) {
        let b = old_offset as usize / WEAR_BLOCK;
        if let Some(&w) = self.wear.get(b) {
            if self.wear_baseline.len() < self.wear.len() {
                self.wear_baseline.resize(self.wear.len(), 0);
            }
            self.wear_baseline[b] = w;
        }
        self.relocations += 1;
        self.relocated_bytes += bytes as u64;
    }

    /// Number of wear-leveling relocations recorded.
    pub fn relocations(&self) -> u64 {
        self.relocations
    }

    /// Bytes moved by wear-leveling relocations.
    pub fn relocated_bytes(&self) -> u64 {
        self.relocated_bytes
    }

    /// A block's *effective* wear: commits since a relocation last vacated
    /// it (raw lifetime commits for blocks never relocated away from).
    #[inline]
    fn effective_wear(&self, block: usize) -> u32 {
        let base = self.wear_baseline.get(block).copied().unwrap_or(0);
        self.wear[block].saturating_sub(base)
    }

    /// Effective wear of the block containing byte `offset` (0 if out of
    /// range). The wear-leveling GC uses this to pick the hottest live
    /// blob to relocate toward cold lines.
    pub fn block_wear(&self, offset: u64) -> u32 {
        let b = offset as usize / WEAR_BLOCK;
        if b < self.wear.len() {
            self.effective_wear(b)
        } else {
            0
        }
    }

    /// Maximum effective writes any single wear block has absorbed, and
    /// the byte offset of that hottest block (0 when nothing was ever
    /// committed). Post-relocation state: a block the wear-leveling GC
    /// vacated counts only its traffic since the move, so the readout
    /// tracks the *new* hot location rather than a stale pre-move peak.
    pub fn max_wear(&self) -> (u32, u64) {
        let mut best = (0u32, 0u64);
        for i in 0..self.wear.len() {
            let w = self.effective_wear(i);
            if w > best.0 {
                best = (w, (i * WEAR_BLOCK) as u64);
            }
        }
        best
    }

    /// Log2-bucketed block-wear histogram (see [`WearReport::wear_hist`]),
    /// over effective (post-relocation) wear.
    pub fn wear_histogram(&self) -> [u64; 16] {
        let mut h = [0u64; 16];
        for i in 0..self.wear.len() {
            let w = self.effective_wear(i);
            if w == 0 {
                continue;
            }
            h[(w.ilog2() as usize).min(15)] += 1;
        }
        h
    }

    /// Wear flatness: hottest block over the mean of touched blocks, on
    /// effective wear (1.0 = perfectly even, 0 when idle).
    pub fn wear_flatness(&self) -> f64 {
        let mean = self.mean_wear();
        if mean == 0.0 {
            0.0
        } else {
            self.max_wear().0 as f64 / mean
        }
    }

    /// Assemble the serializable wear / write-amplification report.
    pub fn wear_report(&self) -> WearReport {
        let (max_wear, max_wear_offset) = self.max_wear();
        WearReport {
            bytes_by_region: REGIONS
                .iter()
                .zip(self.bytes_by_region.iter())
                .map(|(n, &b)| NamedBytes { name: n.to_string(), bytes: b })
                .collect(),
            bytes_by_phase: self
                .bytes_by_phase
                .iter()
                .map(|&(n, b)| NamedBytes { name: n.to_string(), bytes: b })
                .collect(),
            wear_hist: self.wear_histogram().to_vec(),
            max_wear,
            max_wear_offset,
            mean_wear: self.mean_wear(),
            blocks_touched: self.wear.iter().filter(|&&w| w > 0).count() as u64,
            bytes_committed: self.bytes_by_region.iter().sum(),
            relocations: self.relocations,
            relocated_bytes: self.relocated_bytes,
            flatness: self.wear_flatness(),
        }
    }

    /// Mean effective writes per wear block (over blocks with effective
    /// wear, i.e. written since any relocation vacated them).
    pub fn mean_wear(&self) -> f64 {
        let (mut sum, mut n) = (0.0f64, 0u64);
        for i in 0..self.wear.len() {
            let w = self.effective_wear(i);
            if w > 0 {
                sum += w as f64;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Write fraction over *all* accesses, both tiers — the §1 statistic.
    pub fn overall_write_fraction(&self) -> f64 {
        let w = self.dram.write_lines + self.nvbm.write_lines;
        let t = self.dram.total_lines() + self.nvbm.total_lines();
        if t == 0 {
            0.0
        } else {
            w as f64 / t as f64
        }
    }

    /// Fold another stats block into this one (rank aggregation).
    pub fn merge(&mut self, other: &MemStats) {
        self.dram.add(&other.dram);
        self.nvbm.add(&other.nvbm);
        self.trav.add(&other.trav);
        if self.wear.len() < other.wear.len() {
            self.wear.resize(other.wear.len(), 0);
        }
        for (a, b) in self.wear.iter_mut().zip(&other.wear) {
            *a += *b;
        }
        if self.wear_baseline.len() < other.wear_baseline.len() {
            self.wear_baseline.resize(other.wear_baseline.len(), 0);
        }
        for (a, b) in self.wear_baseline.iter_mut().zip(&other.wear_baseline) {
            *a += *b;
        }
        self.relocations += other.relocations;
        self.relocated_bytes += other.relocated_bytes;
        for (a, b) in self.bytes_by_region.iter_mut().zip(&other.bytes_by_region) {
            *a += *b;
        }
        for &(k, v) in &other.bytes_by_phase {
            match self.find_phase(k) {
                Ok(at) => self.bytes_by_phase[at].1 += v,
                Err(at) => self.bytes_by_phase.insert(at, (k, v)),
            }
        }
        self.phase_slot = self.find_phase(self.phase).ok();
    }

    /// Zero all counters (keeps wear-map size and region bounds).
    pub fn reset(&mut self) {
        self.dram = TierStats::default();
        self.nvbm = TierStats::default();
        self.trav = TraversalStats::default();
        self.wear.fill(0);
        self.wear_baseline.fill(0);
        self.relocations = 0;
        self.relocated_bytes = 0;
        self.bytes_by_region = [0; REGIONS.len()];
        self.bytes_by_phase.clear();
        self.phase_slot = None;
    }

    /// Snapshot of NVBM write-line count — convenient for deltas around a
    /// phase (`let before = ...; run(); writes = now - before`).
    pub fn nvbm_write_lines(&self) -> u64 {
        self.nvbm.write_lines
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn write_fraction_computation() {
        let mut s = MemStats::new(1 << 16);
        s.dram_read(64, 1);
        s.dram_write(64, 1);
        s.nvbm_read(64, 1);
        s.nvbm_write(64, 1);
        assert!((s.overall_write_fraction() - 0.5).abs() < 1e-12);
        assert!((s.dram.write_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wear_tracking() {
        let mut s = MemStats::new(WEAR_BLOCK * 4);
        s.wear_commit(0, 64);
        s.wear_commit(10, 64);
        s.wear_commit(WEAR_BLOCK as u64, 64);
        assert_eq!(s.max_wear(), (2, 0), "block 0 is hottest");
        assert!((s.mean_wear() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn max_wear_reports_hottest_offset() {
        let mut s = MemStats::new(WEAR_BLOCK * 8);
        s.wear_commit(0, 64);
        for _ in 0..3 {
            s.wear_commit(3 * WEAR_BLOCK as u64 + 17, 64);
        }
        let (count, offset) = s.max_wear();
        assert_eq!(count, 3);
        assert_eq!(offset, 3 * WEAR_BLOCK as u64);
    }

    #[test]
    fn max_wear_tracks_post_relocation_state() {
        // Regression: after the GC relocates the hot blob away from block
        // 3, the hottest-offset readout must follow the traffic to the new
        // location, not keep reporting block 3's stale pre-move peak.
        let mut s = MemStats::new(WEAR_BLOCK * 8);
        for _ in 0..10 {
            s.wear_commit(3 * WEAR_BLOCK as u64, 64);
        }
        s.wear_commit(5 * WEAR_BLOCK as u64, 64);
        assert_eq!(s.max_wear(), (10, 3 * WEAR_BLOCK as u64), "pre-move: block 3 is hottest");
        s.note_relocation(3 * WEAR_BLOCK as u64, 512);
        assert_eq!(s.relocations(), 1);
        assert_eq!(s.relocated_bytes(), 512);
        // Re-query: block 3's peak is baselined away; block 5 leads now.
        assert_eq!(s.max_wear(), (1, 5 * WEAR_BLOCK as u64), "post-move: new location leads");
        // New traffic on the vacated block counts from zero again.
        s.wear_commit(3 * WEAR_BLOCK as u64, 64);
        s.wear_commit(3 * WEAR_BLOCK as u64, 64);
        assert_eq!(s.max_wear(), (2, 3 * WEAR_BLOCK as u64));
        let rep = s.wear_report();
        assert_eq!(rep.relocations, 1);
        assert_eq!(rep.relocated_bytes, 512);
        assert!((rep.flatness - 2.0 / 1.5).abs() < 1e-12, "max 2 over mean (2+1)/2");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MemStats::new(WEAR_BLOCK);
        let mut b = MemStats::new(WEAR_BLOCK);
        a.nvbm_write(128, 2);
        b.nvbm_write(64, 1);
        b.wear_commit(5, 64);
        a.merge(&b);
        assert_eq!(a.nvbm.write_lines, 3);
        assert_eq!(a.nvbm.bytes_written, 192);
        assert_eq!(a.max_wear(), (1, 0));
        assert_eq!(a.bytes_by_region()[0], 64, "offset 5 is root_table");
    }

    #[test]
    fn reset_zeroes() {
        let mut s = MemStats::new(WEAR_BLOCK);
        s.nvbm_write(64, 1);
        s.wear_commit(0, 64);
        s.reset();
        assert_eq!(s.nvbm.write_lines, 0);
        assert_eq!(s.max_wear(), (0, 0));
        assert_eq!(s.wear_report().bytes_committed, 0);
    }

    #[test]
    fn commits_attribute_to_region_and_phase() {
        let mut s = MemStats::new(WEAR_BLOCK * 16);
        // Regions: recorder ring at the top 4 KiB, rt heap above 48 KiB.
        s.set_region_bounds(15 * WEAR_BLOCK as u64, 12 * WEAR_BLOCK as u64);
        s.wear_commit(0, 8); // root_table
        s.wear_commit(4096, 64); // octree
        let prev = s.set_phase("persist::flush");
        assert_eq!(prev, PHASE_MUTATE);
        s.wear_commit(13 * WEAR_BLOCK as u64, 64); // rt_heap
        s.wear_commit(15 * WEAR_BLOCK as u64 + 64, 64); // recorder
        s.set_phase(prev);
        assert_eq!(s.bytes_by_region(), [8, 64, 64, 64]);
        let phases: Vec<_> = s.bytes_by_phase().collect();
        assert_eq!(phases, vec![(PHASE_MUTATE, 72), ("persist::flush", 128)]);
        let rep = s.wear_report();
        assert_eq!(rep.bytes_committed, 200);
        assert_eq!(rep.blocks_touched, 4);
        assert_eq!(rep.wear_hist[0], 4, "four blocks worn exactly once");
    }

    #[test]
    fn phase_slots_survive_reordering_merge_and_reset() {
        let mut s = MemStats::new(WEAR_BLOCK);
        s.set_phase("persist::flush");
        s.wear_commit(0, 1);
        // A phase that is set but commits nothing gets no row.
        s.set_phase("idle");
        // A phase sorting before the existing rows shifts them.
        s.set_phase("gc::sweep");
        s.wear_commit(0, 2);
        s.set_phase("persist::flush");
        s.wear_commit(0, 4);
        // Merging rows in below the current phase's moves its slot.
        let mut other = MemStats::new(WEAR_BLOCK);
        other.set_phase("a::first");
        other.wear_commit(0, 8);
        s.merge(&other);
        s.wear_commit(0, 16);
        let phases: Vec<_> = s.bytes_by_phase().collect();
        assert_eq!(phases, vec![("a::first", 8), ("gc::sweep", 2), ("persist::flush", 21)]);
        s.reset();
        s.wear_commit(0, 32);
        assert_eq!(s.bytes_by_phase().collect::<Vec<_>>(), vec![("persist::flush", 32)]);
    }

    #[test]
    fn wear_histogram_buckets_by_log2() {
        let mut s = MemStats::new(WEAR_BLOCK * 4);
        for _ in 0..5 {
            s.wear_commit(0, 64); // block 0: wear 5 → bucket 2
        }
        s.wear_commit(WEAR_BLOCK as u64, 64); // block 1: wear 1 → bucket 0
        let h = s.wear_histogram();
        assert_eq!(h[0], 1);
        assert_eq!(h[2], 1);
        assert_eq!(h.iter().sum::<u64>(), 2);
    }

    #[test]
    fn idle_fractions_are_zero() {
        let s = MemStats::new(0);
        assert_eq!(s.overall_write_fraction(), 0.0);
        assert_eq!(s.mean_wear(), 0.0);
        assert_eq!(s.trav.charged_lines_per_descent(), 0.0);
    }

    #[test]
    fn descent_lines_accounting() {
        let mut s = MemStats::new(WEAR_BLOCK);
        let before = s.total_lines_snapshot();
        s.nvbm_read(64, 1);
        s.nvbm_read(64, 1);
        s.dram_read(64, 1);
        s.root_descent();
        s.descent_lines(s.total_lines_snapshot() - before);
        s.root_descent();
        s.descent_lines(1);
        assert_eq!(s.trav.descent_lines, 4);
        assert!((s.trav.charged_lines_per_descent() - 2.0).abs() < 1e-12);

        let mut merged = MemStats::new(WEAR_BLOCK);
        merged.merge(&s);
        assert_eq!(merged.trav.descent_lines, 4);
    }
}
