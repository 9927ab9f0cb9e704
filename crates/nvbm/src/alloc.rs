//! Persistent-region allocator.
//!
//! Carves an [`NvbmArena`](crate::arena::NvbmArena)'s space (above the
//! device header) into fixed-size blocks — the octree region's only
//! traffic is one record size, fixed by the allocator's owner at
//! construction. The free stack lives in volatile memory: after a crash
//! it is *rebuilt* from the set of live octants discovered by PM-octree's
//! mark phase ([`PmemAllocator::rebuild`]), which is exactly how the paper
//! avoids logging allocator metadata.
//!
//! Deferred reuse matches §3.2: freed regions "will not be released and can
//! be reused for inserting new octants" — a `free` immediately recycles the
//! block without touching the media at all (deletion writes nothing).

use crate::arena::{POffset, HEADER_SIZE};
use crate::model::CACHELINE;

/// Volatile fixed-block slab allocator over a persistent arena.
#[derive(Debug, Clone)]
pub struct PmemAllocator {
    capacity: u64,
    /// Size of every block handed out (a whole number of cachelines).
    block: u64,
    bump: u64,
    /// Exclusive ceiling for bump growth: the byte where someone else's
    /// territory begins (the `pm-rt` heap grows down from the arena top).
    /// The owner refreshes this from the arena's live rt floor before
    /// allocating, so a near-full device fails the allocation instead of
    /// silently overwriting committed runtime state.
    limit: u64,
    /// Free block offsets, reused LIFO: the most recently freed block's
    /// lines are the likeliest to still sit in the dirty cache.
    free: Vec<u64>,
    /// Bytes currently handed out (for utilization thresholds).
    live_bytes: u64,
}

impl PmemAllocator {
    /// Allocator over an arena of `capacity` bytes handing out blocks of
    /// `block_size` bytes (rounded up to whole cachelines), starting fresh
    /// (everything above the header is free).
    pub fn new(capacity: usize, block_size: usize) -> Self {
        PmemAllocator {
            capacity: capacity as u64,
            block: (block_size.max(1).div_ceil(CACHELINE) * CACHELINE) as u64,
            bump: HEADER_SIZE,
            limit: capacity as u64,
            free: Vec::new(),
            live_bytes: 0,
        }
    }

    /// Lower the bump ceiling to `limit` (clamped to the capacity): bytes
    /// at or above it belong to the downward-growing `pm-rt` heap.
    pub fn set_limit(&mut self, limit: u64) {
        self.limit = limit.min(self.capacity);
    }

    /// Allocate one block: the most recently freed one, else fresh space
    /// off the bump pointer. Returns `None` when the device is full.
    pub fn alloc(&mut self) -> Option<POffset> {
        let off = match self.free.pop() {
            Some(off) => off,
            None => self.grow(1)?,
        };
        self.live_bytes += self.block;
        Some(POffset(off))
    }

    /// Advance the bump pointer over `blocks` fresh blocks; `None` when
    /// that would cross the ceiling.
    fn grow(&mut self, blocks: u64) -> Option<u64> {
        let end = self.bump.checked_add(self.block.checked_mul(blocks)?)?;
        if end > self.limit {
            return None;
        }
        Some(std::mem::replace(&mut self.bump, end))
    }

    /// Return a block to the free stack.
    pub fn free(&mut self, p: POffset) {
        debug_assert!(!p.is_null(), "freeing null");
        self.free.push(p.0);
        self.live_bytes = self.live_bytes.saturating_sub(self.block);
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Fraction of the device currently free — the paper's
    /// `threshold_NVBM` check ("track the percentage of available NVBM
    /// space") compares against this.
    pub fn available_fraction(&self) -> f64 {
        let usable = self.capacity - HEADER_SIZE;
        1.0 - self.live_bytes.min(usable) as f64 / usable as f64
    }

    /// Bump pointer (persist via the arena header at persist points).
    pub fn bump(&self) -> u64 {
        self.bump
    }

    /// Every block currently on the free stack, in address order.
    /// Recovery invariant checking uses this to prove no reachable octant
    /// sits on the free stack.
    pub fn free_blocks(&self) -> Vec<POffset> {
        let mut out: Vec<POffset> = self.free.iter().map(|&off| POffset(off)).collect();
        out.sort_unstable();
        out
    }

    /// Rebuild the allocator after a crash from the live set discovered by
    /// GC's mark phase: `live` holds the offsets of the reachable blocks;
    /// every other whole block below `bump_hint` becomes free, pushed in
    /// ascending order (so reuse walks down from the bump pointer).
    ///
    /// `bump_hint` comes off the media and is only a hint: it is clamped
    /// into the device and floored to a whole number of blocks, so a
    /// torn or corrupted header can waste space but never hands out a
    /// block that straddles the device end.
    pub fn rebuild(
        capacity: usize,
        block_size: usize,
        bump_hint: u64,
        live: impl IntoIterator<Item = POffset>,
    ) -> Self {
        let mut live: Vec<u64> = live.into_iter().map(|p| p.0).collect();
        live.sort_unstable();
        let mut a = PmemAllocator::new(capacity, block_size);
        let hint = bump_hint.min(a.capacity).max(HEADER_SIZE);
        let mut cursor = HEADER_SIZE;
        for off in live {
            a.free_span(cursor, off);
            a.live_bytes += a.block;
            cursor = cursor.max(off.saturating_add(a.block));
        }
        a.bump = cursor.max(hint - (hint - HEADER_SIZE) % a.block);
        a.free_span(cursor, a.bump);
        a
    }

    /// Push every whole block in the dead span `[lo, hi)` onto the free
    /// stack; a sub-block remainder is dropped.
    fn free_span(&mut self, mut lo: u64, hi: u64) {
        while hi.saturating_sub(lo) >= self.block {
            self.free.push(lo);
            lo += self.block;
        }
    }

    /// Carve a private bump region of `blocks` blocks off the top of the
    /// shared bump pointer, for one concurrent write domain. The whole
    /// region is charged to `live_bytes` up front; release the unused
    /// tail with [`PmemAllocator::release_lease`] so the charge nets out
    /// to exactly the blocks actually consumed. Returns `None` when the
    /// region would cross the bump ceiling — callers fall back to serial
    /// allocation.
    ///
    /// Leases never draw from the free stack: every lease region is a
    /// fresh, pairwise-disjoint address range, which is what lets N
    /// domains allocate COW copies concurrently without contending on —
    /// or interleaving lines with — each other.
    pub fn carve_lease(&mut self, blocks: usize) -> Option<AllocLease> {
        let start = self.grow(blocks as u64)?;
        self.live_bytes += self.bump - start;
        Some(AllocLease { start, next: start, limit: self.bump, block: self.block })
    }

    /// Return a lease's unconsumed blocks (from `from` to the lease end)
    /// to the free stack, reversing their up-front `live_bytes` charge.
    /// Pass `lease.cursor()` to keep the consumed prefix, or
    /// `lease.start()` to discard the whole region (failed domain).
    pub fn release_lease(&mut self, lease: AllocLease, from: u64) {
        let mut off = from.clamp(lease.start, lease.limit);
        while off + lease.block <= lease.limit {
            self.free(POffset(off));
            off += lease.block;
        }
    }
}

/// A private bump region carved from a [`PmemAllocator`] for one
/// concurrent write domain ([`PmemAllocator::carve_lease`]). Allocation
/// is a plain cursor advance — no shared state, so it is safe to hand
/// each worker thread its own lease and let them allocate concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocLease {
    start: u64,
    next: u64,
    limit: u64,
    block: u64,
}

impl AllocLease {
    /// Allocate one block from the lease; `None` when it is exhausted
    /// (the domain over-ran its pre-sized budget — callers treat this
    /// as device-full and fall back to serial allocation).
    pub fn alloc(&mut self) -> Option<POffset> {
        if self.next + self.block > self.limit {
            return None;
        }
        let off = self.next;
        self.next += self.block;
        Some(POffset(off))
    }

    /// First byte of the lease region.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Current cursor: the first unconsumed byte.
    pub fn cursor(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn block_size_rounds_to_cacheline() {
        let mut a = PmemAllocator::new(1 << 20, 1);
        let p1 = a.alloc().unwrap();
        let p2 = a.alloc().unwrap();
        assert_eq!(p2.0 - p1.0, 64);
        assert_eq!(a.live_bytes(), 128);
    }

    #[test]
    fn free_then_alloc_reuses_block() {
        let mut a = PmemAllocator::new(1 << 20, 128);
        let p = a.alloc().unwrap();
        a.free(p);
        assert_eq!(a.alloc(), Some(p));
    }

    #[test]
    fn sub_block_gap_is_never_handed_out() {
        // Live blocks 64 bytes apart from block alignment leave a 64-byte
        // hole: too small for a 128-byte block, so it is dropped, not
        // reused.
        let live = [POffset(HEADER_SIZE), POffset(HEADER_SIZE + 192)];
        let mut a = PmemAllocator::rebuild(1 << 20, 128, HEADER_SIZE + 320, live);
        assert!(a.free_blocks().is_empty());
        assert_eq!(a.alloc(), Some(POffset(HEADER_SIZE + 320)));
    }

    #[test]
    fn limit_caps_bump_growth() {
        let mut a = PmemAllocator::new(1 << 20, 128);
        a.set_limit(HEADER_SIZE + 128);
        let p = a.alloc().unwrap();
        assert!(a.alloc().is_none(), "bump must not cross the limit");
        // Free-stack reuse below the limit is unaffected.
        a.free(p);
        assert_eq!(a.alloc(), Some(p));
        // Raising the limit re-enables bump growth.
        a.set_limit(HEADER_SIZE + 256);
        assert!(a.alloc().is_some());
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = PmemAllocator::new(HEADER_SIZE as usize + 256, 128);
        assert!(a.alloc().is_some());
        assert!(a.alloc().is_some());
        assert!(a.alloc().is_none());
    }

    #[test]
    fn available_fraction_tracks_usage() {
        let mut a = PmemAllocator::new(HEADER_SIZE as usize + 1024, 512);
        assert!((a.available_fraction() - 1.0).abs() < 1e-12);
        let _ = a.alloc().unwrap();
        assert!((a.available_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rebuild_reconstructs_free_space() {
        let mut a = PmemAllocator::new(1 << 16, 128);
        let blocks: Vec<_> = (0..8).map(|_| a.alloc().unwrap()).collect();
        // Keep blocks 0, 2, 4, 6 live; crash; rebuild.
        let live: Vec<_> = blocks.iter().step_by(2).copied().collect();
        let mut b = PmemAllocator::rebuild(1 << 16, 128, a.bump(), live.clone());
        assert_eq!(b.live_bytes(), 4 * 128);
        // The 4 dead blocks are reusable before the bump pointer moves.
        let bump_before = b.bump();
        for _ in 0..4 {
            let p = b.alloc().unwrap();
            assert!(p.0 < bump_before, "should reuse freed block, got {p:?}");
            assert!(!live.contains(&p), "handed out a live block");
        }
    }

    /// The reuse order is part of the device's observable behaviour (it
    /// decides which lines wear and which are still cached). The expected
    /// offsets were recorded by running this exact script against the
    /// previous general-purpose allocator (size-class free lists) with
    /// 128-byte requests under its default `Lifo` policy; the slab must
    /// reproduce them.
    #[test]
    fn golden_allocation_order() {
        let mut a = PmemAllocator::new(1 << 16, 128);
        let mut got: Vec<u64> = Vec::new();
        let p: Vec<POffset> = (0..6).map(|_| a.alloc().unwrap()).collect();
        got.extend(p.iter().map(|p| p.0));
        for i in [1, 4, 2] {
            a.free(p[i]);
        }
        got.extend((0..2).map(|_| a.alloc().unwrap().0));
        // Lease of 4, two consumed, tail released.
        let mut l = a.carve_lease(4).unwrap();
        got.extend((0..2).map(|_| l.alloc().unwrap().0));
        a.release_lease(l, l.cursor());
        got.extend((0..4).map(|_| a.alloc().unwrap().0));
        // Failed domain: whole lease discarded.
        let l2 = a.carve_lease(3).unwrap();
        a.release_lease(l2, l2.start());
        got.push(a.alloc().unwrap().0);
        got.push(a.live_bytes());
        // Crash: rebuild with gaps from a sparse live set.
        let live = [got[0], got[3], got[5], got[9], got[13]].map(POffset);
        let mut b = PmemAllocator::rebuild(1 << 16, 128, a.bump(), live);
        got.push(b.live_bytes());
        got.extend((0..12).map(|_| b.alloc().unwrap().0));
        got.push(b.bump());
        let golden = [
            256, 384, 512, 640, 768, 896, 512, 768, 1024, 1152, 1408, 1280, 384, 1536, 1920, 1536,
            640, 1920, 1792, 1664, 1408, 1280, 1024, 768, 512, 384, 2048, 2176, 2304, 2432,
        ];
        assert_eq!(got, golden);
    }

    #[test]
    fn lease_regions_are_disjoint_and_accounted() {
        let mut a = PmemAllocator::new(1 << 20, 128);
        let base = a.alloc().unwrap();
        let mut l1 = a.carve_lease(4).unwrap();
        let l2 = a.carve_lease(4).unwrap();
        assert_eq!(a.live_bytes(), 128 + 2 * 4 * 128, "leases charged up front");
        // Regions are disjoint from each other and from prior allocations.
        assert!(l1.start() >= base.0 + 128);
        assert_eq!(l2.start(), l1.start() + 4 * 128);
        // Lease allocation is a cursor walk inside the region.
        let p1 = l1.alloc().unwrap();
        let p2 = l1.alloc().unwrap();
        assert_eq!((p1.0, p2.0), (l1.start(), l1.start() + 128));
        for _ in 0..2 {
            assert!(l1.alloc().is_some());
        }
        assert!(l1.alloc().is_none(), "lease exhausts at its budget");
        // Releasing the unused tail refunds the live-byte charge.
        let consumed = l2.cursor();
        a.release_lease(l1, l1.cursor()); // fully consumed: refunds nothing
        a.release_lease(l2, consumed); // untouched: refunds all 4 blocks
        assert_eq!(a.live_bytes(), 128 + 4 * 128);
        // The refunded blocks are reusable.
        let q = a.alloc().unwrap();
        assert!(q.0 >= l2.start() && q.0 < l2.start() + 4 * 128);
    }

    #[test]
    fn lease_respects_bump_limit() {
        let mut a = PmemAllocator::new(HEADER_SIZE as usize + 512, 128);
        assert!(a.carve_lease(8).is_none(), "lease must not cross the limit");
        let l = a.carve_lease(4).unwrap();
        assert_eq!(a.bump() - l.start(), 512);
        assert!(a.alloc().is_none(), "lease consumed the remaining space");
    }

    #[test]
    fn rebuild_empty_live_set_frees_all() {
        let mut a = PmemAllocator::rebuild(1 << 16, 128, 4096, std::iter::empty());
        assert_eq!(a.live_bytes(), 0);
        // Everything below the hint is on the free stack.
        let p = a.alloc().unwrap();
        assert!(p.0 < 4096);
    }

    #[test]
    fn rebuild_survives_hostile_bump_hints() {
        const CAP: usize = HEADER_SIZE as usize + 1000; // 7 whole blocks + 104 bytes
        let top = HEADER_SIZE + 7 * 128;
        let live = [POffset(HEADER_SIZE + 128)];
        // Non-block-aligned, past the device end, absurd, and below the
        // live set: the tail is floored to whole blocks inside the device
        // and never undercuts a live block.
        for (hint, bump) in [
            (HEADER_SIZE + 3 * 128 + 77, HEADER_SIZE + 3 * 128),
            (CAP as u64 + 4096, top),
            (u64::MAX, top),
            (0, HEADER_SIZE + 256),
        ] {
            let mut a = PmemAllocator::rebuild(CAP, 128, hint, live);
            assert_eq!(a.bump(), bump, "hint {hint}");
            assert_eq!(a.live_bytes(), 128);
            let mut seen = vec![live[0]];
            while let Some(p) = a.alloc() {
                assert!(p.0 >= HEADER_SIZE && p.0 + 128 <= CAP as u64, "{p:?} outside device");
                assert!(!seen.contains(&p), "{p:?} handed out twice (hint {hint})");
                seen.push(p);
            }
            assert_eq!(seen.len(), 7, "every whole block is usable exactly once");
        }
    }
}
