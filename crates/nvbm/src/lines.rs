//! The dirty-line table: cacheline index → line bytes.
//!
//! One flat open-addressed hash table (linear probing, backward-shift
//! deletion, no tombstones) serves every place the emulator keeps a set of
//! dirty cachelines: the arena's write-back cache, the frozen copy inside
//! an [`ArenaSnapshot`](crate::arena::ArenaSnapshot), and the per-domain
//! overlays of [`ShardWriter`](crate::arena::ShardWriter) /
//! [`ShardDelta`](crate::arena::ShardDelta). Every
//! [`NvbmArena::read`](crate::arena::NvbmArena::read) and `write` consults
//! it once per touched line, so a lookup is one multiply and (almost
//! always) one probe.
//!
//! Memory is proportional to the largest dirty set held since the table
//! was last emptied, never to the device: the slot array holds 12 bytes a
//! slot, and the 64-byte line bodies live apart from it in fixed-size
//! chunks, one body per held line, so neither a sparse slot array nor a
//! rehash pays for them (a write-domain overlay can hold tens of
//! thousands of lines).
//!
//! A hash table has no order, and two things need one:
//!
//! * eviction commits the **lowest** line first
//!   ([`LineTable::pop_lowest`]) — served by a min-heap of line indices
//!   that the first eviction builds and later inserts feed; removals leave
//!   their heap entry behind to be skipped when it surfaces;
//! * write-back, crash injection and crash views walk the lines in
//!   ascending order (the crash RNG is consumed in that order) — served by
//!   [`LineTable::sorted`], built on demand at those rare points.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::model::CACHELINE;

/// Marks a free slot; no device has a line with this index.
const EMPTY: u64 = u64::MAX;

/// Smallest slot array allocated.
const MIN_SLOTS: usize = 16;

/// Line bodies per storage chunk (4 KiB).
const CHUNK: usize = 64;

/// Dirty cachelines keyed by line index (`offset / CACHELINE`).
#[derive(Clone, Default)]
pub(crate) struct LineTable {
    /// Slot → line index, [`EMPTY`] when free. Empty or a power of two
    /// long, and never more than three quarters occupied.
    keys: Vec<u64>,
    /// Slot → where the line's bytes are in `bodies`; parallel to `keys`.
    at: Vec<u32>,
    /// Line bytes: body `b` is `bodies[b / CHUNK][b % CHUNK]`. Chunks are
    /// only ever added, so growing moves no body.
    bodies: Vec<Box<[[u8; CACHELINE]; CHUNK]>>,
    /// Bodies vacated by removals, reused before a new one is issued; the
    /// bodies issued so far are these plus one per held line.
    vacant: Vec<u32>,
    len: usize,
    /// Min-heap of line indices behind [`LineTable::pop_lowest`]: absent
    /// until the first pop, then holds at least every line in the table.
    /// May also hold removed lines and duplicates; both are harmless
    /// because a popped index counts only if the table still has it.
    order: Option<BinaryHeap<Reverse<u64>>>,
}

impl LineTable {
    /// Number of lines held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when no line is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every line and the memory behind them.
    pub(crate) fn clear(&mut self) {
        *self = LineTable::default();
    }

    /// Slot where `line` lives, or (`false`) the free slot it would take.
    /// The slot array must be allocated.
    #[inline]
    fn probe(&self, line: u64) -> (usize, bool) {
        let mask = self.keys.len() - 1;
        let mut slot = home(line, self.keys.len());
        loop {
            let k = self.keys[slot];
            if k == line {
                return (slot, true);
            }
            if k == EMPTY {
                return (slot, false);
            }
            slot = (slot + 1) & mask;
            #[cfg(test)]
            tests::PROBE_STEPS.with(|steps| steps.set(steps.get() + 1));
        }
    }

    #[inline]
    fn body(&self, b: u32) -> &[u8; CACHELINE] {
        &self.bodies[b as usize / CHUNK][b as usize % CHUNK]
    }

    #[inline]
    fn body_mut(&mut self, b: u32) -> &mut [u8; CACHELINE] {
        &mut self.bodies[b as usize / CHUNK][b as usize % CHUNK]
    }

    /// The bytes of `line`, if held.
    #[inline]
    pub(crate) fn get(&self, line: u64) -> Option<&[u8; CACHELINE]> {
        if self.len == 0 {
            return None;
        }
        match self.probe(line) {
            (slot, true) => Some(self.body(self.at[slot])),
            _ => None,
        }
    }

    /// The bytes of `line`, first inserting `seed()` if it is not held.
    #[inline]
    pub(crate) fn get_or_insert_with(
        &mut self,
        line: u64,
        seed: impl FnOnce() -> [u8; CACHELINE],
    ) -> &mut [u8; CACHELINE] {
        debug_assert_ne!(line, EMPTY);
        let mut hit = if self.keys.is_empty() { (0, false) } else { self.probe(line) };
        if !hit.1 {
            if (self.len + 1) * 4 > self.keys.len() * 3 {
                self.rehash((self.keys.len() * 2).max(MIN_SLOTS));
                hit = self.probe(line);
            }
            let b = self.vacant.pop().unwrap_or_else(|| {
                if self.len == self.bodies.len() * CHUNK {
                    self.bodies.push(Box::new([[0; CACHELINE]; CHUNK]));
                }
                self.len as u32
            });
            self.keys[hit.0] = line;
            self.at[hit.0] = b;
            *self.body_mut(b) = seed();
            self.len += 1;
            self.note_insert(line);
        }
        self.body_mut(self.at[hit.0])
    }

    /// Set the bytes of `line`, inserting or overwriting.
    pub(crate) fn insert(&mut self, line: u64, bytes: [u8; CACHELINE]) {
        *self.get_or_insert_with(line, || bytes) = bytes;
    }

    /// Remove `line`, returning its bytes if it was held.
    pub(crate) fn remove(&mut self, line: u64) -> Option<[u8; CACHELINE]> {
        if self.len == 0 {
            return None;
        }
        let (mut hole, found) = self.probe(line);
        if !found {
            return None;
        }
        let b = self.at[hole];
        let bytes = *self.body(b);
        self.vacant.push(b);
        // Backward-shift deletion: close the gap with every later entry of
        // the probe run that may legally sit there (its home slot is at or
        // before the gap), so lookups never need tombstones.
        let mask = self.keys.len() - 1;
        let mut next = (hole + 1) & mask;
        while self.keys[next] != EMPTY {
            let from_home = next.wrapping_sub(home(self.keys[next], self.keys.len())) & mask;
            if from_home >= (next.wrapping_sub(hole) & mask) {
                self.keys[hole] = self.keys[next];
                self.at[hole] = self.at[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.keys[hole] = EMPTY;
        self.len -= 1;
        self.shrink_if_drained();
        Some(bytes)
    }

    /// Give back the memory of a dirty set that has since drained (a large
    /// write-domain overlay is absorbed whole and then evicted down to the
    /// cache capacity): rebuild once fewer than one slot in eight is used.
    fn shrink_if_drained(&mut self) {
        if self.keys.len() > MIN_SLOTS && self.len * 8 < self.keys.len() {
            let mut small = LineTable::default();
            small.merge(self);
            small.order = self.order.take();
            *self = small;
        }
    }

    /// Insert every line of `other`, overwriting the lines already held.
    pub(crate) fn merge(&mut self, other: &LineTable) {
        // Room for all of them first: `other` yields its lines in hash
        // order, and a table that doubles its way up while it is fed in
        // that order has them pile into the low slots of every size it
        // passes through (probe runs as long as the table).
        let slots = ((self.len + other.len) * 4).div_ceil(3).next_power_of_two();
        if slots > self.keys.len() {
            self.rehash(slots.max(MIN_SLOTS));
        }
        for (line, bytes) in other.iter() {
            self.insert(line, *bytes);
        }
    }

    /// Remove and return the line with the lowest index.
    pub(crate) fn pop_lowest(&mut self) -> Option<(u64, [u8; CACHELINE])> {
        let mut order =
            self.order.take().unwrap_or_else(|| self.iter().map(|(l, _)| Reverse(l)).collect());
        let mut lowest = None;
        while let Some(Reverse(line)) = order.pop() {
            if let Some(bytes) = self.remove(line) {
                lowest = Some((line, bytes));
                break;
            }
        }
        self.order = Some(order);
        lowest
    }

    /// Keep the eviction heap (when there is one) covering `line`, and
    /// bounded by the table: rebuilt from the live lines once entries of
    /// removed lines outnumber them.
    fn note_insert(&mut self, line: u64) {
        let Some(order) = self.order.as_mut() else {
            return;
        };
        if order.len() >= 2 * self.len + MIN_SLOTS {
            self.order = Some(self.iter().map(|(l, _)| Reverse(l)).collect());
        } else {
            order.push(Reverse(line));
        }
    }

    /// Move to a slot array of `slots` slots (a power of two with room for
    /// the held lines).
    fn rehash(&mut self, slots: usize) {
        let keys = std::mem::replace(&mut self.keys, vec![EMPTY; slots]);
        let at = std::mem::replace(&mut self.at, vec![0; slots]);
        for (line, b) in keys.into_iter().zip(at) {
            if line != EMPTY {
                let (slot, _) = self.probe(line);
                self.keys[slot] = line;
                self.at[slot] = b;
            }
        }
    }

    /// Every held line, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &[u8; CACHELINE])> {
        self.keys
            .iter()
            .zip(&self.at)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &b)| (k, self.body(b)))
    }

    /// Every held line in ascending index order.
    pub(crate) fn sorted(&self) -> Vec<(u64, &[u8; CACHELINE])> {
        let mut lines: Vec<_> = self.iter().collect();
        lines.sort_unstable_by_key(|&(line, _)| line);
        lines
    }

    /// Overlay the held lines onto `buf`, which holds the bytes underneath
    /// at `[offset, offset + buf.len())`.
    #[inline]
    pub(crate) fn apply_overlay(&self, offset: u64, buf: &mut [u8]) {
        if buf.is_empty() || self.len == 0 {
            return;
        }
        let first = offset / CACHELINE as u64;
        let last = (offset + buf.len() as u64 - 1) / CACHELINE as u64;
        for line in first..=last {
            let Some(data) = self.get(line) else {
                continue;
            };
            let line_start = line * CACHELINE as u64;
            // Intersection of [line_start, line_start+64) with [offset, offset+len).
            let lo = line_start.max(offset);
            let hi = (line_start + CACHELINE as u64).min(offset + buf.len() as u64);
            let src = (lo - line_start) as usize..(hi - line_start) as usize;
            let dst = (lo - offset) as usize..(hi - offset) as usize;
            buf[dst].copy_from_slice(&data[src]);
        }
    }

    /// Store `data` at `offset` with the read-modify-write cacheline
    /// discipline: a line not yet held is first seeded through
    /// `seed(line_start, buf)` with the `buf.len()` bytes (a whole line,
    /// short only at the device end `capacity`) underneath it.
    #[inline]
    pub(crate) fn store(
        &mut self,
        capacity: usize,
        offset: u64,
        data: &[u8],
        mut seed: impl FnMut(u64, &mut [u8]),
    ) {
        let first = offset / CACHELINE as u64;
        let last = (offset + data.len() as u64 - 1) / CACHELINE as u64;
        for line in first..=last {
            let line_start = line * CACHELINE as u64;
            let entry = self.get_or_insert_with(line, || {
                let mut l = [0u8; CACHELINE];
                let len = CACHELINE.min(capacity - line_start as usize);
                seed(line_start, &mut l[..len]);
                l
            });
            let lo = line_start.max(offset);
            let hi = (line_start + CACHELINE as u64).min(offset + data.len() as u64);
            let src = (lo - offset) as usize..(hi - offset) as usize;
            let dst = (lo - line_start) as usize..(hi - line_start) as usize;
            entry[dst].copy_from_slice(&data[src]);
        }
    }
}

/// Home slot of `line` in a table of `slots` (a power of two) slots:
/// Fibonacci hashing, which spreads the consecutive line indices of a
/// bump-allocated region evenly.
#[inline]
fn home(line: u64, slots: usize) -> usize {
    (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())) as usize
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn line_bytes(tag: u8) -> [u8; CACHELINE] {
        [tag; CACHELINE]
    }

    /// Line indices chosen to fight over slots: two dozen that share one
    /// home slot in every table of up to 1024 slots, a dozen homed in the
    /// slot after it (their probe runs interleave), a dozen homed in the
    /// last slot (their runs wrap around the array end), and a run of
    /// consecutive indices as the ordinary case.
    fn pool() -> Vec<u64> {
        let homed = |slot: usize, n: usize| {
            (0u64..).filter(move |&l| home(l, 1024) == slot).take(n).collect::<Vec<_>>()
        };
        let mut lines = homed(0, 24);
        lines.extend(homed(1, 12));
        lines.extend(homed(1023, 12));
        lines.extend(4096..4160);
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(usize, u8),
        GetOrInsert(usize, u8),
        Remove(usize),
        PopLowest,
        Check,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                6 => (0usize..1024, any::<u8>()).prop_map(|(i, b)| Op::Insert(i, b)),
                3 => (0usize..1024, any::<u8>()).prop_map(|(i, b)| Op::GetOrInsert(i, b)),
                4 => (0usize..1024).prop_map(Op::Remove),
                2 => Just(Op::PopLowest),
                1 => Just(Op::Check),
            ],
            1..400,
        )
    }

    fn check(table: &LineTable, model: &BTreeMap<u64, [u8; CACHELINE]>, pool: &[u64]) {
        assert_eq!(table.len(), model.len());
        assert_eq!(table.is_empty(), model.is_empty());
        let want: Vec<(u64, &[u8; CACHELINE])> = model.iter().map(|(&l, d)| (l, d)).collect();
        assert_eq!(table.sorted(), want);
        for &l in pool {
            assert_eq!(table.get(l), model.get(&l));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn line_table_matches_btreemap_model(ops in arb_ops()) {
            let pool = pool();
            let mut table = LineTable::default();
            let mut model: BTreeMap<u64, [u8; CACHELINE]> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(i, b) => {
                        let l = pool[i % pool.len()];
                        table.insert(l, line_bytes(b));
                        model.insert(l, line_bytes(b));
                    }
                    Op::GetOrInsert(i, b) => {
                        let l = pool[i % pool.len()];
                        let got = *table.get_or_insert_with(l, || line_bytes(b));
                        assert_eq!(got, *model.entry(l).or_insert(line_bytes(b)));
                    }
                    Op::Remove(i) => {
                        let l = pool[i % pool.len()];
                        assert_eq!(table.remove(l), model.remove(&l));
                    }
                    Op::PopLowest => assert_eq!(table.pop_lowest(), model.pop_first()),
                    Op::Check => check(&table, &model, &pool),
                }
            }
            check(&table, &model, &pool);
            // Draining by eviction yields the lines in ascending order.
            while let Some(low) = model.pop_first() {
                assert_eq!(table.pop_lowest(), Some(low));
            }
            assert_eq!(table.pop_lowest(), None);
        }
    }

    #[test]
    fn pool_really_collides() {
        let pool = pool();
        for slots in [16usize, 64, 1024] {
            let at_zero = pool.iter().filter(|&&l| home(l, slots) == 0).count();
            assert!(at_zero >= 24, "{at_zero} lines homed in slot 0 of {slots}");
            assert!(pool.iter().any(|&l| home(l, slots) == slots - 1));
        }
    }

    #[test]
    fn eviction_heap_stays_proportional_to_the_table() {
        let mut t = LineTable::default();
        for l in 0..8 {
            t.insert(l, line_bytes(1));
        }
        assert_eq!(t.pop_lowest().map(|(l, _)| l), Some(0));
        // A line written and flushed over and over (the flight recorder's
        // pattern) leaves one stale heap entry per round.
        for _ in 0..10_000 {
            t.insert(1 << 40, line_bytes(2));
            t.remove(1 << 40);
        }
        let heap = t.order.as_ref().unwrap().len();
        assert!(heap <= 4 * t.len() + MIN_SLOTS, "heap holds {heap} entries for {} lines", t.len());
        assert_eq!(t.pop_lowest().map(|(l, _)| l), Some(1));
    }

    thread_local! {
        /// Slots stepped over by `probe` on this thread.
        pub(super) static PROBE_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn merge_keeps_probe_runs_short() {
        // An overlay's worth of lines, read back in the overlay's slot
        // (= hash) order, lands in a small cache; draining the cache then
        // rebuilds it small through the same path.
        let mut overlay = LineTable::default();
        for l in 0..50_000u64 {
            overlay.insert(20_000 + l, line_bytes(l as u8));
        }
        let mut cache = LineTable::default();
        for l in 0..100u64 {
            cache.insert(l, line_bytes(0));
        }
        PROBE_STEPS.with(|steps| steps.set(0));
        cache.merge(&overlay);
        assert_eq!(cache.len(), 50_100);
        assert_eq!(cache.get(20_007), Some(&line_bytes(7)));
        for l in 0..50_000u64 {
            cache.remove(20_000 + l);
        }
        assert!(cache.keys.len() <= 8 * 128);
        let steps = PROBE_STEPS.with(|steps| steps.get());
        assert!(steps < 4 * 50_000, "{steps} probe steps to merge and drain 50 000 lines");
    }

    #[test]
    fn clone_is_independent_and_clear_releases() {
        let mut t = LineTable::default();
        t.insert(7, line_bytes(7));
        let snap = t.clone();
        t.insert(7, line_bytes(8));
        t.insert(9, line_bytes(9));
        assert_eq!(snap.sorted(), vec![(7, &line_bytes(7))]);
        t.clear();
        assert!(t.is_empty() && t.keys.is_empty() && t.get(7).is_none());
    }

    #[test]
    fn store_and_overlay_round_trip_unaligned_ranges() {
        let under = |start: u64, buf: &mut [u8]| {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = ((start as usize + i) % 251) as u8;
            }
        };
        let mut t = LineTable::default();
        let data: Vec<u8> = (0..150).map(|i| 255 - i as u8).collect();
        t.store(1 << 20, 1000, &data, under); // lines 15..=17, unaligned both ends
        assert_eq!(t.len(), 3);
        let mut buf = vec![0u8; 300];
        under(900, &mut buf);
        t.apply_overlay(900, &mut buf);
        assert_eq!(&buf[100..250], &data[..]);
        // Bytes of the touched lines outside the store kept their seed,
        // and bytes outside every held line are untouched.
        let mut want = vec![0u8; 300];
        under(900, &mut want);
        assert_eq!(buf[..100], want[..100]);
        assert_eq!(buf[250..], want[250..]);
    }
}
