//! A Morton-sorted linear view of an octree's leaf set.
//!
//! [`LeafIndex`] is the "quadrant array" of linear-octree codes (p4est,
//! Kirilin & Burstedde): the complete leaf set stored as a flat
//! `Vec<(Key, slot)>` sorted by Z-order. Because leaves tile the domain
//! disjointly, point-containment becomes one binary search and a batch of
//! sorted queries resolves in a single merge-scan — no per-query root
//! descent, and therefore no per-hop NVBM cacheline charges. The `slot` is
//! a backend-private payload locator (node index, page id, …) that lets
//! the owner jump straight to the destination octant, which is the only
//! place an NVBM access is still required.
//!
//! The index is *lazily maintained*: owners call [`LeafIndex::on_refine`] /
//! [`LeafIndex::on_coarsen`] to splice the sorted array incrementally on
//! mesh mutations, and [`LeafIndex::invalidate`] on wholesale changes
//! (crash recovery, snapshot restore). An invalid index stays cheap: all
//! incremental hooks become no-ops until the owner rebuilds it from a full
//! leaf enumeration.
//!
//! The index itself is DRAM-resident; owners are responsible for charging
//! DRAM-read costs for probes (see [`LeafIndex::lines_for_entries`] and the
//! touched-entry counts returned by the query methods).

use crate::code::Key;

/// Bytes one index entry occupies in DRAM (16-byte key + 8-byte slot,
/// padded to the struct layout actually stored).
pub const ENTRY_BYTES: usize = std::mem::size_of::<(Key<3>, u64)>();

/// DRAM cacheline size used for cost conversion.
const LINE: usize = 64;

/// Morton-sorted leaf array with incremental maintenance.
///
/// Invariants while [`LeafIndex::is_valid`]:
/// * entries are sorted ascending by [`Key::zcmp`],
/// * entries are exactly the owner's current leaf set (disjoint cells —
///   no entry is an ancestor of another).
#[derive(Clone, Debug, Default)]
pub struct LeafIndex<const D: usize> {
    entries: Vec<(Key<D>, u64)>,
    valid: bool,
}

impl<const D: usize> LeafIndex<D> {
    /// New, invalid (empty) index; call [`LeafIndex::rebuild`] before use.
    pub fn new() -> Self {
        LeafIndex { entries: Vec::new(), valid: false }
    }

    /// Is the index current with the owner's leaf set?
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Drop the index contents; incremental hooks become no-ops until the
    /// next [`LeafIndex::rebuild`]. Owners call this on wholesale leaf-set
    /// changes (crash recovery, snapshot restore).
    pub fn invalidate(&mut self) {
        self.valid = false;
        self.entries.clear();
    }

    /// Rebuild from a full leaf enumeration (any order; sorted here).
    ///
    /// Returns the number of entries, so the owner can account the rebuild
    /// cost (the enumeration itself is charged by the owner's traversal).
    pub fn rebuild(&mut self, leaves: impl IntoIterator<Item = (Key<D>, u64)>) -> usize {
        let entries: Vec<(Key<D>, u64)> = leaves.into_iter().collect();
        // Batched Z-order sort: one vectorized anchor pass instead of two
        // alignment shifts inside every one of the n·log n comparisons.
        let keys: Vec<Key<D>> = entries.iter().map(|e| e.0).collect();
        let order = crate::simd::zorder_argsort(&keys);
        self.entries = order.into_iter().map(|i| entries[i]).collect();
        self.valid = true;
        self.entries.len()
    }

    /// Number of leaves in the index (0 when invalid).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The sorted `(key, slot)` entries.
    ///
    /// # Panics
    /// Panics if the index is invalid — callers must rebuild first.
    pub fn entries(&self) -> &[(Key<D>, u64)] {
        assert!(self.valid, "leaf index queried while invalid");
        &self.entries
    }

    /// DRAM cachelines occupied by `n` index entries (for cost charging).
    pub fn lines_for_entries(n: usize) -> u64 {
        ((n * ENTRY_BYTES).div_ceil(LINE)) as u64
    }

    /// Splice a refine into the sorted array: `parent` (a leaf) is replaced
    /// by its `FANOUT` children, child `i` receiving `child_slots[i]`.
    ///
    /// No-op while invalid. If `parent` is not present the index can no
    /// longer be trusted and is invalidated (defensive, should not happen
    /// when owners hook every mutation).
    pub fn on_refine(&mut self, parent: Key<D>, child_slots: &[u64]) {
        if !self.valid {
            return;
        }
        debug_assert_eq!(child_slots.len(), Key::<D>::FANOUT);
        match self.entries.binary_search_by(|e| e.0.zcmp(&parent)) {
            Ok(pos) => {
                let children: Vec<(Key<D>, u64)> =
                    parent.children().zip(child_slots.iter().copied()).collect();
                self.entries.splice(pos..pos + 1, children);
            }
            Err(_) => self.invalidate(),
        }
    }

    /// Like [`LeafIndex::on_refine`] with the same slot for every child.
    pub fn on_refine_uniform(&mut self, parent: Key<D>, slot: u64) {
        if !self.valid {
            return;
        }
        let slots = vec![slot; Key::<D>::FANOUT];
        self.on_refine(parent, &slots);
    }

    /// Splice a coarsen: the `FANOUT` children of `parent` (all leaves)
    /// are replaced by `parent` with slot `slot`.
    ///
    /// No-op while invalid; invalidates defensively if the children are not
    /// present contiguously.
    pub fn on_coarsen(&mut self, parent: Key<D>, slot: u64) {
        if !self.valid {
            return;
        }
        let fanout = Key::<D>::FANOUT;
        let first = parent.child(0);
        match self.entries.binary_search_by(|e| e.0.zcmp(&first)) {
            Ok(pos) if pos + fanout <= self.entries.len() => {
                let contiguous =
                    parent.children().enumerate().all(|(i, c)| self.entries[pos + i].0 == c);
                if contiguous {
                    self.entries.splice(pos..pos + fanout, [(parent, slot)]);
                } else {
                    self.invalidate();
                }
            }
            _ => self.invalidate(),
        }
    }

    /// Containing leaf of `query` by binary search: the greatest entry
    /// `<=` query in Z-order, accepted iff it contains `query`. Returns
    /// `(entry_index, key, slot)`.
    ///
    /// Returns `None` when `query` lies strictly above the leaf level
    /// (i.e. the region is refined deeper than `query`), matching the
    /// backends' `containing_leaf` semantics.
    ///
    /// # Panics
    /// Panics if the index is invalid.
    pub fn find(&self, query: &Key<D>) -> Option<(usize, Key<D>, u64)> {
        assert!(self.valid, "leaf index queried while invalid");
        let pos = self.entries.partition_point(|e| e.0.zcmp(query).is_le());
        if pos == 0 {
            return None;
        }
        let (k, slot) = self.entries[pos - 1];
        k.contains(query).then_some((pos - 1, k, slot))
    }

    /// Resolve a Z-order-ascending batch of queries in one merge-scan.
    ///
    /// Returns per-query `Option<entry_index>` plus the number of index
    /// entries the scan advanced over (for DRAM cost charging). Queries
    /// **must** be sorted ascending (checked in debug builds); duplicates
    /// are fine.
    ///
    /// # Panics
    /// Panics if the index is invalid.
    pub fn resolve_sorted(&self, queries: &[Key<D>]) -> (Vec<Option<usize>>, usize) {
        assert!(self.valid, "leaf index queried while invalid");
        #[cfg(debug_assertions)]
        if queries.len() > 1 {
            assert!(
                crate::simd::cmp_keys_many(&queries[..queries.len() - 1], &queries[1..])
                    .iter()
                    .all(|o| o.is_le()),
                "resolve_sorted requires Z-order-ascending queries"
            );
        }
        let mut out = Vec::with_capacity(queries.len());
        let mut cur = 0usize; // number of entries known to be <= the query
        let mut touched = 0usize;
        for q in queries {
            while cur < self.entries.len() && self.entries[cur].0.zcmp(q).is_le() {
                cur += 1;
                touched += 1;
            }
            if cur == 0 {
                out.push(None);
                continue;
            }
            let (k, _) = self.entries[cur - 1];
            touched += 1;
            out.push(if k.contains(q) { Some(cur - 1) } else { None });
        }
        (out, touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::OctKey;

    fn build(keys: &[OctKey]) -> LeafIndex<3> {
        let mut idx = LeafIndex::new();
        idx.rebuild(keys.iter().enumerate().map(|(i, k)| (*k, i as u64)));
        idx
    }

    /// Leaves: root refined once, child 3 refined again.
    fn sample_leaves() -> Vec<OctKey> {
        let r = OctKey::root();
        let mut out: Vec<OctKey> = (0..8).filter(|&i| i != 3).map(|i| r.child(i)).collect();
        out.extend(r.child(3).children());
        out
    }

    #[test]
    fn find_matches_linear_scan() {
        let leaves = sample_leaves();
        let idx = build(&leaves);
        let probes = [
            OctKey::root().child(0).child(5).child(2),
            OctKey::root().child(3).child(7),
            OctKey::root().child(3).child(7).child(1),
            OctKey::root().child(6),
        ];
        for p in probes {
            let want = leaves.iter().find(|l| l.contains(&p)).copied();
            assert_eq!(idx.find(&p).map(|(_, k, _)| k), want, "probe {p:?}");
        }
        // Query at an internal position (coarser than the leaves): None.
        assert!(idx.find(&OctKey::root()).is_none());
        assert!(idx.find(&OctKey::root().child(3)).is_none());
    }

    #[test]
    fn resolve_sorted_matches_find() {
        let leaves = sample_leaves();
        let idx = build(&leaves);
        let mut queries: Vec<OctKey> = leaves
            .iter()
            .flat_map(|l| l.all_neighbors())
            .chain([OctKey::root().child(3)])
            .collect();
        queries.sort_unstable();
        let (resolved, touched) = idx.resolve_sorted(&queries);
        assert!(touched > 0);
        for (q, r) in queries.iter().zip(&resolved) {
            assert_eq!(r.map(|i| idx.entries()[i].0), idx.find(q).map(|(_, k, _)| k));
        }
    }

    #[test]
    fn refine_coarsen_splices_match_rebuild() {
        let mut idx = build(&sample_leaves());
        let target = OctKey::root().child(5);
        idx.on_refine_uniform(target, 9);
        let mut want = sample_leaves();
        want.retain(|k| *k != target);
        want.extend(target.children());
        want.sort_unstable();
        let got: Vec<OctKey> = idx.entries().iter().map(|e| e.0).collect();
        assert_eq!(got, want);

        idx.on_coarsen(target, 11);
        let mut want = sample_leaves();
        want.sort_unstable();
        let got: Vec<OctKey> = idx.entries().iter().map(|e| e.0).collect();
        assert_eq!(got, want);
        assert_eq!(idx.find(&target.child(2)).unwrap().2, 11);
    }

    #[test]
    fn hooks_are_noops_while_invalid_and_defensive_on_mismatch() {
        let mut idx = LeafIndex::<3>::new();
        idx.on_refine_uniform(OctKey::root(), 0);
        idx.on_coarsen(OctKey::root(), 0);
        assert!(!idx.is_valid());

        let mut idx = build(&sample_leaves());
        // Refining a key that is not a leaf must invalidate, not corrupt.
        idx.on_refine_uniform(OctKey::root().child(3), 0);
        assert!(!idx.is_valid());
    }
}
