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
//! [`LeafIndex::on_coarsen`] on every mesh mutation, and
//! [`LeafIndex::invalidate`] on wholesale changes (crash recovery,
//! snapshot restore). A hook does not touch the sorted array: it records
//! its edit in a small ordered delta (O(log n) per hook), and
//! [`LeafIndex::settle`] folds the whole delta into the array in one
//! O(n + k log n) merge before the next query — one pass per refine/coarsen
//! *sweep*, never one per octant (Kirilin & Burstedde). An invalid index
//! stays cheap: all incremental hooks become no-ops until the owner
//! rebuilds it from a full leaf enumeration.
//!
//! The index itself is DRAM-resident; owners are responsible for charging
//! DRAM-read costs for probes (see [`LeafIndex::lines_for_entries`] and the
//! touched-entry counts returned by the query methods).

use std::collections::BTreeMap;

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
/// * entries with the unsettled edits applied are exactly the owner's
///   current leaf set (disjoint cells — no entry is an ancestor of
///   another).
#[derive(Clone, Debug, Default)]
pub struct LeafIndex<const D: usize> {
    entries: Vec<(Key<D>, u64)>,
    /// Edits since the last [`LeafIndex::settle`], in Z-order: `Some(slot)`
    /// — the key is a leaf with that slot (overriding an entry of the same
    /// key), `None` — the key's entry is gone. A `None` is only ever
    /// recorded for a key that has an entry.
    delta: BTreeMap<Key<D>, Option<u64>>,
    valid: bool,
}

impl<const D: usize> LeafIndex<D> {
    /// New, invalid (empty) index; call [`LeafIndex::rebuild`] before use.
    pub fn new() -> Self {
        LeafIndex { entries: Vec::new(), delta: BTreeMap::new(), valid: false }
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
        self.delta.clear();
    }

    /// Rebuild from a full leaf enumeration (any order; sorted here).
    ///
    /// Returns the number of entries, so the owner can account the rebuild
    /// cost (the enumeration itself is charged by the owner's traversal).
    pub fn rebuild(&mut self, leaves: impl IntoIterator<Item = (Key<D>, u64)>) -> usize {
        let entries: Vec<(Key<D>, u64)> = leaves.into_iter().collect();
        // Batched Z-order sort: one anchor pass instead of two alignment
        // shifts inside every one of the n·log n comparisons.
        let keys: Vec<Key<D>> = entries.iter().map(|e| e.0).collect();
        let order = crate::simd::zorder_argsort(&keys);
        self.entries = order.into_iter().map(|i| entries[i]).collect();
        self.delta.clear();
        self.valid = true;
        self.entries.len()
    }

    /// Fold the edits recorded by the hooks since the last settle into the
    /// sorted array: one merge for k edits (k binary searches, O(n + k)
    /// copying). Owners call this once before a round of queries; a no-op
    /// when nothing was edited.
    pub fn settle(&mut self) {
        if self.delta.is_empty() {
            return;
        }
        let delta = std::mem::take(&mut self.delta);
        let mut merged = Vec::with_capacity(self.entries.len() + delta.len());
        let mut rest = &self.entries[..];
        for (k, edit) in delta {
            // Untouched entries below `k` move over as one block.
            let cut = rest.partition_point(|e| e.0.zcmp(&k).is_lt());
            merged.extend_from_slice(&rest[..cut]);
            rest = &rest[cut..];
            if rest.first().is_some_and(|e| e.0 == k) {
                rest = &rest[1..];
            }
            if let Some(slot) = edit {
                merged.push((k, slot));
            }
        }
        merged.extend_from_slice(rest);
        self.entries = merged;
    }

    /// Number of leaves in the index (0 when invalid).
    ///
    /// # Panics
    /// Panics if the index holds unsettled edits.
    pub fn len(&self) -> usize {
        assert!(self.delta.is_empty(), "leaf index queried with unsettled edits");
        self.entries.len()
    }

    /// True when the index holds no entries.
    ///
    /// # Panics
    /// Panics if the index holds unsettled edits.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted `(key, slot)` entries.
    ///
    /// # Panics
    /// Panics if the index is invalid — callers must rebuild first — or
    /// holds unsettled edits.
    pub fn entries(&self) -> &[(Key<D>, u64)] {
        assert!(self.valid, "leaf index queried while invalid");
        assert!(self.delta.is_empty(), "leaf index queried with unsettled edits");
        &self.entries
    }

    /// DRAM cachelines occupied by `n` index entries (for cost charging).
    pub fn lines_for_entries(n: usize) -> u64 {
        ((n * ENTRY_BYTES).div_ceil(LINE)) as u64
    }

    /// Record that `k` stops being a leaf; `false` if it was not one.
    fn take(&mut self, k: Key<D>) -> bool {
        if self.entries.binary_search_by(|e| e.0.zcmp(&k)).is_ok() {
            self.delta.insert(k, None) != Some(None)
        } else {
            matches!(self.delta.remove(&k), Some(Some(_)))
        }
    }

    /// Record a refine: `parent` (a leaf) is replaced by its `FANOUT`
    /// children, child `i` receiving `child_slots[i]`.
    ///
    /// No-op while invalid. If `parent` is not a leaf the index can no
    /// longer be trusted and is invalidated (defensive, should not happen
    /// when owners hook every mutation).
    pub fn on_refine(&mut self, parent: Key<D>, child_slots: &[u64]) {
        debug_assert_eq!(child_slots.len(), Key::<D>::FANOUT);
        self.refine_with(parent, |i| child_slots[i]);
    }

    /// Like [`LeafIndex::on_refine`] with the same slot for every child.
    pub fn on_refine_uniform(&mut self, parent: Key<D>, slot: u64) {
        self.refine_with(parent, |_| slot);
    }

    fn refine_with(&mut self, parent: Key<D>, slot_of: impl Fn(usize) -> u64) {
        if !self.valid {
            return;
        }
        if !self.take(parent) {
            self.invalidate();
            return;
        }
        for (i, c) in parent.children().enumerate() {
            self.delta.insert(c, Some(slot_of(i)));
        }
    }

    /// Record a coarsen: the `FANOUT` children of `parent` (all leaves)
    /// are replaced by `parent` with slot `slot`.
    ///
    /// No-op while invalid; invalidates defensively if a child is not a
    /// leaf.
    pub fn on_coarsen(&mut self, parent: Key<D>, slot: u64) {
        if !self.valid {
            return;
        }
        for c in parent.children() {
            if !self.take(c) {
                self.invalidate();
                return;
            }
        }
        self.delta.insert(parent, Some(slot));
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
    /// Panics if the index is invalid or holds unsettled edits.
    pub fn find(&self, query: &Key<D>) -> Option<(usize, Key<D>, u64)> {
        let entries = self.entries();
        let pos = entries.partition_point(|e| e.0.zcmp(query).is_le());
        if pos == 0 {
            return None;
        }
        let (k, slot) = entries[pos - 1];
        k.contains(query).then_some((pos - 1, k, slot))
    }

    /// The merge-scan under both batch queries: `queries` ascend in
    /// Z-order, `emit(j, hit)` receives the `j`-th query's entry index.
    /// Returns the number of index entries the scan advanced over.
    fn merge_scan<'q>(
        &self,
        queries: impl Iterator<Item = &'q Key<D>>,
        mut emit: impl FnMut(usize, Option<usize>),
    ) -> usize {
        let entries = self.entries();
        let mut cur = 0usize; // number of entries known to be <= the query
        let mut touched = 0usize;
        for (j, q) in queries.enumerate() {
            while cur < entries.len() && entries[cur].0.zcmp(q).is_le() {
                cur += 1;
                touched += 1;
            }
            if cur == 0 {
                emit(j, None);
                continue;
            }
            touched += 1;
            emit(j, entries[cur - 1].0.contains(q).then_some(cur - 1));
        }
        touched
    }

    /// Resolve a Z-order-ascending batch of queries in one merge-scan.
    ///
    /// Returns per-query `Option<entry_index>` plus the number of index
    /// entries the scan advanced over (for DRAM cost charging). Queries
    /// **must** be sorted ascending (checked in debug builds); duplicates
    /// are fine.
    ///
    /// # Panics
    /// Panics if the index is invalid or holds unsettled edits.
    pub fn resolve_sorted(&self, queries: &[Key<D>]) -> (Vec<Option<usize>>, usize) {
        debug_assert!(
            queries.windows(2).all(|w| w[0] <= w[1]),
            "resolve_sorted requires Z-order-ascending queries"
        );
        let mut out = Vec::with_capacity(queries.len());
        let touched = self.merge_scan(queries.iter(), |_, hit| out.push(hit));
        (out, touched)
    }

    /// Resolve a batch of queries given in any order: Z-order argsort,
    /// one merge-scan over the keys in that order, each result stored
    /// where its key stands, so `out[i]` answers `keys[i]`. Returns the
    /// per-key `Option<entry_index>` and the scan's touched-entry count
    /// (the owner charges it) — what [`LeafIndex::resolve_sorted`] returns
    /// on the sorted batch. Hits ascend in entry index exactly as their
    /// keys ascend in Z-order.
    ///
    /// # Panics
    /// Panics if the index is invalid or holds unsettled edits.
    pub fn resolve_batch(&self, keys: &[Key<D>]) -> (Vec<Option<usize>>, usize) {
        let order = crate::simd::zorder_argsort(keys);
        let mut out = vec![None; keys.len()];
        let touched =
            self.merge_scan(order.iter().map(|&i| &keys[i]), |j, hit| out[order[j]] = hit);
        (out, touched)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
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
    fn resolve_batch_answers_in_input_order_what_find_answers() {
        // A sub-root index (the leaves under child 3, child 3·5 refined
        // again), so the batch can hold keys outside the indexed root.
        let sub = OctKey::root().child(3);
        let mut leaves: Vec<OctKey> = (0..8).filter(|&i| i != 5).map(|i| sub.child(i)).collect();
        leaves.extend(sub.child(5).children());
        let idx = build(&leaves);
        let mut sorted: Vec<OctKey> = leaves.clone();
        sorted.extend(leaves.iter().map(|l| l.child(6).child(1))); // below the leaves
        sorted.extend([sub, sub.child(5), OctKey::root()]); // above them
        sorted.extend((0..8).filter(|&i| i != 3).map(|i| OctKey::root().child(i).child(2)));
        sorted.sort_unstable();
        let reversed: Vec<OctKey> = sorted.iter().rev().copied().collect();
        let mut shuffled = sorted.clone();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        let duplicated: Vec<OctKey> = shuffled.iter().chain(&reversed).copied().collect();

        let touched_sorted = idx.resolve_sorted(&sorted).1;
        for (name, batch) in [("sorted", &sorted), ("reversed", &reversed), ("shuffled", &shuffled)]
        {
            let (got, touched) = idx.resolve_batch(batch);
            let want: Vec<Option<usize>> =
                batch.iter().map(|q| idx.find(q).map(|(e, _, _)| e)).collect();
            assert_eq!(got, want, "{name}");
            assert_eq!(touched, touched_sorted, "{name}: one merge-scan over the sorted batch");
        }
        assert!(idx.resolve_batch(&sorted).0.iter().any(Option::is_some));
        assert!(idx.resolve_batch(&sorted).0.iter().any(Option::is_none));
        let (got, _) = idx.resolve_batch(&duplicated);
        let want: Vec<Option<usize>> =
            duplicated.iter().map(|q| idx.find(q).map(|(e, _, _)| e)).collect();
        assert_eq!(got, want, "duplicated");
        assert_eq!(idx.resolve_batch(&[]), (Vec::new(), 0));
    }

    #[test]
    fn refine_coarsen_edits_match_rebuild() {
        let mut idx = build(&sample_leaves());
        let target = OctKey::root().child(5);
        idx.on_refine_uniform(target, 9);
        idx.settle();
        let mut want = sample_leaves();
        want.retain(|k| *k != target);
        want.extend(target.children());
        want.sort_unstable();
        let got: Vec<OctKey> = idx.entries().iter().map(|e| e.0).collect();
        assert_eq!(got, want);

        idx.on_coarsen(target, 11);
        idx.settle();
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

    #[test]
    #[should_panic(expected = "unsettled edits")]
    fn queries_refuse_unsettled_edits() {
        let mut idx = build(&sample_leaves());
        idx.on_refine_uniform(OctKey::root().child(5), 0);
        idx.find(&OctKey::root().child(5).child(1));
    }

    /// The per-octant splice maintenance the edit delta replaced, kept as
    /// the executable specification: every hook rewrites the sorted array
    /// on the spot.
    struct SpliceModel {
        entries: Vec<(OctKey, u64)>,
        valid: bool,
    }

    impl SpliceModel {
        fn invalidate(&mut self) {
            self.valid = false;
            self.entries.clear();
        }

        fn on_refine(&mut self, parent: OctKey, child_slots: &[u64]) {
            if !self.valid {
                return;
            }
            match self.entries.binary_search_by(|e| e.0.zcmp(&parent)) {
                Ok(pos) => {
                    let children: Vec<_> =
                        parent.children().zip(child_slots.iter().copied()).collect();
                    self.entries.splice(pos..pos + 1, children);
                }
                Err(_) => self.invalidate(),
            }
        }

        fn on_coarsen(&mut self, parent: OctKey, slot: u64) {
            if !self.valid {
                return;
            }
            let fanout = OctKey::FANOUT;
            let first = parent.child(0);
            match self.entries.binary_search_by(|e| e.0.zcmp(&first)) {
                Ok(pos)
                    if pos + fanout <= self.entries.len()
                        && parent
                            .children()
                            .enumerate()
                            .all(|(i, c)| self.entries[pos + i].0 == c) =>
                {
                    self.entries.splice(pos..pos + fanout, [(parent, slot)]);
                }
                _ => self.invalidate(),
            }
        }
    }

    mod model_parity {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// Refine the `i % len`-th current leaf, child `c` getting slot
            /// `base + c` (or `base` for every child when `uniform`).
            RefineLeaf { i: usize, base: u64, uniform: bool },
            /// Refine the last child of the previous refine's parent: a key
            /// that, until a settle, exists only in the edit delta.
            RefineFresh(u64),
            /// Coarsen the parent of the `i % len`-th current leaf when all
            /// its siblings are leaves too (skipped otherwise). Right after
            /// a refine this undoes it before any settle.
            CoarsenAt { i: usize, slot: u64 },
            /// Refine or coarsen an arbitrary key — almost always not a
            /// leaf / not a parent of leaves: both sides must invalidate.
            Arbitrary { path: Vec<usize>, coarsen: bool },
            /// Fold the delta and compare everything observable.
            Settle,
        }

        fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
            prop::collection::vec(
                prop_oneof![
                    12 => (0usize..4096, 0u64..1000, any::<bool>())
                        .prop_map(|(i, base, uniform)| Op::RefineLeaf { i, base, uniform }),
                    6 => (0u64..1000).prop_map(Op::RefineFresh),
                    8 => (0usize..4096, 0u64..1000)
                        .prop_map(|(i, slot)| Op::CoarsenAt { i, slot }),
                    1 => (prop::collection::vec(0usize..8, 0..4), any::<bool>())
                        .prop_map(|(path, coarsen)| Op::Arbitrary { path, coarsen }),
                    6 => Just(Op::Settle),
                ],
                1..60,
            )
        }

        /// Settle, then everything a caller can observe must agree with
        /// the model: validity, entries, `find`, and `resolve_sorted`
        /// including its `touched` count.
        fn check_settled(idx: &mut LeafIndex<3>, model: &SpliceModel) {
            idx.settle();
            assert_eq!(idx.is_valid(), model.valid);
            if !model.valid {
                assert_eq!(idx.len(), 0);
                return;
            }
            assert_eq!(idx.entries(), &model.entries[..]);
            let reference = LeafIndex { entries: model.entries.clone(), ..build(&[]) };
            let mut queries: Vec<OctKey> = model
                .entries
                .iter()
                .step_by(3)
                .flat_map(|e| [e.0, e.0.child(5), e.0.parent().unwrap_or(e.0)])
                .collect();
            queries.sort_unstable();
            for q in &queries {
                assert_eq!(idx.find(q), reference.find(q));
            }
            assert_eq!(idx.resolve_sorted(&queries), reference.resolve_sorted(&queries));
        }

        fn refine(idx: &mut LeafIndex<3>, model: &mut SpliceModel, key: OctKey, slots: &[u64]) {
            if slots.iter().all(|&s| s == slots[0]) {
                idx.on_refine_uniform(key, slots[0]);
            } else {
                idx.on_refine(key, slots);
            }
            model.on_refine(key, slots);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn edit_delta_matches_splice_model(ops in arb_ops()) {
                let mut idx = build(&sample_leaves());
                let mut model = SpliceModel { entries: idx.entries().to_vec(), valid: true };
                let mut last_parent: Option<OctKey> = None;
                for op in ops {
                    let n = model.entries.len();
                    match op {
                        Op::Settle => check_settled(&mut idx, &model),
                        Op::RefineLeaf { i, base, uniform } if n > 0 => {
                            let key = model.entries[i % n].0;
                            if key.level() < 6 {
                                let step = u64::from(!uniform);
                                let slots: Vec<u64> = (0..8).map(|c| base + c * step).collect();
                                refine(&mut idx, &mut model, key, &slots);
                                last_parent = Some(key);
                            }
                        }
                        Op::RefineFresh(slot) => {
                            if let Some(p) = last_parent.take().filter(|p| p.level() < 5) {
                                refine(&mut idx, &mut model, p.child(7), &[slot; 8]);
                            }
                        }
                        Op::CoarsenAt { i, slot } if n > 0 => {
                            let is_leaf = |k: OctKey| {
                                model.entries.binary_search_by(|e| e.0.zcmp(&k)).is_ok()
                            };
                            match model.entries[i % n].0.parent() {
                                Some(p) if p.children().all(is_leaf) => {
                                    idx.on_coarsen(p, slot);
                                    model.on_coarsen(p, slot);
                                }
                                _ => {}
                            }
                        }
                        Op::Arbitrary { path, coarsen } => {
                            let key = path.iter().fold(OctKey::root(), |k, &c| k.child(c));
                            if coarsen {
                                idx.on_coarsen(key, 7);
                                model.on_coarsen(key, 7);
                            } else {
                                refine(&mut idx, &mut model, key, &[7; 8]);
                            }
                        }
                        _ => {}
                    }
                    assert_eq!(idx.is_valid(), model.valid);
                }
                check_settled(&mut idx, &model);
            }
        }
    }
}
