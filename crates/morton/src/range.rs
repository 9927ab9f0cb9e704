//! Z-order ranges and space-filling-curve partitioning.
//!
//! Parallel octree meshing assigns each rank a contiguous interval of the
//! Morton curve ([Tu et al. SC'05], [Sundar et al. 2008]); this module
//! provides the interval type and the weighted splitting used by the
//! `Partition` meshing routine.

use crate::code::Key;

/// A half-open interval `[lo, hi)` of the Morton curve at a fixed level,
/// expressed on *anchor* codes (codes of `first_descendant(MAX_LEVEL)`),
/// so that cells of any level can be tested for membership.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZRange<const D: usize> {
    /// Inclusive lower anchor (left-aligned code at `MAX_LEVEL`).
    pub lo: u64,
    /// Exclusive upper anchor; `u64::MAX` means "to the end of the domain".
    pub hi: u64,
}

/// Left-aligned anchor of a key: the Morton code of its first descendant at
/// `MAX_LEVEL`. Two cells are disjoint iff their anchor ranges are.
#[inline]
pub fn anchor<const D: usize>(k: &Key<D>) -> u64 {
    k.raw() << (D as u32 * (Key::<D>::MAX_LEVEL - k.level()) as u32)
}

/// One-past-the-last anchor covered by `k`.
#[inline]
pub fn anchor_end<const D: usize>(k: &Key<D>) -> u64 {
    let shift = D as u32 * (Key::<D>::MAX_LEVEL - k.level()) as u32;
    let span = 1u64 << shift;
    anchor::<D>(k).saturating_add(span)
}

impl<const D: usize> ZRange<D> {
    /// The whole domain.
    pub fn all() -> Self {
        ZRange { lo: 0, hi: u64::MAX }
    }

    /// Range covering exactly the cell `k` and its descendants.
    pub fn of(k: &Key<D>) -> Self {
        ZRange { lo: anchor::<D>(k), hi: anchor_end::<D>(k) }
    }

    /// Does this range contain cell `k` entirely?
    #[inline]
    pub fn contains(&self, k: &Key<D>) -> bool {
        anchor::<D>(k) >= self.lo && anchor_end::<D>(k) <= self.hi
    }

    /// Does this range contain the *anchor* of `k` (ownership test used by
    /// partitioning: each cell is owned by the range holding its anchor)?
    #[inline]
    pub fn owns(&self, k: &Key<D>) -> bool {
        let a = anchor::<D>(k);
        a >= self.lo && a < self.hi
    }

    /// Do the two ranges overlap?
    #[inline]
    pub fn overlaps(&self, other: &Self) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }

    /// Is the range empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

/// Split a set of weighted leaves (sorted by Z-order) into `parts`
/// contiguous [`ZRange`]s with approximately equal total weight.
///
/// This is the load-balancing step of the `Partition` routine: weights are
/// per-octant work estimates (typically 1, or solver cost). Returns exactly
/// `parts` ranges covering the entire curve; trailing ranges may own no
/// leaves when there are fewer leaves than parts.
///
/// # Panics
/// Panics if `parts == 0` or the leaves are not sorted by Z-order.
pub fn partition_by_weight<const D: usize>(
    leaves: &[(Key<D>, f64)],
    parts: usize,
) -> Vec<ZRange<D>> {
    assert!(parts > 0, "cannot partition into zero parts");
    debug_assert!(
        leaves.windows(2).all(|w| w[0].0 < w[1].0),
        "leaves must be sorted by Z-order and unique"
    );
    let total: f64 = leaves.iter().map(|(_, w)| w.max(0.0)).sum();
    let mut out = Vec::with_capacity(parts);
    let mut cursor = 0u64; // current lower anchor
    let mut acc = 0.0;
    let mut li = 0usize;
    for p in 0..parts {
        if p == parts - 1 {
            out.push(ZRange { lo: cursor, hi: u64::MAX });
            break;
        }
        let target = total * (p as f64 + 1.0) / parts as f64;
        while li < leaves.len() && acc < target {
            acc += leaves[li].1.max(0.0);
            li += 1;
        }
        // Cut after the last consumed leaf.
        let hi = if li == 0 {
            cursor
        } else if li >= leaves.len() {
            u64::MAX
        } else {
            anchor::<D>(&leaves[li].0)
        };
        let hi = hi.max(cursor);
        out.push(ZRange { lo: cursor, hi });
        cursor = hi;
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::code::{OctKey, QuadKey};

    fn leaves_at_level(level: u8) -> Vec<(QuadKey, f64)> {
        let mut v: Vec<QuadKey> = (0..(1u64 << level))
            .flat_map(|x| (0..(1u64 << level)).map(move |y| QuadKey::from_coords([x, y], level)))
            .collect();
        v.sort();
        v.into_iter().map(|k| (k, 1.0)).collect()
    }

    #[test]
    fn range_of_root_is_all_anchors() {
        let r = ZRange::<3>::of(&OctKey::root());
        assert_eq!(r.lo, 0);
        assert!(r.hi >= anchor_end::<3>(&OctKey::root().child(7)));
    }

    #[test]
    fn child_ranges_tile_parent() {
        let k = OctKey::root().child(5);
        let parent = ZRange::<3>::of(&k);
        let mut cursor = parent.lo;
        for c in k.children() {
            let r = ZRange::<3>::of(&c);
            assert_eq!(r.lo, cursor);
            cursor = r.hi;
        }
        assert_eq!(cursor, parent.hi);
    }

    #[test]
    fn contains_vs_owns() {
        let k = OctKey::root().child(2);
        let r = ZRange::<3>::of(&k);
        assert!(r.contains(&k.child(0)));
        assert!(r.owns(&k.child(0)));
        assert!(!r.contains(&OctKey::root()));
        // Root's anchor is 0 which lies in child 0's range, not child 2's.
        assert!(!r.owns(&OctKey::root()));
    }

    #[test]
    fn partition_equal_weights_balances() {
        let leaves = leaves_at_level(4); // 256 leaves
        let parts = partition_by_weight(&leaves, 8);
        assert_eq!(parts.len(), 8);
        // Ranges are contiguous and cover everything.
        assert_eq!(parts[0].lo, 0);
        assert_eq!(parts.last().unwrap().hi, u64::MAX);
        for w in parts.windows(2) {
            assert_eq!(w[0].hi, w[1].lo);
        }
        // Each part owns 32 +- 1 leaves.
        for r in &parts {
            let n = leaves.iter().filter(|(k, _)| r.owns(k)).count();
            assert!((31..=33).contains(&n), "part owns {n} leaves");
        }
    }

    #[test]
    fn partition_skewed_weights() {
        let mut leaves = leaves_at_level(3); // 64 leaves
                                             // First leaf carries half of all the weight.
        leaves[0].1 = 63.0;
        let parts = partition_by_weight(&leaves, 2);
        let n0 = leaves.iter().filter(|(k, _)| parts[0].owns(k)).count();
        // Part 0 should own just the heavy leaf (possibly a couple more).
        assert!(n0 <= 3, "heavy part owns {n0} leaves");
    }

    #[test]
    fn partition_more_parts_than_leaves() {
        let leaves = leaves_at_level(1); // 4 leaves
        let parts = partition_by_weight(&leaves, 16);
        assert_eq!(parts.len(), 16);
        let owned: usize =
            parts.iter().map(|r| leaves.iter().filter(|(k, _)| r.owns(k)).count()).sum();
        assert_eq!(owned, 4);
    }

    #[test]
    fn every_leaf_owned_exactly_once() {
        let leaves = leaves_at_level(4);
        let parts = partition_by_weight(&leaves, 5);
        for (k, _) in &leaves {
            let owners = parts.iter().filter(|r| r.owns(k)).count();
            assert_eq!(owners, 1);
        }
    }
}
