//! `Partition`: split the global mesh across processors along the Morton
//! curve, weighted by per-octant work.

use pmoctree_morton::{partition_by_weight, OctKey, ZRange};

use crate::backend::OctreeBackend;

/// Collect the leaves of a backend as Z-sorted weighted partition input.
/// The weight is the `work` payload field (falling back to 1.0 when the
/// solver has not recorded anything).
pub fn weighted_leaves(b: &mut dyn OctreeBackend) -> Vec<(OctKey, f64)> {
    let mut out = Vec::with_capacity(b.leaf_count());
    b.for_each_leaf(&mut |k, d| {
        let w = if d[3] > 0.0 { d[3] } else { 1.0 };
        out.push((k, w));
    });
    out.sort_by_key(|a| a.0);
    out
}

/// Compute `parts` Morton ranges balancing the leaf weights.
pub fn partition(b: &mut dyn OctreeBackend, parts: usize) -> Vec<ZRange<3>> {
    let leaves = weighted_leaves(b);
    partition_by_weight(&leaves, parts)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::backend::InCoreBackend;
    use crate::construct::construct_uniform;

    #[test]
    fn partition_balances_uniform_mesh() {
        let mut b = InCoreBackend::new();
        construct_uniform(&mut b, 3); // 512 leaves
        let ranges = partition(&mut b, 8);
        assert_eq!(ranges.len(), 8);
        let leaves = weighted_leaves(&mut b);
        for r in &ranges {
            let n = leaves.iter().filter(|(k, _)| r.owns(k)).count();
            assert!((60..=68).contains(&n), "unbalanced: {n}");
        }
    }

    #[test]
    fn partition_honors_work_weights() {
        let mut b = InCoreBackend::new();
        construct_uniform(&mut b, 2); // 64 leaves
                                      // The Z-order-first leaf carries huge work.
        let leaves = weighted_leaves(&mut b);
        let first = leaves[0].0;
        b.set_data(first, [0.0, 0.0, 0.0, 63.0]).unwrap();
        let ranges = partition(&mut b, 2);
        let leaves = weighted_leaves(&mut b);
        let n0 = leaves.iter().filter(|(k, _)| ranges[0].owns(k)).count();
        assert!(n0 <= 2, "heavy leaf should sit almost alone: {n0}");
    }
}
