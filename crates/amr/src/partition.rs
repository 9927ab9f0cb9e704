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
