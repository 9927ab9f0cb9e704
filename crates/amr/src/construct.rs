//! `Construct`: build the initial octree on each processor.

use pmoctree_morton::OctKey;

use crate::backend::OctreeBackend;

/// Uniformly refine the tree until every leaf is at `level`.
///
/// This is the usual starting point of a simulation: a regular base grid
/// that the criterion-driven adaptation then deepens near features.
pub fn construct_uniform(b: &mut dyn OctreeBackend, level: u8) {
    for l in 0..level {
        let mut to_refine = Vec::new();
        b.for_each_leaf(&mut |k, _| {
            if k.level() == l {
                to_refine.push(k);
            }
        });
        for k in to_refine {
            let _ = b.refine(k);
        }
    }
}

/// Refine along a path to create one deep leaf at `key` (plus the sibling
/// leaves the splits create). Useful to build skewed test trees.
pub fn construct_path(b: &mut dyn OctreeBackend, key: OctKey) {
    for l in 0..key.level() {
        let anc = key.ancestor_at(l);
        if b.is_leaf(anc) == Some(true) {
            let _ = b.refine(anc);
        }
    }
}
