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

/// Migration plan entry: octants moving from `from` to `to`.
#[derive(Debug, Clone, PartialEq)]
pub struct Migration {
    /// Source rank.
    pub from: usize,
    /// Destination rank.
    pub to: usize,
    /// Leaves to move.
    pub keys: Vec<OctKey>,
}

/// Given the old ownership (rank per leaf) and the new ranges, compute
/// which leaves each rank must ship where. The returned volume feeds the
/// network model.
pub fn migration_plan(
    leaves: &[(OctKey, f64)],
    old_owner: &dyn Fn(&OctKey) -> usize,
    new_ranges: &[ZRange<3>],
) -> Vec<Migration> {
    let mut map: std::collections::HashMap<(usize, usize), Vec<OctKey>> =
        std::collections::HashMap::new();
    for (k, _) in leaves {
        let from = old_owner(k);
        let to = new_ranges.iter().position(|r| r.owns(k)).expect("ranges cover the curve");
        if from != to {
            map.entry((from, to)).or_default().push(*k);
        }
    }
    let mut out: Vec<Migration> =
        map.into_iter().map(|((from, to), keys)| Migration { from, to, keys }).collect();
    out.sort_by_key(|m| (m.from, m.to));
    out
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

    #[test]
    fn migration_plan_moves_only_changed_owners() {
        let mut b = InCoreBackend::new();
        construct_uniform(&mut b, 2);
        let leaves = weighted_leaves(&mut b);
        let old_ranges = partition(&mut b, 4);
        // New partition with different weighting: all leaves same rank 0.
        let new_ranges = partition(&mut b, 1);
        let old_ranges2 = old_ranges.clone();
        let owner = move |k: &OctKey| old_ranges2.iter().position(|r| r.owns(k)).expect("owner");
        let plan = migration_plan(&leaves, &owner, &new_ranges);
        // Everything owned by old ranks 1..3 moves to 0.
        let moved: usize = plan.iter().map(|m| m.keys.len()).sum();
        let expected: usize = leaves
            .iter()
            .filter(|(k, _)| old_ranges.iter().position(|r| r.owns(k)).expect("o") != 0)
            .count();
        assert_eq!(moved, expected);
        assert!(plan.iter().all(|m| m.to == 0 && m.from != 0));
    }

    #[test]
    fn same_partition_no_migration() {
        let mut b = InCoreBackend::new();
        construct_uniform(&mut b, 2);
        let leaves = weighted_leaves(&mut b);
        let ranges = partition(&mut b, 4);
        let r2 = ranges.clone();
        let owner = move |k: &OctKey| r2.iter().position(|r| r.owns(k)).expect("owner");
        assert!(migration_plan(&leaves, &owner, &ranges).is_empty());
    }
}
