//! The decomposition invariant of the parallel octree, checked after every
//! step of PM-octree clusters: the ranks' owned leaves are disjoint, cover
//! the domain, and are 2:1-balanced across ranks, and every rank's tree is
//! 2:1 on its own. The step's local `adapt` runs through
//! `RangedCriterion`, and the partition's `settle` re-runs it to a fixed
//! point, so this is what holds both to the global mesh.
//!
//! The balance gather reads each rank's owned keys off its leaf index: on
//! every scheme they are the range's share of the tree's leaves, their
//! rank-order concatenation ascends, and on NVBM they read no line.

use pmoctree_amr::check_balance;
use pmoctree_cluster::{ClusterSim, Rank, Scheme};
use pmoctree_morton::{anchor, anchor_end, OctKey};
use pmoctree_solver::SimConfig;
use proptest::prelude::*;

/// The owned leaves of every rank, in Z-order, after checking each rank
/// passes `check_balance`.
fn owned_leaves(c: &mut ClusterSim) -> Vec<OctKey> {
    let mut all = Vec::new();
    for r in &mut c.ranks {
        let violation = check_balance(r.backend.as_mut());
        assert!(violation.is_none(), "rank {} is not 2:1: {violation:?}", r.id);
        all.extend(r.owned_leaves().into_iter().map(|(k, _)| k));
    }
    all.sort_unstable_by_key(anchor::<3>);
    all
}

/// Disjoint, covering, and 2:1 across ranks: consecutive leaves abut, the
/// volumes sum to 1, and no face neighbor's leaf is two levels coarser.
fn check_decomposition(leaves: &[OctKey]) {
    let mut cursor = 0u64;
    let mut volume = 0.0f64;
    for k in leaves {
        assert_eq!(anchor::<3>(k), cursor, "gap or overlap before {k:?}");
        cursor = anchor_end::<3>(k);
        volume += k.extent().powi(3);
    }
    assert_eq!(cursor, anchor_end::<3>(&OctKey::root()), "the leaves stop short of the domain");
    assert_eq!(volume, 1.0);
    let anchors: Vec<u64> = leaves.iter().map(anchor::<3>).collect();
    let containing = |k: &OctKey| leaves[anchors.partition_point(|&a| a <= anchor::<3>(k)) - 1];
    for k in leaves {
        for axis in 0..3 {
            for dir in [-1i8, 1] {
                if let Some(nk) = k.face_neighbor(axis, dir) {
                    let leaf = containing(&nk);
                    assert!(leaf.level() + 1 >= k.level(), "{k:?} faces {leaf:?} across ranks");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn owned_leaves_tile_the_domain_two_to_one_after_every_step(
        max_level in 3u8..=4,
        t0 in 0.05f64..0.4,
    ) {
        let prev = rayon::current_num_threads();
        for procs in [2, 4] {
            for workers in [1, 2] {
                rayon::set_num_threads(workers);
                let cfg = SimConfig { steps: 3, t0, max_level, base_level: 2, ..SimConfig::default() };
                let mut c = ClusterSim::new(Scheme::pm_default(), procs, cfg, 16 << 20);
                check_decomposition(&owned_leaves(&mut c));
                for step in 0..3 {
                    let s = c.step(step);
                    let leaves = owned_leaves(&mut c);
                    prop_assert_eq!(s.elements, leaves.len());
                    check_decomposition(&leaves);
                }
            }
        }
        rayon::set_num_threads(prev);
    }
}

/// The rank's owned keys by their definition: every leaf the tree visits
/// whose anchor the range owns, sorted.
fn owned_by_walk(r: &mut Rank) -> Vec<OctKey> {
    let (range, mut keys) = (r.range, Vec::new());
    r.backend.for_each_leaf(&mut |k, _| keys.extend(range.owns(&k).then_some(k)));
    keys.sort_unstable();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn owned_keys_are_the_range_filter_of_the_walk(
        max_level in 3u8..=4,
        t0 in 0.05f64..0.4,
        steps in 0usize..3,
    ) {
        let schemes = [Scheme::pm_default(), Scheme::InCore, Scheme::Etree];
        for (scheme, procs) in schemes.iter().flat_map(|s| [(*s, 2), (*s, 4)]) {
            let cfg = SimConfig { steps: 3, t0, max_level, base_level: 2, ..SimConfig::default() };
            let mut c = ClusterSim::new(scheme, procs, cfg, 16 << 20);
            for step in 0..steps {
                c.step(step);
            }
            let mut gathered = Vec::new();
            for r in &mut c.ranks {
                let lines = r.backend.mem_stats().nvbm.read_lines;
                let keys = r.owned_keys();
                if matches!(scheme, Scheme::Pm { .. }) {
                    prop_assert_eq!(r.backend.mem_stats().nvbm.read_lines, lines, "rank {} read NVBM", r.id);
                }
                prop_assert_eq!(&keys, &owned_by_walk(r), "{} rank {}", scheme.name(), r.id);
                gathered.extend(keys);
            }
            prop_assert!(gathered.windows(2).all(|w| w[0] < w[1]), "{} x{}: not ascending", scheme.name(), procs);
            prop_assert_eq!(gathered.len(), c.elements());
        }
    }
}
