//! Cross-backend equivalence: the three octree implementations must be
//! observationally identical under any meshing sequence, and 2:1 balance
//! must hold after the balanced primitives, whichever backend ran them.

use pm_octree::{PmConfig, PmOctree};
use pmoctree_amr::{
    adapt, can_coarsen_many, check_balance, coarsen_balanced, refine_balanced, AdaptCriterion,
    Cell, EtreeBackend, InCoreBackend, OctreeBackend, PmBackend, Target,
};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{DeviceModel, NvbmArena};
use proptest::prelude::*;

fn pm_backend() -> PmBackend {
    PmBackend::new(PmOctree::create(
        NvbmArena::new(64 << 20, DeviceModel::default()),
        PmConfig { dynamic_transform: false, c0_capacity_octants: 128, ..PmConfig::default() },
    ))
}

#[derive(Debug, Clone)]
enum MeshOp {
    RefineBalanced(Vec<usize>),
    CoarsenBalanced(Vec<usize>),
    SetData(Vec<usize>, f64),
    /// Refine the child-`i` chain from the root down to `MAX_LEVEL`, then
    /// that deepest leaf once more: every backend refuses it unchanged.
    Chain(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<MeshOp>> {
    let path = prop::collection::vec(0usize..8, 0..4);
    prop::collection::vec(
        prop_oneof![
            4 => path.clone().prop_map(MeshOp::RefineBalanced),
            2 => path.clone().prop_map(MeshOp::CoarsenBalanced),
            2 => (path, -5.0f64..5.0).prop_map(|(p, v)| MeshOp::SetData(p, v)),
            1 => (0usize..8).prop_map(MeshOp::Chain),
        ],
        1..25,
    )
}

fn key_of(path: &[usize]) -> OctKey {
    let mut k = OctKey::root();
    for &i in path {
        k = k.child(i);
    }
    k
}

fn apply(b: &mut dyn OctreeBackend, op: &MeshOp) {
    match op {
        MeshOp::RefineBalanced(p) => {
            refine_balanced(b, key_of(p));
        }
        MeshOp::CoarsenBalanced(p) => {
            coarsen_balanced(b, key_of(p));
        }
        MeshOp::SetData(p, v) => {
            let _ = b.set_data(key_of(p), [*v, 0.0, 0.0, 0.0]);
        }
        MeshOp::Chain(i) => {
            let mut k = OctKey::root();
            while k.level() < OctKey::MAX_LEVEL {
                refine_balanced(b, k);
                k = k.child(*i);
            }
            assert!(!refine_balanced(b, k), "{}: refined past MAX_LEVEL", b.name());
        }
    }
}

fn leaves(b: &mut dyn OctreeBackend) -> Vec<(OctKey, Cell)> {
    let mut out = Vec::new();
    b.for_each_leaf(&mut |k, d| out.push((k, *d)));
    out.sort_by_key(|a| a.0);
    out
}

/// The per-key coarsen-legality rule `can_coarsen_many` replaced: one
/// `is_leaf` / `containing_leaf` root descent per probe.
fn can_coarsen_reference(b: &mut dyn OctreeBackend, key: OctKey) -> bool {
    if b.is_leaf(key) != Some(false) {
        return false;
    }
    for child in key.children() {
        if b.is_leaf(child) != Some(true) {
            return false;
        }
        for axis in 0..3 {
            for dir in [-1i8, 1] {
                if let Some(nk) = child.face_neighbor(axis, dir) {
                    if !key.contains(&nk) && b.containing_leaf(nk).is_none() {
                        return false;
                    }
                }
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn three_backends_observationally_equal(ops in arb_ops()) {
        let mut pm = pm_backend();
        let mut ic = InCoreBackend::new();
        let mut et = EtreeBackend::on_nvbm();
        for op in &ops {
            apply(&mut pm, op);
            apply(&mut ic, op);
            apply(&mut et, op);
        }
        let lp = leaves(&mut pm);
        let li = leaves(&mut ic);
        let le = leaves(&mut et);
        prop_assert_eq!(&lp, &li, "pm vs in-core diverged");
        prop_assert_eq!(&lp, &le, "pm vs etree diverged");
        prop_assert_eq!(pm.leaf_count(), lp.len());
        prop_assert_eq!(ic.leaf_count(), lp.len());
        prop_assert_eq!(et.leaf_count(), lp.len());
    }

    #[test]
    fn batched_coarsen_legality_equals_per_key_rule(
        ops in arb_ops(),
        raw_refines in prop::collection::vec(prop::collection::vec(0usize..8, 0..4), 0..6),
    ) {
        let mut pm = pm_backend();
        let mut ic = InCoreBackend::new();
        let mut et = EtreeBackend::on_nvbm();
        let backends: [&mut dyn OctreeBackend; 3] = [&mut pm, &mut ic, &mut et];
        for b in backends {
            for op in &ops {
                apply(b, op);
            }
            // Unbalanced splits on top: families with one deeper neighbor.
            for path in &raw_refines {
                let _ = b.refine(key_of(path));
            }
            // Every family (legal or not, interior or on the domain
            // boundary), every leaf, and absent keys below the leaves.
            let leaves = b.leaf_keys_sorted();
            let mut candidates: Vec<OctKey> = leaves
                .iter()
                .flat_map(|k| {
                    let below = (k.level() < OctKey::MAX_LEVEL).then(|| k.child(3));
                    k.path_from_root().into_iter().chain(below)
                })
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            let expected: Vec<bool> =
                candidates.iter().map(|&k| can_coarsen_reference(b, k)).collect();
            prop_assert_eq!(can_coarsen_many(b, &candidates), expected, "{}", b.name());
        }
    }

    #[test]
    fn balanced_primitives_preserve_two_to_one(ops in arb_ops()) {
        let mut pm = pm_backend();
        for op in &ops {
            apply(&mut pm, op);
            prop_assert!(
                check_balance(&mut pm).is_none(),
                "2:1 violated after {op:?}"
            );
        }
    }

    #[test]
    fn leaves_always_tile_domain(ops in arb_ops()) {
        // The leaves of a well-formed octree partition the domain: anchor
        // ranges are disjoint and cover [0, 8^21).
        let mut pm = pm_backend();
        for op in &ops {
            apply(&mut pm, op);
        }
        let ls = leaves(&mut pm);
        let mut cursor = 0u64;
        for (k, _) in &ls {
            prop_assert_eq!(pmoctree_morton::anchor::<3>(k), cursor, "gap before {:?}", k);
            cursor = pmoctree_morton::anchor_end::<3>(k);
        }
        prop_assert_eq!(cursor, pmoctree_morton::anchor_end::<3>(&OctKey::root()));
    }
}

/// Adaptation with a moving band criterion keeps all backends in lock
/// step over multiple "time steps" including their persistence hooks.
#[test]
fn adapt_with_persistence_stays_in_lockstep() {
    struct Band {
        x0: f64,
    }
    impl AdaptCriterion for Band {
        fn target(&self, key: &OctKey, _d: &Cell) -> Target {
            let d = (key.center()[0] - self.x0).abs();
            if d < key.extent() {
                Target::Refine
            } else if d > 3.0 * key.extent() {
                Target::Coarsen
            } else {
                Target::Keep
            }
        }
        fn max_level(&self) -> u8 {
            4
        }
    }

    let mut pm = pm_backend();
    let mut ic = InCoreBackend::new();
    let mut et = EtreeBackend::on_nvbm();
    for step in 0..6 {
        let crit = Band { x0: 0.1 + 0.15 * step as f64 };
        adapt(&mut pm, &crit);
        adapt(&mut ic, &crit);
        adapt(&mut et, &crit);
        pm.end_of_step(step);
        ic.end_of_step(step);
        et.end_of_step(step);
        let lp = leaves(&mut pm);
        assert_eq!(lp, leaves(&mut ic), "step {step}: pm vs in-core");
        assert_eq!(lp, leaves(&mut et), "step {step}: pm vs etree");
        assert!(check_balance(&mut pm).is_none(), "step {step}");
    }
    // The PM tree saw real sharing across persists.
    assert!(pm.tree.events.persists >= 6);
    assert!(pm.tree.events.overlap_ratio() > 0.0);
}
