//! Cross-backend equivalence: the three octree implementations must be
//! observationally identical under any meshing sequence, and 2:1 balance
//! must hold after every balanced refine and legal coarsen, whichever
//! backend ran them.

use pm_octree::{C0Tree, CellData, Op, PmConfig, PmError, PmOctree};
use pmoctree_amr::gerris::ftt_cell_refine;
use pmoctree_amr::{
    adapt, can_coarsen_many, check_balance, construct_uniform, AdaptCriterion, AdaptReport, Cell,
    OctreeBackend, PmBackend, Target,
};
use pmoctree_baselines::{EtreeOctree, InCoreOctree};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{DeviceModel, MemStats, NvbmArena, VirtualClock};
use pmoctree_simfs::SimFs;
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
            ftt_cell_refine(b, key_of(p));
        }
        MeshOp::CoarsenBalanced(p) => {
            let k = key_of(p);
            if can_coarsen_many(b, &[k])[0] {
                b.coarsen(k).unwrap();
            }
        }
        MeshOp::SetData(p, v) => {
            let _ = b.set_data(key_of(p), [*v, 0.0, 0.0, 0.0]);
        }
        MeshOp::Chain(i) => {
            let mut k = OctKey::root();
            while k.level() < OctKey::MAX_LEVEL {
                ftt_cell_refine(b, k);
                k = k.child(*i);
            }
            assert!(!ftt_cell_refine(b, k), "{}: refined past MAX_LEVEL", b.name());
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
        let mut ic = InCoreOctree::new();
        let mut et = EtreeOctree::create(SimFs::on_nvbm());
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
        let mut ic = InCoreOctree::new();
        let mut et = EtreeOctree::create(SimFs::on_nvbm());
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

    /// One batched-read contract on all three trees: over every leaf,
    /// every interior octant and keys below the leaves, in no particular
    /// order, `get_data_many` answers `get_data` on a leaf and `None`
    /// elsewhere.
    #[test]
    fn get_data_many_answers_current_leaves_only(ops in arb_ops()) {
        let mut pm = pm_backend();
        let mut ic = InCoreOctree::new();
        let mut et = EtreeOctree::create(SimFs::on_nvbm());
        let backends: [&mut dyn OctreeBackend; 3] = [&mut pm, &mut ic, &mut et];
        for b in backends {
            for op in &ops {
                apply(b, op);
            }
            let leaves = b.leaf_keys_sorted();
            let mut keys: Vec<OctKey> = leaves
                .iter()
                .flat_map(|k| {
                    let below = (k.level() < OctKey::MAX_LEVEL).then(|| k.child(5));
                    k.path_from_root().into_iter().chain(below)
                })
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys.reverse();
            let expected: Vec<Option<Cell>> = keys
                .iter()
                .map(|&k| leaves.binary_search(&k).ok().and_then(|_| b.get_data(k)))
                .collect();
            prop_assert!(expected.iter().filter(|d| d.is_some()).count() == leaves.len());
            prop_assert_eq!(b.get_data_many(&keys), expected, "{}", b.name());
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
    let mut ic = InCoreOctree::new();
    let mut et = EtreeOctree::create(SimFs::on_nvbm());
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

/// A criterion that votes nothing.
struct Quiet;

impl AdaptCriterion for Quiet {
    fn target(&self, _key: &OctKey, _d: &Cell) -> Target {
        Target::Keep
    }
    fn max_level(&self) -> u8 {
        6
    }
}

/// One `adapt` reads the mesh once: with nothing voted, a pass over an
/// all-NVBM tree costs exactly one leaf sweep's navigation lines (the
/// votes ride on that sweep; refine, balance and coarsen get empty
/// batches).
#[test]
fn adapt_reads_the_mesh_once() {
    let cfg = PmConfig {
        dynamic_transform: false,
        seed_c0: false,
        c0_capacity_octants: 0,
        ..PmConfig::default()
    };
    let mut pm =
        PmBackend::new(PmOctree::create(NvbmArena::new(16 << 20, DeviceModel::default()), cfg));
    construct_uniform(&mut pm, 3);
    pm.end_of_step(0);
    // A current leaf index: no query in the pass rebuilds it.
    pm.leaf_keys_sorted();
    let lines = |b: &PmBackend| b.mem_stats().nvbm.read_lines;
    let before = lines(&pm);
    pm.for_each_leaf(&mut |_, _| {});
    let sweep = lines(&pm) - before;
    assert_eq!(sweep, 1 + 8 + 64 + 512, "one line per octant");
    let before = lines(&pm);
    assert_eq!(adapt(&mut pm, &Quiet), AdaptReport::default());
    assert_eq!(lines(&pm) - before, sweep);
}

/// Refines the leaves of child 0 above level 3 and votes every other leaf
/// at level 2 or deeper for coarsening — the children it refines among
/// them, were they asked.
struct Flip;

impl AdaptCriterion for Flip {
    fn target(&self, key: &OctKey, _d: &Cell) -> Target {
        if OctKey::root().child(0).contains(key) && key.level() < 3 {
            Target::Refine
        } else if key.level() >= 2 {
            Target::Coarsen
        } else {
            Target::Keep
        }
    }
    fn max_level(&self) -> u8 {
        3
    }
}

/// No family refined in a pass is coarsened in that pass, on every
/// backend alike: the votes are cast on the mesh the pass found, where
/// the new children did not exist. Child 0 ends at level 3; of the other
/// level-1 families, the ones with no face on child 0 coarsen.
#[test]
fn one_adapt_pass_never_coarsens_a_family_it_refined() {
    let mut backends: [Box<dyn OctreeBackend>; 3] = [
        Box::new(pm_backend()),
        Box::new(InCoreOctree::new()),
        Box::new(EtreeOctree::create(SimFs::on_nvbm())),
    ];
    let mut meshes = Vec::new();
    for b in &mut backends {
        construct_uniform(b.as_mut(), 2);
        let report = adapt(b.as_mut(), &Flip);
        assert_eq!(report, AdaptReport { refined: 8, coarsened: 4 }, "{}", b.name());
        assert!(check_balance(b.as_mut()).is_none(), "{}", b.name());
        meshes.push(leaves(b.as_mut()));
    }
    assert_eq!(meshes[0], meshes[1], "pm vs in-core");
    assert_eq!(meshes[0], meshes[2], "pm vs etree");
    let level_of = |c: usize| {
        let mut levels: Vec<u8> = meshes[0]
            .iter()
            .filter(|(k, _)| OctKey::root().child(c).contains(k))
            .map(|(k, _)| k.level())
            .collect();
        levels.dedup();
        levels
    };
    assert_eq!(level_of(0), vec![3]);
    for c in [1, 2, 4] {
        assert_eq!(level_of(c), vec![2], "child {c} has a face on child 0");
    }
    for c in [3, 5, 6, 7] {
        assert_eq!(level_of(c), vec![1], "child {c}");
    }
}

/// The baseline trees name their own refusals in the PM-octree's
/// taxonomy (their adapters forward them untouched): a missing key, a
/// refine of an interior octant or of a leaf at `MAX_LEVEL`, a coarsen of
/// a leaf and a coarsen whose child is refined deeper.
#[test]
fn baseline_trees_name_their_refusals() {
    let missing = OctKey::root().child(0).child(0);
    let mut deepest = OctKey::root().child(5);
    while deepest.level() < OctKey::MAX_LEVEL {
        deepest = deepest.child(0);
    }
    macro_rules! check {
        ($t:expr) => {{
            let mut t = $t;
            t.refine(OctKey::root()).unwrap();
            t.refine(OctKey::root().child(2)).unwrap();
            assert!(matches!(t.refine(missing), Err(PmError::NotFound(_))));
            assert!(matches!(t.refine(OctKey::root()), Err(PmError::NotALeaf(_))));
            assert!(matches!(t.coarsen(missing), Err(PmError::NotFound(_))));
            assert!(matches!(t.coarsen(OctKey::root().child(1)), Err(PmError::NotALeaf(_))));
            assert!(matches!(t.coarsen(OctKey::root()), Err(PmError::NotCoarsenable(_))));
            assert!(matches!(t.refine(deepest), Err(PmError::NotFound(_))));
            let mut k = OctKey::root().child(5);
            while k.level() < OctKey::MAX_LEVEL {
                t.refine(k).unwrap();
                k = k.child(0);
            }
            assert!(matches!(t.refine(deepest), Err(PmError::NotALeaf(_))));
            assert!(matches!(t.coarsen(deepest), Err(PmError::NotALeaf(_))));
            assert_eq!(t.leaf_count(), 8 + 7 + 7 * (OctKey::MAX_LEVEL as usize - 1));
        }};
    }
    check!(InCoreOctree::new());
    check!(EtreeOctree::create(SimFs::on_nvbm()));
}

/// An in-core op reads and writes exactly the DRAM lines of the node
/// store's own op on the same tree — no probe walk before it, whether it
/// succeeds or is refused — and is refused alike.
#[test]
fn incore_ops_charge_their_node_store_op_alone() {
    let lat = DeviceModel::default().dram;
    let (mut clock, mut stats) = (VirtualClock::new(), MemStats::new(0));
    let mut mirror =
        C0Tree::new(OctKey::root(), CellData::default(), &mut (&mut clock, &mut stats, lat));
    let mut b = InCoreOctree::new();
    let (c3, missing) = (OctKey::root().child(3), OctKey::root().child(0).child(0));
    let ops = [
        Op::Refine(OctKey::root()),
        Op::Refine(c3),
        Op::Refine(c3.child(5)),
        Op::Refine(OctKey::root()),
        Op::Refine(missing),
        Op::Coarsen(c3),
        Op::Coarsen(c3.child(5)),
        Op::Coarsen(c3.child(1)),
        Op::Coarsen(missing),
        Op::Coarsen(c3),
    ];
    let lines = |s: &MemStats| (s.dram.read_lines, s.dram.write_lines);
    for op in ops {
        let before = lines(&b.stats);
        let got = match op {
            Op::Refine(k) => b.refine(k),
            Op::Coarsen(k) => b.coarsen(k),
            Op::SetData(..) => unreachable!(),
        };
        let after = lines(&b.stats);
        let mirror_before = lines(&stats);
        let want = mirror.apply(op, &mut (&mut clock, &mut stats, lat)).map(|_| ());
        assert_eq!(got, want, "{op:?}");
        let (mr, mw) =
            (stats.dram.read_lines - mirror_before.0, stats.dram.write_lines - mirror_before.1);
        assert_eq!((after.0 - before.0, after.1 - before.1), (mr, mw), "{op:?}");
    }
    assert_eq!(b.leaf_count(), mirror.leaf_count());
}

/// An Etree op makes the one lookup its page edit needs: a successful
/// refine or coarsen adds no root descent (no probe), and a refusal does
/// the I/O of one record lookup of its key — a coarsen's, of its child 0 —
/// and nothing more.
#[test]
fn etree_ops_make_no_probe() {
    let mut b = EtreeOctree::create(SimFs::on_nvbm());
    let descents = |b: &EtreeOctree| b.stats.trav.root_descents;
    let (c2, missing) = (OctKey::root().child(2), OctKey::root().child(0).child(0));
    b.refine(OctKey::root()).unwrap();
    for (refine, k) in [(true, c2), (true, c2.child(1)), (false, c2.child(1)), (false, c2)] {
        let before = descents(&b);
        if refine { b.refine(k) } else { b.coarsen(k) }.unwrap();
        assert_eq!(descents(&b), before, "refine {refine} at {k:?}");
    }
    b.refine(c2).unwrap();
    b.refine(c2.child(0)).unwrap();
    let io = |b: &EtreeOctree| (b.fs.stats, b.fs.clock.now_ns());
    let cost = |b: &mut EtreeOctree, f: &mut dyn FnMut(&mut EtreeOctree)| {
        let (s0, t0) = io(b);
        f(b);
        let (s1, t1) = io(b);
        (
            s1.ops - s0.ops,
            s1.bytes_read - s0.bytes_read,
            s1.bytes_written - s0.bytes_written,
            t1 - t0,
        )
    };
    let c1 = OctKey::root().child(1);
    for (refine, k) in
        [(true, OctKey::root()), (true, missing), (false, c2), (false, c1), (false, missing)]
    {
        let lookup = if refine { k } else { k.child(0) };
        let one = cost(&mut b, &mut |b| assert_eq!(b.get_data(lookup), None));
        let refused = cost(&mut b, &mut |b| {
            assert!(if refine { b.refine(k) } else { b.coarsen(k) }.is_err(), "{k:?}");
        });
        assert_eq!(refused, one, "refine {refine} at {k:?}");
    }
}

fn backends() -> Vec<Box<dyn OctreeBackend>> {
    vec![
        Box::new(PmBackend::new(PmOctree::create(
            NvbmArena::new(16 << 20, DeviceModel::default()),
            PmConfig { dynamic_transform: false, ..PmConfig::default() },
        ))),
        Box::new(InCoreOctree::new()),
        Box::new(EtreeOctree::create(SimFs::on_nvbm())),
    ]
}

#[test]
fn all_backends_agree_on_basic_meshing() {
    for mut b in backends() {
        assert_eq!(b.leaf_count(), 1, "{}", b.name());
        b.refine(OctKey::root()).unwrap();
        b.refine(OctKey::root().child(2)).unwrap();
        assert_eq!(b.leaf_count(), 15, "{}", b.name());
        assert_eq!(b.is_leaf(OctKey::root().child(2)), Some(false), "{}", b.name());
        assert_eq!(b.is_leaf(OctKey::root().child(3)), Some(true), "{}", b.name());
        assert_eq!(
            b.containing_leaf(OctKey::root().child(3).child(1)),
            Some(OctKey::root().child(3)),
            "{}",
            b.name()
        );
        b.set_data(OctKey::root().child(3), [1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(b.get_data(OctKey::root().child(3)), Some([1.0, 2.0, 3.0, 4.0]));
        b.coarsen(OctKey::root().child(2)).unwrap();
        assert_eq!(b.leaf_count(), 8, "{}", b.name());
        let mut n = 0;
        b.for_each_leaf(&mut |_, _| n += 1);
        assert_eq!(n, 8, "{}", b.name());
        b.end_of_step(10);
        assert!(b.elapsed_ns() > 0, "{}", b.name());
    }
}

#[test]
fn all_backends_agree_on_error_taxonomy() {
    for mut b in backends() {
        b.refine(OctKey::root()).unwrap();
        let name = b.name();
        let missing = OctKey::root().child(0).child(0);
        assert!(
            matches!(b.refine(missing), Err(PmError::NotFound(_))),
            "{name}: refine on a missing key"
        );
        assert!(
            matches!(b.refine(OctKey::root()), Err(PmError::NotALeaf(_))),
            "{name}: refine on an internal octant"
        );
        assert!(
            matches!(b.coarsen(OctKey::root().child(1)), Err(PmError::NotALeaf(_))),
            "{name}: coarsen on a leaf"
        );
        assert!(
            matches!(b.coarsen(missing), Err(PmError::NotFound(_))),
            "{name}: coarsen on a missing key"
        );
        assert!(
            matches!(b.set_data(missing, [0.0; 4]), Err(PmError::NotFound(_))),
            "{name}: set_data on a missing key"
        );
        assert!(
            matches!(b.set_data(OctKey::root(), [0.0; 4]), Err(PmError::NotALeaf(_))),
            "{name}: set_data on an internal octant"
        );
    }
}

#[test]
fn update_leaves_consistent_across_backends() {
    for mut b in backends() {
        b.refine(OctKey::root()).unwrap();
        b.update_leaves(&mut |_, d| Some([d[0] + 1.0, d[1], d[2], d[3]]));
        let name = b.name();
        b.for_each_leaf(&mut |_, d| assert_eq!(d[0], 1.0, "{name}"));
    }
}
