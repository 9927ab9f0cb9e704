//! Leaf-index consistency: the lazily maintained Morton-sorted leaf
//! index behind `leaf_keys_sorted` / `containing_leaf_many` must stay
//! observationally equal to the authoritative tree walk on every
//! backend, under arbitrary interleavings of mutation, persistence, and
//! batched queries — and on PM-octree, across crash + restore.

use pm_octree::{PmConfig, PmOctree};
use pmoctree_amr::{OctreeBackend, PmBackend};
use pmoctree_baselines::{EtreeOctree, InCoreOctree};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{CrashMode, DeviceModel, NvbmArena};
use pmoctree_simfs::SimFs;
use proptest::prelude::*;

fn pm_tree() -> PmOctree {
    PmOctree::create(
        NvbmArena::new(64 << 20, DeviceModel::default()),
        PmConfig { c0_capacity_octants: 128, ..PmConfig::default() },
    )
}

fn key_of(path: &[usize]) -> OctKey {
    let mut k = OctKey::root();
    for &i in path {
        k = k.child(i);
    }
    k
}

#[derive(Debug, Clone)]
enum Op {
    Refine(Vec<usize>),
    Coarsen(Vec<usize>),
    SetData(Vec<usize>, f64),
    /// End-of-step hook: persist (pm) / snapshot (in-core) / flush (etree).
    Step,
    /// Batched lookup whose result must agree with per-key lookups.
    QueryBatch(Vec<Vec<usize>>),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let path = prop::collection::vec(0usize..8, 0..4);
    prop::collection::vec(
        prop_oneof![
            4 => path.clone().prop_map(Op::Refine),
            2 => path.clone().prop_map(Op::Coarsen),
            2 => (path.clone(), -5.0f64..5.0).prop_map(|(p, v)| Op::SetData(p, v)),
            1 => Just(Op::Step),
            2 => prop::collection::vec(prop::collection::vec(0usize..8, 0..5), 1..6)
                .prop_map(Op::QueryBatch),
        ],
        1..30,
    )
}

/// Authoritative leaf enumeration: tree walk, sorted by Morton order.
fn walk_keys(b: &mut dyn OctreeBackend) -> Vec<OctKey> {
    let mut out = Vec::new();
    b.for_each_leaf(&mut |k, _| out.push(k));
    out.sort_unstable();
    out
}

fn apply_and_check(b: &mut dyn OctreeBackend, op: &Op, step: &mut usize) -> Result<(), String> {
    match op {
        Op::Refine(p) => {
            let _ = b.refine(key_of(p));
        }
        Op::Coarsen(p) => {
            let _ = b.coarsen(key_of(p));
        }
        Op::SetData(p, v) => {
            let _ = b.set_data(key_of(p), [*v, 0.0, 0.0, 0.0]);
        }
        Op::Step => {
            b.end_of_step(*step);
            *step += 1;
        }
        Op::QueryBatch(paths) => {
            let keys: Vec<OctKey> = paths.iter().map(|p| key_of(p)).collect();
            let batched = b.containing_leaf_many(&keys);
            for (k, got) in keys.iter().zip(&batched) {
                let want = b.containing_leaf(*k);
                if *got != want {
                    return Err(format!(
                        "{}: containing_leaf_many({k:?}) = {got:?}, containing_leaf = {want:?}",
                        b.name()
                    ));
                }
            }
        }
    }
    let want = walk_keys(b);
    let got = b.leaf_keys_sorted();
    if got != want {
        return Err(format!("{}: index diverged after {op:?}", b.name()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All three backends: after every operation the index view equals
    /// the tree walk, and batched lookups equal per-key lookups.
    #[test]
    fn index_matches_walk_on_all_backends(ops in arb_ops()) {
        let mut backends: Vec<Box<dyn OctreeBackend>> = vec![
            Box::new(PmBackend::new(pm_tree())),
            Box::new(InCoreOctree::new()),
            Box::new(EtreeOctree::create(SimFs::on_nvbm())),
        ];
        for b in &mut backends {
            let mut step = 0usize;
            for op in &ops {
                if let Err(msg) = apply_and_check(b.as_mut(), op, &mut step) {
                    prop_assert!(false, "{}", msg);
                }
            }
        }
    }

    /// PM-octree: the index stays correct across a crash that drops all
    /// unflushed NVBM writes followed by recovery, both when the crash
    /// lands after a clean persist and mid-sequence.
    #[test]
    fn pm_index_survives_crash_restore(
        ops in arb_ops(),
        crash_at in 0usize..30,
        persist_first in any::<bool>(),
    ) {
        let mut t = pm_tree();
        let mut step = 0usize;
        let crash_at = crash_at % ops.len().max(1);
        for (i, op) in ops.iter().enumerate() {
            if i == crash_at {
                if persist_first {
                    t.persist();
                }
                let cfg = t.cfg;
                let PmOctree { store, .. } = t;
                let mut arena = store.arena;
                arena.crash(CrashMode::LoseDirty);
                t = PmOctree::restore(arena, cfg).unwrap();
                // Fresh recovery: the index starts invalid and must
                // rebuild to exactly the recovered version's leaves.
                let keys: Vec<OctKey> =
                    t.leaves_sorted().into_iter().map(|(k, _)| k).collect();
                prop_assert_eq!(t.leaf_keys_sorted(), keys);
            }
            let mut b = PmBackend::new(t);
            if let Err(msg) = apply_and_check(&mut b, op, &mut step) {
                prop_assert!(false, "{}", msg);
            }
            t = b.tree;
        }
        // Final agreement including a batched probe of every leaf plus
        // keys one level below each leaf (all must resolve to the leaf).
        let leaves = t.leaf_keys_sorted();
        let mut probes = leaves.clone();
        probes.extend(leaves.iter().filter(|k| k.level() < 20).map(|k| k.child(3)));
        let batched = t.containing_leaf_many(&probes);
        for (k, got) in probes.iter().zip(&batched) {
            prop_assert_eq!(*got, t.containing_leaf(*k), "probe {:?}", k);
        }
    }
}
