//! The failpoint matrix: every persist-protocol failpoint × every crash mode
//! (drop dirty lines, commit a random subset, tear each line at a random
//! word boundary), driven by random mutation batches.
//!
//! Two things must hold for every cell of the matrix:
//!
//! 1. recovery yields *exactly* the version the protocol promises — the
//!    old tree before the recovery-root publication, the new tree after
//!    — never a mixture;
//! 2. the recovered handle passes the full invariant checker
//!    ([`pm_octree::check_invariants`]): closed structure, index == walk,
//!    free list disjoint from the live set, zero GC orphans.

mod common;

use common::{crash_in_persist, recovers_new, PHASES};
use pm_octree::{check_invariants, CellData, PmConfig, PmOctree};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{CrashMode, DeviceModel, NvbmArena};
use proptest::prelude::*;

fn modes(seed: u64, p: f64) -> [CrashMode; 3] {
    [CrashMode::LoseDirty, CrashMode::CommitRandom { p, seed }, CrashMode::TornWrite { seed }]
}

fn build() -> (PmOctree, Vec<(OctKey, CellData)>) {
    let arena = NvbmArena::new(32 << 20, DeviceModel::default());
    let cfg = PmConfig { c0_capacity_octants: 64, dynamic_transform: false, ..PmConfig::default() };
    let mut t = PmOctree::create(arena, cfg);
    t.refine(OctKey::root()).unwrap();
    t.refine(OctKey::root().child(3)).unwrap();
    t.persist();
    let old = t.leaves_sorted();
    (t, old)
}

fn key_from_path(path: &[usize]) -> OctKey {
    let mut k = OctKey::root();
    for &i in path {
        k = k.child(i);
    }
    k
}

/// Deterministic full-matrix enumeration: a fixed workload through all
/// 4 phases × 3 modes × a few seeds.
#[test]
fn full_matrix_recovers_contract_version() {
    for phase in PHASES {
        for seed in 0..4u64 {
            for mode in modes(seed, 0.5) {
                let (mut t, old) = build();
                t.refine(OctKey::root().child(5)).unwrap();
                t.coarsen(OctKey::root().child(3)).unwrap();
                t.set_data(OctKey::root().child(1), CellData { phi: 7.0, ..Default::default() })
                    .unwrap();
                let mut new = t.leaves_sorted();
                new.sort_by_key(|a| a.0);
                let cfg = t.cfg;
                let arena = crash_in_persist(&mut t, phase, mode);
                let mut r = PmOctree::restore(arena, cfg)
                    .unwrap_or_else(|e| panic!("{phase}/{mode:?}/{seed}: {e}"));
                let rep = check_invariants(&mut r)
                    .unwrap_or_else(|e| panic!("{phase}/{mode:?}/{seed}: invariants: {e}"));
                assert_eq!(rep.leaves, r.leaf_count());
                let got = r.leaves_sorted();
                if recovers_new(phase) {
                    assert_eq!(got, new, "{phase}/{mode:?}/{seed}: want new version");
                } else {
                    assert_eq!(got, old, "{phase}/{mode:?}/{seed}: want old version");
                }
            }
        }
    }
}

/// Span integrity under crash injection: a persist run under a hook plan
/// must leave a balanced, tree-shaped journal — and a tree restored from
/// the image of a crash at any failpoint, given a fresh tracer, must
/// journal a complete persist again.
#[test]
fn spans_stay_balanced_when_persist_crashes_mid_protocol() {
    use pmoctree_nvbm::obsv;
    use pmoctree_nvbm::Tracer;
    for phase in PHASES {
        for mode in modes(9, 0.5) {
            let (mut t, _old) = build();
            t.store.arena.tracer = Tracer::enabled(0);
            t.refine(OctKey::root().child(5)).unwrap();
            t.set_data(OctKey::root().child(1), CellData { phi: 1.0, ..Default::default() })
                .unwrap();
            let cfg = t.cfg;
            let arena = crash_in_persist(&mut t, phase, mode);
            let events = t.store.arena.tracer.events();
            obsv::chrome::validate_events(&events)
                .unwrap_or_else(|e| panic!("{phase}/{mode:?}: journal of the crashed run: {e}"));
            let tree = obsv::attribution::build_tree(&events)
                .unwrap_or_else(|e| panic!("{phase}/{mode:?}: span tree: {e}"));
            assert!(!tree.is_empty(), "{phase}/{mode:?}: nothing journalled");
            let json = obsv::chrome::trace_json(&[(0, events)]);
            assert!(json.contains("\"traceEvents\""));

            // Reboot: restore from the crashed media, attach a fresh
            // tracer, and persist for real — the new journal must hold a
            // complete persist span with its protocol children.
            let mut r = PmOctree::restore(arena, cfg)
                .unwrap_or_else(|e| panic!("{phase}/{mode:?}: restore: {e}"));
            r.store.arena.tracer = Tracer::enabled(1);
            r.set_data(OctKey::root().child(2), CellData { phi: 2.0, ..Default::default() })
                .unwrap();
            r.persist();
            let replay = r.store.arena.tracer.events();
            obsv::chrome::validate_events(&replay)
                .unwrap_or_else(|e| panic!("{phase}/{mode:?}: journal after restore: {e}"));
            let totals = obsv::inclusive_totals(&replay)
                .unwrap_or_else(|e| panic!("{phase}/{mode:?}: totals: {e}"));
            for name in ["persist", "persist::merge", "persist::flush", "persist::root_swap"] {
                assert!(
                    totals.iter().any(|row| row.name == name && row.count > 0),
                    "{phase}/{mode:?}: no {name} span after recovery; got {totals:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random refine/coarsen/set_data batches, then a crash at a random
    /// phase under a random mode: the recovered tree matches the phase
    /// contract and passes every invariant.
    #[test]
    fn random_workload_through_the_matrix(
        ops in prop::collection::vec((prop::collection::vec(0usize..8, 0..3), -5.0f64..5.0, any::<bool>()), 1..12),
        phase_i in 0usize..4,
        mode_i in 0usize..3,
        p in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let phase = PHASES[phase_i];
        let mode = modes(seed, p)[mode_i];
        let (mut t, old) = build();
        for (path, v, coarsen) in &ops {
            let k = key_from_path(path);
            if *coarsen {
                let _ = t.coarsen(k);
            } else if t.is_leaf(k) == Some(true) {
                let _ = t.refine(k);
            }
            let _ = t.set_data(k, CellData { phi: *v, ..Default::default() });
        }
        let mut new = t.leaves_sorted();
        new.sort_by_key(|a| a.0);
        let cfg = t.cfg;
        let arena = crash_in_persist(&mut t, phase, mode);
        let restored = PmOctree::restore(arena, cfg);
        prop_assert!(restored.is_ok(), "restore at {}/{:?}: {:?}", phase, mode, restored.err());
        let mut r = restored.unwrap();
        let inv = check_invariants(&mut r);
        prop_assert!(inv.is_ok(), "invariants at {}/{:?}: {:?}", phase, mode, inv.err());
        let got = r.leaves_sorted();
        if recovers_new(phase) {
            prop_assert_eq!(got, new, "want new version at {}/{:?}", phase, mode);
        } else {
            prop_assert_eq!(got, old, "want old version at {}/{:?}", phase, mode);
        }
    }
}
