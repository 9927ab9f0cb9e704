//! Crash injection *inside* the persist protocol itself — the hardest
//! window for any persistence design. The paper's claim: "our algorithms
//! can guarantee at least one version of the octree is consistent while
//! updating its newer version"; the only ordering point is the atomic
//! root-slot publication.
//!
//! For every persist failpoint and a grid of cache-commit probabilities,
//! recovery must yield either the previous persisted version (crash
//! before the recovery root moved) or the new one (after) — never a
//! mixture, never corruption.

mod common;

use common::{crash_in_persist, recovers_new, PHASES};
use pm_octree::{CellData, PmConfig, PmOctree};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{CrashMode, DeviceModel, NvbmArena};
use proptest::prelude::*;

fn build_and_persist() -> (PmOctree, Vec<(OctKey, CellData)>) {
    let arena = NvbmArena::new(32 << 20, DeviceModel::default());
    // Small C0 so the persist protocol really merges DRAM subtrees.
    let cfg = PmConfig { c0_capacity_octants: 64, dynamic_transform: false, ..PmConfig::default() };
    let mut t = PmOctree::create(arena, cfg);
    t.refine(OctKey::root()).unwrap();
    t.refine(OctKey::root().child(2)).unwrap();
    t.set_data(OctKey::root().child(1), CellData { phi: 1.5, ..Default::default() }).unwrap();
    t.persist();
    let old = t.leaves_sorted();
    (t, old)
}

fn mutate(t: &mut PmOctree) -> Vec<(OctKey, CellData)> {
    // Changes that the interrupted persist is trying to make durable.
    t.refine(OctKey::root().child(5)).unwrap();
    t.coarsen(OctKey::root().child(2)).unwrap();
    t.set_data(OctKey::root().child(1), CellData { phi: -9.0, ..Default::default() }).unwrap();
    t.leaves_sorted()
}

#[test]
fn crash_after_each_phase_recovers_a_version() {
    for phase in PHASES {
        for seed in 0..8u64 {
            let (mut t, old) = build_and_persist();
            let mut new = mutate(&mut t);
            new.sort_by_key(|a| a.0);
            let cfg = t.cfg;
            let arena = crash_in_persist(&mut t, phase, CrashMode::CommitRandom { p: 0.5, seed });
            let mut r = PmOctree::restore(arena, cfg).unwrap();
            let got = r.leaves_sorted();
            match phase {
                // Recovery root untouched: must be exactly the old version.
                "persist::merge" | "persist::flush" => {
                    assert_eq!(got, old, "phase {phase}, seed {seed}: expected old version");
                }
                // Recovery root (slot 1) published only in root_swap; at
                // root_swap_half slot 1 still names the old version.
                "persist::root_swap_half" => {
                    assert_eq!(got, old, "phase {phase}, seed {seed}: slot 1 not yet moved");
                }
                _ => {
                    assert_eq!(got, new, "phase {phase}, seed {seed}: expected new version");
                }
            }
        }
    }
}

#[test]
fn interrupted_persist_can_be_retried() {
    // Crash mid-persist, recover the old version, redo the work, persist
    // again: the second persist must succeed and be durable.
    let (mut t, old) = build_and_persist();
    mutate(&mut t);
    let cfg = t.cfg;
    let arena = crash_in_persist(&mut t, "persist::flush", CrashMode::LoseDirty);
    let mut r = PmOctree::restore(arena, cfg).unwrap();
    assert_eq!(r.leaves_sorted(), old);
    // Redo and complete.
    let new = mutate(&mut r);
    r.persist();
    let PmOctree { store, .. } = r;
    let mut arena = store.arena;
    arena.crash(CrashMode::LoseDirty);
    let mut r2 = PmOctree::restore(arena, cfg).unwrap();
    let mut want = new;
    want.sort_by_key(|a| a.0);
    assert_eq!(r2.leaves_sorted(), want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random mutation batches + a crash at a random persist phase with a
    /// random commit pattern: recovery always produces exactly the old or
    /// exactly the new version.
    #[test]
    fn persist_is_all_or_nothing(
        ops in prop::collection::vec((prop::collection::vec(0usize..8, 0..3), -5.0f64..5.0), 1..12),
        phase_i in 0usize..4,
        p in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let phase = PHASES[phase_i];
        let (mut t, old) = build_and_persist();
        for (path, v) in &ops {
            let mut k = OctKey::root();
            for &i in path {
                k = k.child(i);
            }
            if t.is_leaf(k) == Some(true) {
                let _ = t.refine(k);
            }
            let _ = t.set_data(k, CellData { phi: *v, ..Default::default() });
        }
        let mut new = t.leaves_sorted();
        new.sort_by_key(|a| a.0);
        let cfg = t.cfg;
        let arena = crash_in_persist(&mut t, phase, CrashMode::CommitRandom { p, seed });
        let mut r = PmOctree::restore(arena, cfg).unwrap();
        let got = r.leaves_sorted();
        prop_assert!(
            got == old || got == new,
            "recovered a mixed state at {phase} (p={p}, seed={seed})"
        );
        // Before the recovery-root publication the result must be old.
        if recovers_new(phase) {
            prop_assert_eq!(got, new);
        } else {
            prop_assert_eq!(got, old);
        }
    }
}
