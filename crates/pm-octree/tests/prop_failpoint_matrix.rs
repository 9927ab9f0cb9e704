//! Span integrity under the failpoint matrix: every persist-protocol
//! failpoint × every crash mode (drop dirty lines, commit a random subset,
//! tear each line at a random word boundary). Which version a crash
//! recovers is the octree model's business (`tests/model.rs`); this file
//! checks the trace the crashed and the recovered runs journal.

mod common;

use common::{crash_in_persist, PHASES};
use pm_octree::{CellData, PmConfig, PmOctree};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{CrashMode, DeviceModel, NvbmArena};

fn modes(seed: u64, p: f64) -> [CrashMode; 3] {
    [CrashMode::LoseDirty, CrashMode::CommitRandom { p, seed }, CrashMode::TornWrite { seed }]
}

fn build() -> PmOctree {
    let arena = NvbmArena::new(32 << 20, DeviceModel::default());
    let cfg = PmConfig { c0_capacity_octants: 64, dynamic_transform: false, ..PmConfig::default() };
    let mut t = PmOctree::create(arena, cfg);
    t.refine(OctKey::root()).unwrap();
    t.refine(OctKey::root().child(3)).unwrap();
    t.persist();
    t
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
            let mut t = build();
            t.store.arena.tracer = Tracer::enabled(0);
            t.refine(OctKey::root().child(5)).unwrap();
            t.set_data(OctKey::root().child(1), CellData { phi: 1.0, ..Default::default() })
                .unwrap();
            let cfg = t.cfg;
            let (arena, ..) = crash_in_persist(&mut t, move |v| v.label == Some(phase), mode)
                .unwrap_or_else(|| panic!("{phase} never fired"));
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
