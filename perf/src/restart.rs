//! `restart_l9`: crash a persisted run, reattach from the media in a cold
//! process, answer the first lookups, then sweep the restored mesh.
//! Unit = element read by the sweep, unit operation = cold `reattach`
//! → first `containing_leaf_many` answer.
//!
//! The same `pm-octree` / `nvbm` / `morton` layers as the droplet run,
//! used the other way round: recovery scan and read-only kernels instead
//! of copy-on-write stores.

use pm_octree::{CellData, PmConfig, PmOctree};
use pm_rt::PmRt;
use pmoctree_amr::{extract, OctreeBackend};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{CrashMode, DeviceModel, MemStats, NvbmArena, POffset};
use pmoctree_solver::{
    advect, canonical_pm_cfg, reattach, run_persistent_partial, Reattach, Simulation,
};

use crate::inputs::{sim_config, Rng, Scale};
use crate::mesh::step_time;
use crate::report::{Checks, MemMark, Pass, Window};
use crate::spans::{Spans, OP};
use crate::stats::{median, ratio};

/// Planned length of the run the crash interrupts: the droplet run's.
const RUN_STEPS: usize = 10;

/// Every `LOOKUP_STRIDE`-th persisted leaf is looked up right after the
/// reattach: the "first answer" of the restarted application.
const LOOKUP_STRIDE: usize = 64;

/// The persisted run is built again before every this many cycles, so
/// that `setup_s` has readings from all over the run.
const SETUP_EVERY: usize = 8;

/// Section classes. Every cycle reattaches to the same persisted state
/// (the crash discards what the cycle's load did), so the cycles are
/// repeats of equal work.
const REATTACH: u32 = 0;
const SWEEP: u32 = 1;

/// Hand the crashed device's media to a cold process: a fresh arena whose
/// clock, statistics and caches start from nothing.
fn cold_copy(arena: &mut NvbmArena) -> NvbmArena {
    NvbmArena::from_media(arena.clone_media(), DeviceModel::default())
}

/// One fresh pass.
pub fn pass(seed: u64, sc: &Scale, spans: &mut Spans, _first: bool) -> Pass {
    let cfg = sim_config(seed, sc.level, RUN_STEPS);
    let sim = Simulation::new(cfg);
    let pm_cfg = PmConfig::default();
    let mut torn_seeds = Rng::new(seed, 3);

    // Set-up: a persisted run to crash from.
    let build = || {
        let arena = NvbmArena::new(sc.restart_arena, DeviceModel::default());
        run_persistent_partial(cfg, pm_cfg, arena, sc.restart_steps)
            .expect("persisted run to crash from")
            .0
    };
    let mut window = Window::new();
    let mut b = window.set_up(build);

    // The persisted set every cycle must restore, byte for byte.
    let persisted: Vec<(OctKey, CellData)> = b.tree.leaves_sorted();
    let keys: Vec<OctKey> = persisted.iter().map(|(k, _)| *k).collect();
    let lookups: Vec<OctKey> = keys.iter().copied().step_by(LOOKUP_STRIDE).collect();
    let refinable: Vec<OctKey> = keys.iter().copied().filter(|k| k.level() < sc.level).collect();
    let sample: Vec<OctKey> = refinable
        .iter()
        .copied()
        .step_by((refinable.len() / sc.restart_sample).max(1))
        .take(sc.restart_sample)
        .collect();
    let t_next = step_time(&cfg, sc.restart_steps);

    let mut checks = Checks::default();
    let mut fingerprint = Vec::new();
    let (mut virt_ns, mut nvbm_bytes) = (0u64, 0u64);
    let mut devices = MemStats::new(0);
    let mut restore_virt_ns = 0u64;

    for cycle in 0..sc.cycles {
        if cycle > 0 && cycle.is_multiple_of(SETUP_EVERY) {
            b = window.set_up(build); // the same persisted state, from scratch
        }
        // Untimed load: un-persisted mutations fill the dirty-line cache
        // and leave orphans on the media; then the node dies mid-write.
        b.refine_many(&sample);
        advect(&mut b, &sim.interface, t_next);
        let before = MemMark::of(&b.tree.store.arena.stats);
        b.tree.store.arena.crash(CrashMode::TornWrite { seed: torn_seeds.next_u64() });
        nvbm_bytes += MemMark::of(&b.tree.store.arena.stats).bytes_since(&before);
        let cold = cold_copy(&mut b.tree.store.arena);

        // Traced only, outside the window: the two halves of `reattach`
        // on a second copy of the same media, timed one by one.
        if spans.enabled() {
            let mut copy = cold_copy(&mut b.tree.store.arena);
            let rt = spans.run("pm-rt.restore", || PmRt::restore(&mut copy));
            let root = rt.and_then(|mut rt| {
                let state = rt
                    .session(&mut copy)
                    .tenant(pmoctree_solver::RUN_TENANT)?
                    .get::<pmoctree_solver::RunState>(pmoctree_solver::RUN_ROOT)?;
                Ok(state.map_or(0, |s| s.tree_root))
            });
            if let Ok(root) = root {
                let v = copy.clock.now_ns();
                let tree = spans.run("pm-octree.restore", || {
                    PmOctree::restore_at(copy, POffset(root), canonical_pm_cfg(pm_cfg))
                });
                if let Ok(tree) = tree {
                    restore_virt_ns += tree.store.arena.clock.now_ns() - v;
                }
            }
        }
        drop(b);

        // Unit operation: cold reattach → first answer.
        window.resume();
        let op = spans.open(OP);
        let reattached = spans.run("solver.reattach", || reattach(cold, pm_cfg));
        let (mut restored, state) = match reattached {
            Ok(Reattach::Resumable(backend, _rt, state)) => (*backend, state),
            failed => {
                spans.close(op);
                window.pause(REATTACH, true);
                let why = match failed {
                    Err(e) => e.to_string(),
                    Ok(_) => "the crashed device holds no combined commit".to_string(),
                };
                checks.expect(false, || format!("cycle {cycle}: reattach: {why}"));
                break;
            }
        };
        checks.attempted += 1;
        let answers = spans.run("pm-octree.lookup", || restored.containing_leaf_many(&lookups));
        spans.close(op);
        window.pause(REATTACH, true);

        // Sweep: the restored mesh, read end to end.
        window.resume();
        let mesh = spans.run("amr.extract", || extract(&mut restored));
        let sorted = spans.run("pm-octree.leaf_keys_sorted", || restored.leaf_keys_sorted());
        let data = spans.run("pm-octree.get_data_many", || restored.get_data_many(&sorted));
        window.pause(SWEEP, false);

        virt_ns += restored.elapsed_ns();
        nvbm_bytes +=
            MemMark::of(&restored.tree.store.arena.stats).bytes_since(&MemMark::default());
        devices.merge(&restored.tree.store.arena.stats);
        fingerprint.extend([restored.elapsed_ns(), mesh.cells.len() as u64, state.next_step]);

        checks.expect(state.next_step == sc.restart_steps as u64, || {
            format!(
                "cycle {cycle}: resumed at step {}, persisted {}",
                state.next_step, sc.restart_steps
            )
        });
        checks.expect(answers.iter().zip(&lookups).all(|(a, k)| *a == Some(*k)), || {
            format!("cycle {cycle}: a persisted leaf was not found after the reattach")
        });
        checks.expect(sorted == keys && data.iter().all(Option::is_some), || {
            format!(
                "cycle {cycle}: the sweep read {} leaves, {} persisted",
                sorted.len(),
                keys.len()
            )
        });
        checks.expect(restored.tree.leaves_sorted() == persisted, || {
            format!("cycle {cycle}: restored leaves differ from the persisted set")
        });
        b = restored;
    }

    let mut p = Pass::new(window);
    p.checks = checks;
    p.units = (keys.len() * sc.cycles) as u64;
    p.ops = sc.cycles as u64;
    p.virt_ns = virt_ns;
    p.nvbm_bytes = nvbm_bytes;
    p.fingerprint = fingerprint;

    if spans.enabled() {
        let units = p.units as f64;
        let sweep_allocs = spans.allocs("amr.extract")
            + spans.allocs("pm-octree.leaf_keys_sorted")
            + spans.allocs("pm-octree.get_data_many");
        let l = &mut p.layer;
        l.insert("pm-rt.rt_restore_ms", median(&spans.durations_ms("pm-rt.restore")));
        l.insert("pm-octree.restore_ms_p50", median(&spans.durations_ms("pm-octree.restore")));
        l.insert(
            "pm-octree.restore_virt_ms",
            ratio(restore_virt_ns as f64 / 1e6, sc.cycles as f64),
        );
        l.insert("amr.extract_ms_p50", median(&spans.durations_ms("amr.extract")));
        l.insert("host.sweep_allocs_per_leaf", ratio(sweep_allocs as f64, units));
        MemMark::of(&devices).layer_since(&MemMark::default(), &devices, l);
        p.host_layer();
    }
    p
}
