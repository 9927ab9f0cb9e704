//! `droplet_l9`: one rank, the droplet-ejection run on a `PmBackend`.
//! Unit = element-step (leaves summed over the time steps), unit
//! operation = one time step.

use pm_octree::{check_invariants, PmOctree};
use pmoctree_amr::{check_balance, OctreeBackend};
use pmoctree_nvbm::{DeviceModel, NvbmArena, Tracer};
use pmoctree_solver::Simulation;

use crate::inputs::{sim_config, Scale};
use crate::mesh::{journal_layer, pm_backend, step};
use crate::report::{MemMark, Pass, Window};
use crate::spans::{Spans, OP};
use crate::stats::{median, ratio};

/// One fresh pass; `first` is the first pass of its run.
pub fn pass(seed: u64, sc: &Scale, spans: &mut Spans, first: bool) -> Pass {
    let sim = Simulation::new(sim_config(seed, sc.level, sc.droplet_steps));

    // Set-up: construct the initial mesh and persist it once.
    let mut window = Window::new();
    let mut b = window.set_up(|| {
        let mut b = pm_backend(&sim, sc.droplet_arena);
        sim.construct(&mut b);
        b.end_of_step(0);
        b
    });

    if spans.enabled() {
        b.set_tracer(Tracer::enabled(0));
    }
    let mark0 = MemMark::of(&b.tree.store.arena.stats);
    let events0 = b.tree.events.clone();
    let v0 = b.elapsed_ns();
    let mut steps = Vec::with_capacity(sc.droplet_steps);
    let mut gc_freed = 0usize;
    for s in 0..sc.droplet_steps {
        let op = spans.open(OP);
        steps.push(step(&sim, &mut b, s, spans, &mut window));
        spans.close(op);
        gc_freed += b.tree.events.last_gc.map_or(0, |g| g.freed);
    }

    let mut p = Pass::new(window);
    p.units = steps.iter().map(|s| s.leaves as u64).sum();
    p.ops = steps.len() as u64;
    p.virt_ns = b.elapsed_ns() - v0;
    let mark1 = MemMark::of(&b.tree.store.arena.stats);
    p.nvbm_bytes = mark1.bytes_since(&mark0);
    for s in &steps {
        p.fingerprint.extend([s.leaves as u64, s.virt_ns]);
    }
    p.checks.attempted += steps.len() as u64; // a time step cannot return an error

    if spans.enabled() {
        let units = p.units as f64;
        let window_ns = p.window_s() * 1e9;
        let n = steps.len() as f64;
        let l = &mut p.layer;
        for (metric, span) in [
            ("amr.adapt_ms_p50", "amr.adapt"),
            ("amr.balance_ms_p50", "amr.balance"),
            ("solver.advect_ms_p50", "solver.advect"),
            ("solver.relax_ms_p50", "solver.relax"),
            ("solver.work_ms_p50", "solver.work"),
            ("pm-octree.persist_ms_p50", "pm-octree.persist"),
        ] {
            l.insert(metric, median(&spans.durations_ms(span)));
        }
        let adapt_ns = spans.total_ns("amr.adapt") as f64;
        let solve_ns = (spans.total_ns("solver.advect")
            + spans.total_ns("solver.relax")
            + spans.total_ns("solver.work")) as f64;
        l.insert("amr.adapt_ns_per_leaf", ratio(adapt_ns, units));
        l.insert("amr.adapt_share", ratio(adapt_ns, window_ns));
        l.insert("amr.balance_share", ratio(spans.total_ns("amr.balance") as f64, window_ns));
        l.insert("amr.refined_per_step", steps.iter().map(|s| s.refined).sum::<usize>() as f64 / n);
        l.insert(
            "amr.coarsened_per_step",
            steps.iter().map(|s| s.coarsened).sum::<usize>() as f64 / n,
        );
        l.insert("solver.sweep_ns_per_leaf", ratio(solve_ns, units));
        l.insert("solver.solve_share", ratio(solve_ns, window_ns));
        l.insert(
            "pm-octree.persist_share",
            ratio(spans.total_ns("pm-octree.persist") as f64, window_ns),
        );
        l.insert("pm-octree.persist_bytes_per_leaf", p.nvbm_bytes as f64 / units);
        l.insert("pm-octree.overlap_ratio", b.tree.events.overlap_ratio());
        l.insert("pm-octree.gc_freed_per_step", gc_freed as f64 / n);
        l.insert("pm-octree.c0_evictions", (b.tree.events.evictions - events0.evictions) as f64);
        l.insert("host.adapt_allocs_per_leaf", ratio(spans.allocs("amr.adapt") as f64, units));
        l.insert(
            "host.persist_allocs_per_leaf",
            ratio(spans.allocs("pm-octree.persist") as f64, units),
        );
        mark1.layer_since(&mark0, &b.tree.store.arena.stats, l);
        journal_layer(&[b.tracer().events()], l);
        p.host_layer();
    }

    // Output checks, after the last persist: the live mesh is 2:1
    // balanced, and what a cold process restores from the media passes
    // the post-restore invariants with the same leaves. The restore takes
    // longer than the window, and every pass of a run must leave the same
    // mesh (the fingerprint), so the first pass stands for all.
    let unbalanced = check_balance(&mut b);
    p.checks.expect(unbalanced.is_none(), || format!("2:1 balance violated at {unbalanced:?}"));
    if !first {
        return p;
    }
    let media = NvbmArena::from_media(b.tree.store.arena.clone_media(), DeviceModel::default());
    let invariants =
        PmOctree::restore(media, b.tree.cfg).and_then(|mut cold| check_invariants(&mut cold));
    p.checks.expect(invariants.as_ref().is_ok_and(|r| r.leaves == b.leaf_count()), || {
        format!("check_invariants on the restored image: {invariants:?}")
    });
    p
}
