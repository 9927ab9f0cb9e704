//! What the mesh workloads share: the harness's own time-step loop (the
//! six phase functions in `Simulation::step_core` order, each call a
//! timed section of the window and wrapped in a span) and the reading of
//! the program's tracer journal.

use pm_octree::{PmConfig, PmOctree};
use pmoctree_amr::{adapt, balance_subset, Cell, OctreeBackend, PmBackend};
use pmoctree_nvbm::{DeviceModel, Event, NvbmArena};
use pmoctree_solver::{
    advect, estimate_work, refinement_feature, relax_pressure, solver_feature, InterfaceCriterion,
    SimConfig, Simulation,
};

use crate::report::{Layer, Window};
use crate::spans::Spans;

/// A `PmBackend` as the droplet workloads configure it: transform on,
/// a 2¹⁴-octant C0 budget, both feature functions registered.
pub fn pm_backend(sim: &Simulation, arena_bytes: usize) -> PmBackend {
    let cfg = PmConfig::builder()
        .dynamic_transform(true)
        .c0_capacity_octants(1 << 14)
        .build()
        .expect("valid PM-octree configuration");
    let arena = NvbmArena::new(arena_bytes, DeviceModel::default());
    let mut b = PmBackend::new(PmOctree::create(arena, cfg));
    b.tree.add_feature(refinement_feature(sim.interface, sim.time.clone(), sim.cfg.band_cells));
    b.tree.add_feature(solver_feature());
    b
}

/// Simulated time at the end of step `step_idx`.
pub fn step_time(cfg: &SimConfig, step_idx: usize) -> f64 {
    cfg.t0 + cfg.dt * (step_idx as f64 + 1.0)
}

/// What one harness-driven time step did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepOut {
    /// Leaves at the end of the step.
    pub leaves: usize,
    /// Virtual ns of the whole step.
    pub virt_ns: u64,
    /// Leaves refined by `adapt` (2:1 ripple refinements included).
    pub refined: usize,
    /// Families coarsened by `adapt`.
    pub coarsened: usize,
}

/// Phase functions of a time step, each a timed section of its own.
const PHASES: u32 = 6;

/// One time step, phase by phase, exactly as `Simulation::step` runs it.
/// Phase `j` of step `i` is the same work in every fresh pass, so it is
/// filed under a section class of its own.
pub fn step(
    sim: &Simulation,
    b: &mut PmBackend,
    step_idx: usize,
    spans: &mut Spans,
    window: &mut Window,
) -> StepOut {
    let mut phase = 0;
    let mut end_section = |window: &mut Window| {
        window.pause(step_idx as u32 * PHASES + phase, true);
        phase += 1;
    };
    let t = step_time(&sim.cfg, step_idx);
    sim.time.set(t);
    let crit = InterfaceCriterion {
        interface: sim.interface,
        time: sim.time.clone(),
        band_cells: sim.cfg.band_cells,
        max_level: sim.cfg.max_level,
    };
    let v0 = b.elapsed_ns();
    window.resume();
    let report = spans.run("amr.adapt", || adapt(b, &crit));
    end_section(window);
    window.resume();
    let balance = spans.open("amr.balance");
    let mut active = Vec::new();
    spans.run("pm-octree.for_each_leaf", || {
        b.for_each_leaf(&mut |k, d: &Cell| {
            if d[0].abs() < 8.0 * k.extent() {
                active.push(k);
            }
        })
    });
    balance_subset(b, &active);
    spans.close(balance);
    end_section(window);
    window.resume();
    spans.run("solver.advect", || advect(b, &sim.interface, t));
    end_section(window);
    window.resume();
    spans.run("solver.relax", || relax_pressure(b, sim.cfg.relax_iters));
    end_section(window);
    window.resume();
    spans.run("solver.work", || estimate_work(b));
    end_section(window);
    let leaves = b.leaf_count();
    window.resume();
    spans.run("pm-octree.persist", || b.end_of_step(step_idx + 1));
    end_section(window);
    debug_assert_eq!(phase, PHASES);
    StepOut {
        leaves,
        virt_ns: b.elapsed_ns() - v0,
        refined: report.refined,
        coarsened: report.coarsened,
    }
}

/// Read the program's tracer journals of a traced pass (one per rank):
/// the virtual-clock totals of the persist protocol and the runtime
/// commit, summed over the journals, plus the event count.
pub fn journal_layer(journals: &[Vec<Event>], out: &mut Layer) {
    let totals: Vec<_> = journals
        .iter()
        .map(|events| {
            pmoctree_obsv::attribution::inclusive_totals(events).expect("balanced tracer journal")
        })
        .collect();
    for (metric, span, scale) in [
        ("pm-octree.persist_virt_ms", "persist", 1e-6),
        ("pm-octree.persist_merge_virt_ms", "persist::merge", 1e-6),
        ("pm-octree.persist_flush_virt_ms", "persist::flush", 1e-6),
        ("pm-octree.gc_sweep_virt_ms", "gc::sweep", 1e-6),
        ("pm-rt.commit_virt_us", "rt::commit", 1e-3),
    ] {
        let ns: u64 = totals.iter().flatten().filter(|r| r.name == span).map(|r| r.total_ns).sum();
        out.insert(metric, ns as f64 * scale);
    }
    out.insert("obsv.events_recorded", journals.iter().map(Vec::len).sum::<usize>() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{sim_config, Scale};

    /// The harness loop must be `Simulation::step`: same leaves and the
    /// same virtual ns, step by step.
    #[test]
    fn harness_step_loop_equals_simulation_step() {
        let sc = Scale::quick();
        let sim = Simulation::new(sim_config(3, sc.level, sc.droplet_steps));
        let mut ours = pm_backend(&sim, sc.droplet_arena);
        let mut theirs = pm_backend(&sim, sc.droplet_arena);
        sim.construct(&mut ours);
        sim.construct(&mut theirs);
        let (mut spans, mut window) = (Spans::new(false), Window::new());
        for s in 0..sc.droplet_steps {
            let a = step(&sim, &mut ours, s, &mut spans, &mut window);
            let b = sim.step(&mut theirs, s);
            assert_eq!((a.leaves, a.virt_ns), (b.leaves, b.total_ns()), "step {s}");
        }
        assert_eq!(ours.elapsed_ns(), theirs.elapsed_ns());
    }
}
