//! The simulation driver: one droplet-ejection run over any backend,
//! with per-routine timing breakdowns (the quantities behind Figures
//! 6–11).

use pmoctree_amr::{adapt, balance_subset, AdaptCriterion, OctreeBackend};

use crate::criteria::{InterfaceCriterion, SharedTime};
use crate::interface::DropletEjection;
use crate::sweeps::{advect, estimate_work, relax_pressure};

/// Simulation configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of time steps.
    pub steps: usize,
    /// Simulated time at step 0.
    pub t0: f64,
    /// Time increment per step.
    pub dt: f64,
    /// Maximum refinement level (controls the element count).
    pub max_level: u8,
    /// Base uniform level built by `Construct`.
    pub base_level: u8,
    /// Interface band half-width in cell sizes.
    pub band_cells: f64,
    /// Pressure relaxation iterations per step.
    pub relax_iters: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            steps: 20,
            t0: 0.1,
            dt: 0.04,
            max_level: 5,
            base_level: 2,
            band_cells: 1.2,
            relax_iters: 2,
        }
    }
}

/// Virtual-time breakdown of one step across the §2 meshing routines.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StepBreakdown {
    /// Refine & Coarsen time (ns, virtual).
    pub refine_ns: u64,
    /// Balance time.
    pub balance_ns: u64,
    /// Solve (advect + relax) time.
    pub solve_ns: u64,
    /// Persistence time (persist / snapshot / flush).
    pub persist_ns: u64,
    /// Leaves at the end of the step.
    pub leaves: usize,
}

impl StepBreakdown {
    /// Total virtual time of the step.
    pub fn total_ns(&self) -> u64 {
        self.refine_ns + self.balance_ns + self.solve_ns + self.persist_ns
    }
}

/// Aggregate over a run.
#[derive(Debug, Default, Clone)]
pub struct RunReport {
    /// Per-step breakdowns.
    pub steps: Vec<StepBreakdown>,
}

impl RunReport {
    /// Sum of a component over all steps, in virtual seconds.
    pub fn total_secs(&self) -> f64 {
        self.steps.iter().map(|s| s.total_ns()).sum::<u64>() as f64 * 1e-9
    }

    /// Component sums `[refine, balance, solve, persist]` in seconds.
    pub fn component_secs(&self) -> [f64; 4] {
        let mut out = [0.0; 4];
        for s in &self.steps {
            out[0] += s.refine_ns as f64 * 1e-9;
            out[1] += s.balance_ns as f64 * 1e-9;
            out[2] += s.solve_ns as f64 * 1e-9;
            out[3] += s.persist_ns as f64 * 1e-9;
        }
        out
    }

    /// Peak element (leaf) count over the run.
    pub fn peak_leaves(&self) -> usize {
        self.steps.iter().map(|s| s.leaves).max().unwrap_or(0)
    }
}

/// The droplet-ejection simulation bound to a time source.
pub struct Simulation {
    /// The analytic interface.
    pub interface: DropletEjection,
    /// Shared time (feature functions read this).
    pub time: SharedTime,
    /// Configuration.
    pub cfg: SimConfig,
}

impl Simulation {
    /// New simulation with the given config.
    pub fn new(cfg: SimConfig) -> Self {
        Simulation { interface: DropletEjection::default(), time: SharedTime::new(), cfg }
    }

    /// Build the initial mesh: uniform base grid, then adapt to the
    /// interface at `t0` (the `Construct` phase).
    pub fn construct(&self, b: &mut dyn OctreeBackend) {
        let tr = b.tracer();
        tr.begin("construct", b.elapsed_ns(), None);
        // Iterate adaptation to let refinement reach max_level.
        let passes = (self.cfg.max_level - self.cfg.base_level).max(1);
        self.construct_with(b, &self.criterion(), self.cfg.base_level, passes);
        estimate_work(b);
        tr.end("construct", b.elapsed_ns());
    }

    /// The mesh-building core of [`Simulation::construct`] under a
    /// caller-supplied criterion: a uniform grid at `base_level`, `passes`
    /// adaptation passes at `t0`, then the level set at `t0`. A cluster
    /// rank calls this with its range-restricted criterion.
    pub fn construct_with(
        &self,
        b: &mut dyn OctreeBackend,
        crit: &dyn AdaptCriterion,
        base_level: u8,
        passes: u8,
    ) {
        self.time.set(self.cfg.t0);
        pmoctree_amr::construct_uniform(b, base_level);
        for _ in 0..passes {
            adapt(b, crit);
        }
        advect(b, &self.interface, self.cfg.t0);
    }

    /// The interface-band adaptation criterion at the shared simulation
    /// time (the clock is shared, so it tracks later `time.set` calls).
    pub fn criterion(&self) -> InterfaceCriterion {
        InterfaceCriterion {
            interface: self.interface,
            time: self.time.clone(),
            band_cells: self.cfg.band_cells,
            max_level: self.cfg.max_level,
        }
    }

    /// Run one time step, returning its breakdown.
    pub fn step(&self, mut b: &mut dyn OctreeBackend, step_idx: usize) -> StepBreakdown {
        self.step_core(&mut b, &self.criterion(), step_idx, |b, _partial, _t3| {
            b.end_of_step(step_idx + 1);
            None
        })
    }

    /// One time step under a caller-supplied criterion and persistence
    /// action ([`Simulation::step`] is this with the interface criterion
    /// and `end_of_step`; a cluster rank passes its range-restricted
    /// criterion, whole-application persistence its combined commit).
    /// `persist` runs at the persist point and receives the breakdown so
    /// far (refine/balance/solve/leaves filled) plus the clock reading
    /// `t3` at persist entry; returning `Some(ns)` overrides the recorded
    /// `persist_ns` (used when the persisted run state must itself
    /// contain the value — anything the persistence action spends *after*
    /// staging it is deliberately unattributed, identically in original
    /// and resumed runs).
    pub fn step_core<B: OctreeBackend>(
        &self,
        b: &mut B,
        crit: &dyn AdaptCriterion,
        step_idx: usize,
        persist: impl FnOnce(&mut B, &StepBreakdown, u64) -> Option<u64>,
    ) -> StepBreakdown {
        let t = self.cfg.t0 + self.cfg.dt * (step_idx as f64 + 1.0);
        self.time.set(t);
        let mut out = StepBreakdown::default();
        // Driver-level phases are emitted as explicit begin/end events at
        // the same clock reads used for the breakdown, so the trace and
        // the `StepBreakdown` agree exactly.
        let tr = b.tracer();

        let t0 = b.elapsed_ns();
        tr.begin("step", t0, Some(step_idx as u64));
        tr.begin("step::refine", t0, None);
        adapt(b, crit);
        let t1 = b.elapsed_ns();
        tr.end("step::refine", t1);
        tr.begin("step::balance", t1, None);
        out.refine_ns = t1 - t0;

        // Balance is enforced on the fly by the balanced adapt
        // primitives; this pass re-checks only the active band (where
        // this step's changes happened), like Gerris does.
        let mut active = Vec::new();
        b.for_each_leaf(&mut |k, d: &pmoctree_amr::Cell| {
            if d[0].abs() < 8.0 * k.extent() {
                active.push(k);
            }
        });
        balance_subset(b, &active);
        let t2 = b.elapsed_ns();
        tr.end("step::balance", t2);
        tr.begin("step::solve", t2, None);
        out.balance_ns = t2 - t1;

        advect(b, &self.interface, t);
        relax_pressure(b, self.cfg.relax_iters);
        estimate_work(b);
        let t3 = b.elapsed_ns();
        tr.end("step::solve", t3);
        tr.begin("step::persist", t3, None);
        out.solve_ns = t3 - t2;
        out.leaves = b.leaf_count();

        let staged_ns = persist(b, &out, t3);
        let t4 = b.elapsed_ns();
        tr.end("step::persist", t4);
        tr.end("step", t4);
        out.persist_ns = staged_ns.unwrap_or(t4 - t3);
        out
    }

    /// Run the full configured simulation (construct + all steps).
    pub fn run(&self, b: &mut dyn OctreeBackend) -> RunReport {
        self.construct(b);
        let mut report = RunReport::default();
        for s in 0..self.cfg.steps {
            report.steps.push(self.step(b, s));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_octree::{PmConfig, PmOctree};
    use pmoctree_amr::{check_balance, EtreeBackend, InCoreBackend, PmBackend};
    use pmoctree_nvbm::{DeviceModel, NvbmArena};

    fn sim() -> Simulation {
        Simulation::new(SimConfig { steps: 6, max_level: 4, base_level: 2, ..SimConfig::default() })
    }

    fn pm_backend() -> PmBackend {
        PmBackend::new(PmOctree::create(
            NvbmArena::new(64 << 20, DeviceModel::default()),
            PmConfig { dynamic_transform: false, ..PmConfig::default() },
        ))
    }

    #[test]
    fn construct_adapts_to_interface() {
        let s = sim();
        let mut b = InCoreBackend::new();
        s.construct(&mut b);
        assert!(b.depth() > s.cfg.base_level, "refinement beyond the base grid");
        assert!(b.leaf_count() > 64);
        assert!(check_balance(&mut b).is_none());
    }

    #[test]
    fn run_produces_breakdowns() {
        let s = sim();
        let mut b = InCoreBackend::new();
        let report = s.run(&mut b);
        assert_eq!(report.steps.len(), 6);
        for st in &report.steps {
            assert!(st.solve_ns > 0, "solve must cost time");
            assert!(st.leaves > 0);
        }
        assert!(report.total_secs() > 0.0);
        let comps = report.component_secs();
        assert!((comps.iter().sum::<f64>() - report.total_secs()).abs() < 1e-9);
    }

    #[test]
    fn mesh_tracks_moving_interface() {
        let s = sim();
        let mut b = InCoreBackend::new();
        s.construct(&mut b);
        // Fine cells at t0 follow the tip; after several steps the fine
        // region must have moved upward in z.
        let fine_centroid_z = |b: &mut InCoreBackend| {
            let mut z = 0.0;
            let mut n = 0.0f64;
            b.for_each_leaf(&mut |k, _| {
                if k.level() == 4 {
                    z += k.center()[2];
                    n += 1.0;
                }
            });
            z / n.max(1.0)
        };
        let z0 = fine_centroid_z(&mut b);
        for st in 0..6 {
            s.step(&mut b, st);
        }
        let z1 = fine_centroid_z(&mut b);
        assert!(z1 > z0, "fine region should follow the jet tip: {z0} -> {z1}");
    }

    #[test]
    fn all_backends_complete_identical_meshes() {
        let s = sim();
        let mut pm = pm_backend();
        let mut ic = InCoreBackend::new();
        let mut et = EtreeBackend::on_nvbm();
        let rp = s.run(&mut pm);
        let ri = s.run(&mut ic);
        let re = s.run(&mut et);
        // Same element counts every step (determinism across backends).
        for i in 0..s.cfg.steps {
            assert_eq!(rp.steps[i].leaves, ri.steps[i].leaves, "step {i}");
            assert_eq!(rp.steps[i].leaves, re.steps[i].leaves, "step {i}");
        }
        // PM-octree persisted every step and saw sharing.
        assert_eq!(pm.tree.events.persists as usize, s.cfg.steps);
        assert!(pm.tree.events.overlap_ratio() > 0.3, "overlap {:?}", pm.tree.events.last_overlap);
    }

    #[test]
    fn pm_write_fraction_matches_paper_band() {
        let s = sim();
        let mut pm = pm_backend();
        s.run(&mut pm);
        let frac = pm.tree.store.arena.stats.overall_write_fraction();
        // §1 quotes 41% average / 72% max during meshing operations; our
        // harness additionally charges the read-only balance verification
        // sweep every step, so the aggregate lands lower. The repro
        // binary reports the per-phase fractions (see EXPERIMENTS.md).
        assert!((0.005..=0.8).contains(&frac), "write fraction {frac}");
    }
}
