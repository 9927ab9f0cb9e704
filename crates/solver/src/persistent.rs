//! Whole-application persistence: crash anywhere, resume the *run*.
//!
//! `pm-octree` alone recovers the mesh; everything else a run is made of
//! (config, step index, accumulated timing breakdowns) lived in volatile
//! DRAM, so a crash still lost the simulation. This module closes that
//! gap with the `pm-rt` orthogonal-persistence runtime: at every persist
//! point the full [`RunState`] is staged into the runtime and committed
//! by `pm-rt`'s atomic root-table swap, *inside* the octree's persist
//! protocol (after the tree's root swap, before GC — see
//! [`PmOctree::persist_with_hook`]). A run killed at **any** crash
//! opportunity — including mid-persist — resumes from the last combined
//! commit and produces a byte-identical final [`RunReport`].
//!
//! Determinism contract (what makes the resumed report *byte*-identical,
//! not just close):
//!
//! * the persisted `pm_cfg` is canonicalized ([`canonical_pm_cfg`]):
//!   `seed_c0` off (a resumed tree necessarily starts with an empty DRAM
//!   forest, so the original must too) and `dynamic_transform` off (the
//!   transform migrates octants based on access history the resumed run
//!   does not have);
//! * the leaf index is invalidated after every combined persist
//!   ([`PmOctree::invalidate_leaf_index`]) so both runs rebuild it at the
//!   same points;
//! * each step's `persist_ns` is measured *at the commit hook* and staged
//!   into the persisted state itself; the trailing cost of the runtime
//!   commit, GC, replica ship and re-attach is deliberately unattributed
//!   in both runs (octant and blob placement is cacheline-aligned, so
//!   every charged cost is independent of where a resumed run's
//!   allocations happen to land).

use pm_octree::{PmConfig, PmError, PmOctree};
use pm_rt::{ByteReader, PmData, PmRt, RtError};
use pmoctree_amr::PmBackend;
use pmoctree_nvbm::{NvbmArena, POffset};

use crate::driver::{RunReport, SimConfig, Simulation, StepBreakdown};

/// The `pm-rt` tenant namespace the solver owns.
pub const RUN_TENANT: &str = "solver";

/// The root (inside [`RUN_TENANT`]) the run state lives under.
pub const RUN_ROOT: &str = "run";

/// Everything needed to resume a run, as one persistent object.
#[derive(Debug, Clone, PartialEq)]
pub struct RunState {
    /// The simulation configuration of the original run.
    pub cfg: SimConfig,
    /// Next step to execute (steps `0..next_step` are complete).
    pub next_step: u64,
    /// Breakdowns of the completed steps, including the step whose
    /// persist committed this state (its `persist_ns` is the value
    /// measured at the commit hook).
    pub steps: Vec<StepBreakdown>,
    /// The tree root this state pairs with. Restoring *at this root*
    /// (not at whatever the header names) keeps mesh and run state
    /// consistent even when a crash lands between the two root swaps.
    pub tree_root: u64,
}

impl PmData for StepBreakdown {
    fn encode(&self, out: &mut Vec<u8>) {
        self.refine_ns.encode(out);
        self.balance_ns.encode(out);
        self.solve_ns.encode(out);
        self.persist_ns.encode(out);
        (self.leaves as u64).encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RtError> {
        Ok(StepBreakdown {
            refine_ns: u64::decode(r)?,
            balance_ns: u64::decode(r)?,
            solve_ns: u64::decode(r)?,
            persist_ns: u64::decode(r)?,
            leaves: u64::decode(r)? as usize,
        })
    }
}

impl PmData for RunState {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.cfg.steps as u64).encode(out);
        self.cfg.t0.encode(out);
        self.cfg.dt.encode(out);
        (self.cfg.max_level as u32).encode(out);
        (self.cfg.base_level as u32).encode(out);
        self.cfg.band_cells.encode(out);
        (self.cfg.relax_iters as u64).encode(out);
        self.next_step.encode(out);
        self.steps.encode(out);
        self.tree_root.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, RtError> {
        let cfg = SimConfig {
            steps: u64::decode(r)? as usize,
            t0: f64::decode(r)?,
            dt: f64::decode(r)?,
            max_level: u32::decode(r)? as u8,
            base_level: u32::decode(r)? as u8,
            band_cells: f64::decode(r)?,
            relax_iters: u64::decode(r)? as usize,
        };
        Ok(RunState {
            cfg,
            next_step: u64::decode(r)?,
            steps: Vec::<StepBreakdown>::decode(r)?,
            tree_root: u64::decode(r)?,
        })
    }
}

/// A finished (or resumed-and-finished) persistent run.
pub struct PersistentRun {
    /// The run's report — byte-identical whether or not the run crashed.
    pub report: RunReport,
    /// The backend, holding the arena (for crash injection / inspection).
    pub backend: PmBackend,
    /// The runtime, holding the committed run state.
    pub rt: PmRt,
    /// `Some(step)` if this run resumed an earlier one at `step`.
    pub resumed_at: Option<usize>,
}

/// Force the config choices whole-run determinism depends on (see the
/// module docs). Everything else is the caller's.
pub fn canonical_pm_cfg(pm_cfg: PmConfig) -> PmConfig {
    PmConfig { seed_c0: false, dynamic_transform: false, ..pm_cfg }
}

/// Run the droplet simulation from scratch with whole-application
/// persistence: every persist point commits mesh *and* run state.
pub fn run_persistent(
    cfg: SimConfig,
    pm_cfg: PmConfig,
    arena: NvbmArena,
) -> Result<PersistentRun, PmError> {
    let (mut backend, mut rt, done) = run_persistent_partial(cfg, pm_cfg, arena, cfg.steps)?;
    let sim = Simulation::new(cfg);
    let report = drive(&sim, &mut backend, &mut rt, done.len(), cfg.steps, done)?;
    Ok(PersistentRun { report, backend, rt, resumed_at: None })
}

/// Run only the first `until_step` steps of a persistent run and hand
/// back the live pieces mid-flight. This is the staging primitive for
/// failure experiments (cluster, bench): run part of the way, kill the
/// node, and exercise whole-application recovery from whatever survived.
pub fn run_persistent_partial(
    cfg: SimConfig,
    pm_cfg: PmConfig,
    arena: NvbmArena,
    until_step: usize,
) -> Result<(PmBackend, PmRt, Vec<StepBreakdown>), PmError> {
    let tree = PmOctree::create(arena, canonical_pm_cfg(pm_cfg));
    let mut backend = PmBackend::new(tree);
    let mut rt = PmRt::create(&mut backend.tree.store.arena)?;
    let sim = Simulation::new(cfg);
    sim.construct(&mut backend);
    let report = drive(&sim, &mut backend, &mut rt, 0, until_step.min(cfg.steps), Vec::new())?;
    Ok((backend, rt, report.steps))
}

/// Outcome of [`reattach`]. Constructed once per reattach, so the size
/// gap between a restored session and a bare boxed arena is harmless.
#[allow(clippy::large_enum_variant)]
pub enum Reattach {
    /// A combined commit exists: backend and runtime are restored and
    /// ready to step at `state.next_step`. The backend is boxed to keep
    /// the enum small next to the bare-arena variant.
    Resumable(Box<PmBackend>, PmRt, RunState),
    /// No combined commit ever happened — nothing to resume. The arena
    /// comes back (boxed, same reason) so the caller can start a fresh
    /// run on the device.
    Nothing(Box<NvbmArena>),
}

/// Reattach to a crashed device: restore the runtime, read the committed
/// [`RunState`], and restore the tree *at the root the state pairs with*.
/// The arena's virtual clock measures the whole-application restart
/// latency: it starts at zero in the cold process, so
/// `backend.elapsed_ns()` on [`Reattach::Resumable`] *is* the restart
/// cost.
pub fn reattach(mut arena: NvbmArena, pm_cfg: PmConfig) -> Result<Reattach, PmError> {
    let restored = match PmRt::restore(&mut arena) {
        Ok(mut rt) => {
            let state = rt.session(&mut arena).tenant(RUN_TENANT)?.get::<RunState>(RUN_ROOT)?;
            state.map(|s| (rt, s))
        }
        Err(PmError::NotFound(_)) => None,
        Err(e) => return Err(e),
    };
    let Some((rt, state)) = restored else {
        return Ok(Reattach::Nothing(Box::new(arena)));
    };
    let tree = PmOctree::restore_at(arena, POffset(state.tree_root), canonical_pm_cfg(pm_cfg))?;
    Ok(Reattach::Resumable(Box::new(PmBackend::new(tree)), rt, state))
}

/// Resume a crashed persistent run from its arena (same-node `pm_restore`
/// of the whole application). If the crash predates the first combined
/// commit there is nothing to resume: the run starts over from scratch on
/// the same device — which yields the identical report, since a fresh
/// create re-formats and every cost is placement-independent. `cfg` is
/// only used for that fresh-start case; a committed [`RunState`] carries
/// its own.
pub fn resume_persistent(
    arena: NvbmArena,
    cfg: SimConfig,
    pm_cfg: PmConfig,
) -> Result<PersistentRun, PmError> {
    let (mut backend, mut rt, state) = match reattach(arena, pm_cfg)? {
        Reattach::Resumable(b, rt, state) => (*b, rt, state),
        // Crash before the first combined commit: nothing to resume.
        // Start over on the same device — a fresh create re-formats it.
        Reattach::Nothing(arena) => return run_persistent(cfg, pm_cfg, *arena),
    };
    let sim = Simulation::new(state.cfg);
    let resumed_at = state.next_step as usize;
    let report = drive(&sim, &mut backend, &mut rt, resumed_at, state.cfg.steps, state.steps)?;
    Ok(PersistentRun { report, backend, rt, resumed_at: Some(resumed_at) })
}

/// Execute steps `from_step..until_step` with the combined persist, on
/// top of the already-completed breakdowns in `done`. `until_step` is
/// `cfg.steps` for a full run; tests stop early to stage crash images.
fn drive(
    sim: &Simulation,
    backend: &mut PmBackend,
    rt: &mut PmRt,
    from_step: usize,
    until_step: usize,
    mut done: Vec<StepBreakdown>,
) -> Result<RunReport, PmError> {
    for s in from_step..until_step {
        let mut rt_failure: Option<PmError> = None;
        let bd = {
            let done_ref = &done;
            let rt_ref = &mut *rt;
            let rt_failure = &mut rt_failure;
            sim.step_core(backend, &sim.criterion(), s, move |b, partial, t3| {
                let mut staged: Option<u64> = None;
                let cfg = sim.cfg;
                let committed = b.tree.persist_with_hook(&mut |arena| {
                    // Everything from the persist entry to this hook —
                    // merge, flush, root swap — is the step's attributed
                    // persistence cost; stage it into the state itself so
                    // the resumed run reports the very same number.
                    let persist_ns = arena.clock.now_ns() - t3;
                    let mut steps = done_ref.clone();
                    steps.push(StepBreakdown { persist_ns, ..*partial });
                    let state = RunState {
                        cfg,
                        next_step: s as u64 + 1,
                        steps,
                        tree_root: arena.root(1).0,
                    };
                    let mut tenant = rt_ref.session(arena).tenant(RUN_TENANT)?;
                    tenant.put(RUN_ROOT, &state)?;
                    let regions = tenant.commit()?;
                    staged = Some(persist_ns);
                    Ok(regions)
                });
                if let Err(e) = committed {
                    *rt_failure = Some(e);
                }
                // Both the original and the resumed run cross every
                // persist point with a cold index (see module docs).
                b.tree.invalidate_leaf_index();
                staged
            })
        };
        if let Some(e) = rt_failure {
            return Err(e);
        }
        done.push(bd);
    }
    Ok(RunReport { steps: done })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pmoctree_nvbm::{CrashMode, DeviceModel, FailPlan};

    const ARENA: usize = 48 << 20;

    fn cfg() -> SimConfig {
        SimConfig { steps: 4, max_level: 4, base_level: 2, ..SimConfig::default() }
    }

    fn arena() -> NvbmArena {
        NvbmArena::new(ARENA, DeviceModel::default())
    }

    fn report_fingerprint(r: &RunReport) -> Vec<(u64, u64, u64, u64, usize)> {
        r.steps
            .iter()
            .map(|s| (s.refine_ns, s.balance_ns, s.solve_ns, s.persist_ns, s.leaves))
            .collect()
    }

    #[test]
    fn persistent_run_matches_plain_run_shape() {
        let run = run_persistent(cfg(), PmConfig::default(), arena()).unwrap();
        assert_eq!(run.report.steps.len(), cfg().steps);
        assert!(run.report.total_secs() > 0.0);
        assert_eq!(run.rt.epoch(), cfg().steps as u64 + 1, "one commit per step plus create");
    }

    #[test]
    fn crash_at_step_boundary_resumes_identically() {
        let baseline = run_persistent(cfg(), PmConfig::default(), arena()).unwrap();
        // Drive only 2 of the 4 steps, power-fail (lose every dirty
        // line), hand the dead node's media to a cold process, resume,
        // and compare reports field by field.
        let mut b =
            PmBackend::new(PmOctree::create(arena(), canonical_pm_cfg(PmConfig::default())));
        let mut rt = PmRt::create(&mut b.tree.store.arena).unwrap();
        let sim = Simulation::new(cfg());
        sim.construct(&mut b);
        drive(&sim, &mut b, &mut rt, 0, 2, Vec::new()).unwrap();
        b.tree.store.arena.crash(CrashMode::LoseDirty);
        let media = b.tree.store.arena.clone_media();
        let crashed = NvbmArena::from_media(media, DeviceModel::default());
        let resumed = resume_persistent(crashed, cfg(), PmConfig::default()).unwrap();
        assert_eq!(resumed.resumed_at, Some(2));
        assert_eq!(report_fingerprint(&resumed.report), report_fingerprint(&baseline.report));
    }

    #[test]
    fn crash_before_first_commit_restarts_identically() {
        let baseline = run_persistent(cfg(), PmConfig::default(), arena()).unwrap();
        // Crash a fresh arena that never reached a combined commit.
        let mut a = arena();
        let _rt = PmRt::create(&mut a).unwrap();
        a.crash(CrashMode::LoseDirty);
        let crashed = NvbmArena::from_media(a.clone_media(), DeviceModel::default());
        let rerun = resume_persistent(crashed, cfg(), PmConfig::default()).unwrap();
        assert_eq!(rerun.resumed_at, None);
        assert_eq!(report_fingerprint(&rerun.report), report_fingerprint(&baseline.report));
    }

    #[test]
    fn crash_at_every_labelled_opportunity_of_one_step_resumes_identically() {
        let baseline = run_persistent(cfg(), PmConfig::default(), arena()).unwrap();
        let fp = report_fingerprint(&baseline.report);
        // Drive two steps, then enumerate step 3's crash opportunities
        // and resume from a capture at each labelled one (cheaper than
        // all ~10^4 of them; the bench sweep covers the rest).
        let stage = || {
            let mut b =
                PmBackend::new(PmOctree::create(arena(), canonical_pm_cfg(PmConfig::default())));
            let mut rt = PmRt::create(&mut b.tree.store.arena).unwrap();
            let sim = Simulation::new(cfg());
            sim.construct(&mut b);
            drive(&sim, &mut b, &mut rt, 0, 2, Vec::new()).unwrap();
            (b, rt)
        };
        let sim = Simulation::new(cfg());
        let (mut b, mut rt) = stage();
        b.tree.store.arena.set_fail_plan(FailPlan::count());
        drive(&sim, &mut b, &mut rt, 2, 3, baseline.report.steps[..2].to_vec()).unwrap();
        let plan = b.tree.store.arena.take_fail_plan().unwrap();
        let labelled: Vec<u64> = plan.labels().iter().map(|&(at, _)| at).collect();
        assert!(
            plan.labels().iter().any(|(_, l)| *l == "rt::commit"),
            "combined persist must expose the rt::commit failpoint"
        );
        for at in labelled {
            let (mut b, mut rt) = stage();
            b.tree.store.arena.set_fail_plan(FailPlan::armed(at, CrashMode::LoseDirty));
            drive(&sim, &mut b, &mut rt, 2, 3, baseline.report.steps[..2].to_vec()).unwrap();
            let mut plan = b.tree.store.arena.take_fail_plan().unwrap();
            let cap = plan.take_capture().expect("armed opportunity fired");
            let crashed = NvbmArena::from_media(cap.media, DeviceModel::default());
            let resumed = resume_persistent(crashed, cfg(), PmConfig::default()).unwrap();
            assert_eq!(
                report_fingerprint(&resumed.report),
                fp,
                "crash at opportunity {at} must resume to the baseline report"
            );
        }
    }
}
