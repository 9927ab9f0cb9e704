//! Failure-recovery experiments (§5.6).
//!
//! Kill the simulation at a time step, then measure the virtual time to
//! restart it under each scheme and scenario:
//!
//! * **same node** — the crashed node reboots with its NVBM intact.
//!   PM-octree returns `ADDR(V_{i-1})` after one reachability pass;
//!   the in-core baseline re-reads its whole snapshot file; Etree just
//!   re-opens its metadata.
//! * **new node** — the crashed node is gone. PM-octree restores from a
//!   remote replica over the interconnect; the in-core baseline reads
//!   the snapshot from the shared parallel file system (same cost);
//!   Etree cannot recover (its octant database was not replicated).

use pm_octree::{PmConfig, PmOctree};
use pmoctree_amr::{InCoreBackend, PmBackend};
use pmoctree_baselines::InCoreOctree;
use pmoctree_morton::ZRange;
use pmoctree_nvbm::{CrashMode, DeviceModel, NetworkModel, NvbmArena, TraversalStats};
use pmoctree_solver::{
    resume_persistent, run_persistent, run_persistent_partial, SimConfig, Simulation,
};
use serde::Serialize;

use crate::rank::Rank;

/// Recovery timings for one scheme, in virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RecoveryReport {
    /// Scheme name.
    pub scheme: &'static str,
    /// Restart on the same (rebooted) node.
    pub same_node_secs: f64,
    /// Restart replacing the crashed node; `None` = unrecoverable.
    pub new_node_secs: Option<f64>,
    /// Elements recovered.
    pub elements: usize,
    /// Octant-location counters of the pre-crash run.
    pub trav: TraversalStats,
}

/// The PM configuration the recovery experiment crashes under — and must
/// restore under: a restored tree silently running different knobs than
/// the one that crashed would invalidate the recovered timings.
fn pm_experiment_config() -> PmConfig {
    PmConfig { dynamic_transform: false, replicas: true, ..PmConfig::default() }
}

/// Run the PM-octree recovery experiment: simulate `steps_before_kill`
/// steps, crash, restore. Uses replicas for the new-node scenario.
pub fn pm_recovery(cfg: SimConfig, steps_before_kill: usize, arena_bytes: usize) -> RecoveryReport {
    pm_recovery_detailed(cfg, steps_before_kill, arena_bytes).0
}

/// [`pm_recovery`] plus the configs the two restored trees actually run
/// under (same-node, new-node) so tests can pin them to the pre-crash
/// config.
fn pm_recovery_detailed(
    cfg: SimConfig,
    steps_before_kill: usize,
    arena_bytes: usize,
) -> (RecoveryReport, PmConfig, PmConfig) {
    let sim = Simulation::new(cfg);
    let pm_cfg = pm_experiment_config();
    let mut b = PmBackend::new(PmOctree::create(
        NvbmArena::new(arena_bytes, DeviceModel::default()),
        pm_cfg,
    ));
    sim.construct(&mut b);
    for s in 0..steps_before_kill {
        sim.step(&mut b, s);
    }
    let replica = b.tree.replicas.clone().expect("replicas enabled");
    let elements = b.tree.leaf_count();
    let trav = b.tree.store.arena.stats.trav;
    // Kill: volatile state is gone, dirty lines lost.
    let PmBackend { tree } = b;
    let mut arena = tree.store.arena;
    arena.crash(CrashMode::LoseDirty);

    // Scenario 1: same node. Recovery = header read + reachability pass.
    // Restore under the *pre-crash* config: the rebooted process would
    // read its knobs from the same job script that launched the run.
    let t0 = arena.clock.now_ns();
    let restored = match PmOctree::restore(arena, pm_cfg) {
        Ok(t) => t,
        Err(e) => panic!("same-node recovery after clean kill must succeed: {e}"),
    };
    let same_node_secs = (restored.store.arena.clock.now_ns() - t0) as f64 * 1e-9;

    // Scenario 2: new node. The replica image crosses the §5.6
    // InfiniBand network, then the same restore runs locally — again
    // under the pre-crash config.
    let net = NetworkModel::infiniband_fdr();
    let fresh = NvbmArena::new(arena_bytes, DeviceModel::default());
    let (restored2, moved) = match PmOctree::restore_from_replica(fresh, &replica, pm_cfg) {
        Ok(r) => r,
        Err(e) => panic!("replica recovery must succeed: {e}"),
    };
    let transfer_secs = net.transfer_ns(moved) as f64 * 1e-9;
    let restore2_secs = restored2.store.arena.clock.now_ns() as f64 * 1e-9;
    let report = RecoveryReport {
        scheme: "pm-octree",
        same_node_secs,
        new_node_secs: Some(transfer_secs + restore2_secs),
        elements,
        trav,
    };
    (report, restored.cfg, restored2.cfg)
}

/// In-core baseline recovery: re-read the latest snapshot file.
pub fn incore_recovery(cfg: SimConfig, steps_before_kill: usize) -> RecoveryReport {
    let sim = Simulation::new(cfg);
    let mut b = InCoreBackend::new();
    b.snapshot_interval = 10;
    sim.construct(&mut b);
    for s in 0..steps_before_kill {
        sim.step(&mut b, s);
    }
    // Make sure a snapshot exists (the paper snapshots every 10 steps;
    // kill at step 20 guarantees one).
    let last_snap = (steps_before_kill / b.snapshot_interval) * b.snapshot_interval;
    let name = format!("snapshot-{last_snap}.gfs");
    if !b.fs.exists(&name) {
        b.tree.snapshot(&mut b.fs, &name);
    }
    let elements = b.tree.leaf_count();
    let trav = b.tree.stats.trav;
    // Kill: DRAM gone; only the snapshot file survives. Recovery time =
    // file read + tree rebuild.
    let InCoreBackend { mut fs, .. } = b;
    let t0 = fs.clock.now_ns();
    let restored = InCoreOctree::restore(&mut fs, &name).expect("snapshot readable");
    let io_secs = (fs.clock.now_ns() - t0) as f64 * 1e-9;
    let rebuild_secs = restored.clock.now_ns() as f64 * 1e-9;
    RecoveryReport {
        scheme: "in-core",
        same_node_secs: io_secs + rebuild_secs,
        // Snapshot lives on the shared PFS: same cost from any node.
        new_node_secs: Some(io_secs + rebuild_secs),
        elements: restored.leaf_count(),
        trav,
    }
    .with_elements(elements)
}

impl RecoveryReport {
    fn with_elements(mut self, n: usize) -> Self {
        self.elements = self.elements.max(n);
        self
    }
}

/// Etree recovery: reopen the octant database (metadata only).
pub fn etree_recovery(cfg: SimConfig, steps_before_kill: usize) -> RecoveryReport {
    let sim = Simulation::new(cfg);
    let mut b = pmoctree_amr::EtreeBackend::on_nvbm();
    sim.construct(&mut b);
    for s in 0..steps_before_kill {
        sim.step(&mut b, s);
    }
    b.tree.flush();
    let elements = b.tree.leaf_count();
    let trav = b.tree.stats.trav;
    let pmoctree_amr::EtreeBackend { tree, .. } = b;
    let pmoctree_baselines::EtreeOctree { fs, .. } = tree;
    // The index pages persist in the file system; a reopen rebuilds the
    // handle from metadata. We model the index as re-created from its
    // file, which is the dominant reopen cost.
    let mut fs = fs;
    let t0 = fs.clock.now_ns();
    let meta_ok = fs.read_all("etree.meta").is_ok();
    assert!(meta_ok);
    let same = (fs.clock.now_ns() - t0) as f64 * 1e-9;
    RecoveryReport {
        scheme: "out-of-core",
        same_node_secs: same,
        new_node_secs: None, // not replicated (§5.6 second scenario)
        elements,
        trav,
    }
}

/// Whole-application recovery with the `pm-rt` runtime: not just the
/// mesh but the *run* (config, step index, timing history) comes back.
#[derive(Debug, Clone, Serialize)]
pub struct RtRecoveryReport {
    /// Step the resumed run continues at (steps completed pre-kill).
    pub resumed_step: usize,
    /// Same-node whole-application restart: runtime swizzle + run-state
    /// read + tree reattach, in virtual seconds.
    pub same_node_restart_secs: f64,
    /// New-node restart: replica transfer over the interconnect plus the
    /// same local restart, in virtual seconds.
    pub new_node_restart_secs: f64,
    /// Mesh elements at the resume point.
    pub elements: usize,
    /// Whether the resumed run (same node *and* resurrected node) drove
    /// to completion with a report identical to the uncrashed run's.
    pub report_identical: bool,
}

/// Kill a whole-application persistent run after `steps_before_kill`
/// steps and bring the *rank* back twice: on the rebooted node (NVBM
/// intact minus dirty lines) and on a fresh node from the replica (whose
/// deltas carried the `pm-rt` root bundle along with the octants).
pub fn rt_recovery(
    cfg: SimConfig,
    steps_before_kill: usize,
    arena_bytes: usize,
) -> RtRecoveryReport {
    let pm_cfg = pm_experiment_config();
    // The uncrashed reference run.
    let baseline = run_persistent(cfg, pm_cfg, NvbmArena::new(arena_bytes, DeviceModel::default()))
        .expect("baseline persistent run");
    // The victim: identical run killed mid-flight.
    let (mut b, _rt, _done) = run_persistent_partial(
        cfg,
        pm_cfg,
        NvbmArena::new(arena_bytes, DeviceModel::default()),
        steps_before_kill,
    )
    .expect("staged persistent run");
    let replica = b.tree.replicas.clone().expect("replicas enabled");
    b.tree.store.arena.crash(CrashMode::LoseDirty);
    let media = b.tree.store.arena.clone_media();

    // Same node: a cold process reattaches to the surviving device. The
    // virtual clock starts at zero, so elapsed time after reattach is the
    // whole-application restart latency.
    let cold = NvbmArena::from_media(media.clone(), DeviceModel::default());
    let (restart_ns, elements, resumed_step) =
        match pmoctree_solver::reattach(cold, pm_cfg).expect("same-node reattach") {
            pmoctree_solver::Reattach::Resumable(backend, _rt, state) => (
                backend.tree.store.arena.clock.now_ns(),
                backend.tree.leaf_count(),
                state.next_step as usize,
            ),
            pmoctree_solver::Reattach::Nothing(_) => {
                panic!("combined commits exist after {steps_before_kill} steps")
            }
        };

    // New node: the replica image crosses the interconnect and the rank
    // is resurrected whole.
    let net = NetworkModel::infiniband_fdr();
    let (rank, _rt2, state2, moved) =
        Rank::resurrect_from_replica(0, ZRange::all(), arena_bytes, &replica, pm_cfg)
            .expect("replica resurrection");
    let new_node_ns = rank.backend.elapsed_ns() + net.transfer_ns(moved);
    assert_eq!(state2.next_step as usize, resumed_step, "replica carries the same commit");

    // Both crash copies must drive to the uncrashed run's exact report.
    let same = resume_persistent(NvbmArena::from_media(media, DeviceModel::default()), cfg, pm_cfg)
        .expect("same-node resume");
    let mut from_replica = NvbmArena::new(arena_bytes, DeviceModel::default());
    from_replica.restore_media(replica.image());
    let newn = resume_persistent(from_replica, cfg, pm_cfg).expect("new-node resume");
    let report_identical =
        same.report.steps == baseline.report.steps && newn.report.steps == baseline.report.steps;

    RtRecoveryReport {
        resumed_step,
        same_node_restart_secs: restart_ns as f64 * 1e-9,
        new_node_restart_secs: new_node_ns as f64 * 1e-9,
        elements,
        report_identical,
    }
}

/// Run all three recovery experiments at the same scale.
pub fn recovery_comparison(
    cfg: SimConfig,
    steps_before_kill: usize,
    arena_bytes: usize,
) -> Vec<RecoveryReport> {
    vec![
        incore_recovery(cfg, steps_before_kill),
        pm_recovery(cfg, steps_before_kill, arena_bytes),
        etree_recovery(cfg, steps_before_kill),
    ]
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig { steps: 12, max_level: 4, base_level: 2, ..SimConfig::default() }
    }

    #[test]
    fn pm_recovers_fast() {
        let r = pm_recovery(cfg(), 12, 64 << 20);
        assert!(r.same_node_secs > 0.0);
        assert!(r.new_node_secs.unwrap() > r.same_node_secs, "replica move costs extra");
        assert!(r.elements > 100);
    }

    /// Regression: both recovery scenarios must restore the tree under
    /// the exact config it crashed with, not `PmConfig::default()`.
    #[test]
    fn restore_preserves_precrash_config() {
        let (_, same_node_cfg, new_node_cfg) = pm_recovery_detailed(cfg(), 6, 64 << 20);
        assert_eq!(same_node_cfg, pm_experiment_config());
        assert_eq!(new_node_cfg, pm_experiment_config());
        // And the experiment config genuinely differs from the default,
        // so the assertions above cannot pass vacuously.
        assert_ne!(pm_experiment_config(), PmConfig::default());
    }

    #[test]
    fn incore_recovery_reads_snapshot() {
        let r = incore_recovery(cfg(), 12);
        assert!(r.same_node_secs > 0.0);
        assert_eq!(r.new_node_secs, Some(r.same_node_secs));
    }

    #[test]
    fn etree_reopen_near_instant() {
        let r = etree_recovery(cfg(), 6);
        assert!(r.same_node_secs >= 0.0);
        assert_eq!(r.new_node_secs, None, "etree is unrecoverable on a new node");
    }

    #[test]
    fn rt_recovery_resurrects_the_whole_rank() {
        let r = rt_recovery(SimConfig { steps: 4, ..cfg() }, 2, 48 << 20);
        assert_eq!(r.resumed_step, 2);
        assert!(r.elements > 100);
        assert!(r.same_node_restart_secs > 0.0);
        assert!(
            r.new_node_restart_secs > r.same_node_restart_secs,
            "replica transfer costs extra: {} vs {}",
            r.new_node_restart_secs,
            r.same_node_restart_secs
        );
        assert!(r.report_identical, "resumed runs must reproduce the uncrashed report");
    }

    #[test]
    fn paper_ordering_holds() {
        // §5.6: in-core (42.9s) >> PM-octree (2.1s) > etree (~0);
        // new node: PM 3.48s (2.1 + 1.38 transfer), etree impossible.
        let rs = recovery_comparison(cfg(), 12, 64 << 20);
        let incore = rs.iter().find(|r| r.scheme == "in-core").unwrap();
        let pm = rs.iter().find(|r| r.scheme == "pm-octree").unwrap();
        let et = rs.iter().find(|r| r.scheme == "out-of-core").unwrap();
        assert!(
            incore.same_node_secs > pm.same_node_secs,
            "in-core {} vs pm {}",
            incore.same_node_secs,
            pm.same_node_secs
        );
        assert!(pm.same_node_secs > et.same_node_secs);
        assert!(pm.new_node_secs.unwrap() > pm.same_node_secs);
        assert!(et.new_node_secs.is_none());
    }
}
