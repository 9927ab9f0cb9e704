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
use pmoctree_amr::{OctreeBackend, PmBackend};
use pmoctree_baselines::{EtreeOctree, InCoreOctree};
use pmoctree_nvbm::{CrashMode, DeviceModel, NetworkModel, NvbmArena, TraversalStats};
use pmoctree_simfs::SimFs;
use pmoctree_solver::{SimConfig, Simulation};
use serde::Serialize;

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

    // Scenario 2: new node. The replica's media — the chunks it holds —
    // crosses the §5.6 InfiniBand network, then the same restore runs
    // locally — again under the pre-crash config.
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
    let mut b = InCoreOctree::new();
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
        b.snapshot(&name);
    }
    let elements = b.leaf_count();
    let trav = b.stats.trav;
    // Kill: DRAM gone; only the snapshot file survives. Recovery time =
    // file read + tree rebuild.
    let t0 = b.fs.clock.now_ns();
    let restored = InCoreOctree::restore(b.fs, &name).expect("snapshot readable");
    let io_secs = (restored.fs.clock.now_ns() - t0) as f64 * 1e-9;
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
    let mut b = EtreeOctree::create(SimFs::on_nvbm());
    sim.construct(&mut b);
    for s in 0..steps_before_kill {
        sim.step(&mut b, s);
    }
    b.flush();
    let elements = b.leaf_count();
    let trav = b.stats.trav;
    // The index pages persist in the file system; a reopen rebuilds the
    // handle from metadata. We model the index as re-created from its
    // file, which is the dominant reopen cost.
    let mut fs = b.into_parts().0;
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
    fn paper_ordering_holds() {
        // §5.6: in-core (42.9s) >> PM-octree (2.1s) > etree (~0);
        // new node: PM 3.48s (2.1 + 1.38 transfer) < in-core 42.9s (the
        // same snapshot read from the shared file system), etree
        // impossible.
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
        assert!(
            pm.new_node_secs.unwrap() < incore.new_node_secs.unwrap(),
            "new node: in-core {:?} vs pm {:?}",
            incore.new_node_secs,
            pm.new_node_secs
        );
        assert!(et.new_node_secs.is_none());
    }
}
