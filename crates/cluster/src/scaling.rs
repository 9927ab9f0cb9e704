//! The parallel simulation: P ranks in bulk-synchronous steps with an
//! α–β network model, producing the weak/strong scaling numbers of
//! Figures 6–10.
//!
//! Each rank executes the *real* meshing and solver code on its
//! subdomain; only the interconnect is modeled. Phases are separated by
//! per-step barriers (clocks jump to the global max), and the Partition
//! phase charges allgather + octant-migration traffic.
//!
//! The `par_iter_mut` phases execute on a real worker pool (the `rayon`
//! shim): ranks are disjoint `&mut` items claimed chunk-by-chunk, so each
//! rank — its backend, virtual clock, tracer journal, stats and fail
//! plan — is touched by exactly one worker per phase. Every cross-rank
//! reduction (the barrier max, phase-delta maxes, leaf-table gathers,
//! journal/metric merges) happens on the coordinator after the pool's
//! scope join, iterating ranks in rank order. Reports, BENCH JSON and
//! traces are therefore byte-identical for any worker count; threads only
//! change which core runs which rank.

use std::collections::HashSet;

use pmoctree_morton::{partition_by_weight, OctKey, ZRange};
use pmoctree_nvbm::{Event, NetworkModel, Tracer};
use pmoctree_solver::{SimConfig, Simulation, StepBreakdown};
use rayon::prelude::*;

use crate::rank::{Rank, Scheme};

/// Per-step cluster timing (virtual seconds, max across ranks per phase).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ClusterStep {
    /// Refine & Coarsen.
    pub refine_s: f64,
    /// 2:1 Balance.
    pub balance_s: f64,
    /// Partition (gather + replan + migration traffic).
    pub partition_s: f64,
    /// Solve sweeps.
    pub solve_s: f64,
    /// Persistence (persist / snapshot / flush).
    pub persist_s: f64,
    /// Global owned elements at the end of the step.
    pub elements: usize,
    /// Octants that changed owner this step.
    pub migrated: usize,
}

impl ClusterStep {
    /// Total step time.
    pub fn total_s(&self) -> f64 {
        self.refine_s + self.balance_s + self.partition_s + self.solve_s + self.persist_s
    }
}

/// Result of a cluster run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ClusterReport {
    /// Scheme name.
    pub scheme: &'static str,
    /// Number of ranks.
    pub procs: usize,
    /// Per-step timings.
    pub steps: Vec<ClusterStep>,
    /// Peak global element count.
    pub peak_elements: usize,
}

impl ClusterReport {
    /// Total execution time (virtual seconds).
    pub fn exec_secs(&self) -> f64 {
        self.steps.iter().map(|s| s.total_s()).sum()
    }

    /// Phase sums `[refine, balance, partition, solve, persist]`.
    pub fn phase_secs(&self) -> [f64; 5] {
        let mut out = [0.0; 5];
        for s in &self.steps {
            out[0] += s.refine_s;
            out[1] += s.balance_s;
            out[2] += s.partition_s;
            out[3] += s.solve_s;
            out[4] += s.persist_s;
        }
        out
    }

    /// Phase percentage breakdown.
    pub fn phase_percent(&self) -> [f64; 5] {
        let total = self.exec_secs().max(1e-30);
        self.phase_secs().map(|x| 100.0 * x / total)
    }
}

/// A bulk-synchronous multi-rank simulation.
pub struct ClusterSim {
    /// The ranks.
    pub ranks: Vec<Rank>,
    /// Interconnect model.
    pub net: NetworkModel,
    /// The driving workload.
    pub sim: Simulation,
    scheme: Scheme,
}

impl ClusterSim {
    /// Build a cluster: uniform initial curve split, construct each
    /// rank's subdomain, then one load-balancing partition.
    pub fn new(scheme: Scheme, procs: usize, cfg: SimConfig, arena_bytes: usize) -> Self {
        assert!(procs >= 1);
        let sim = Simulation::new(cfg);
        let end = pmoctree_morton::anchor_end::<3>(&OctKey::root());
        let span = end / procs as u64;
        let ranks: Vec<Rank> = (0..procs)
            .map(|i| {
                let lo = i as u64 * span;
                let hi = if i + 1 == procs { u64::MAX } else { (i as u64 + 1) * span };
                Rank::new(i, &scheme, arena_bytes, ZRange { lo, hi })
            })
            .collect();
        let mut c = ClusterSim { ranks, net: NetworkModel::gemini(), sim, scheme };
        c.sim.time.set(c.sim.cfg.t0);
        c.ranks.par_iter_mut().for_each(|r| {
            let s = &c.sim;
            r.construct(s);
        });
        let t0 = c.sim.cfg.t0;
        // Two rounds of (re-balance load, settle the mesh) give a stable,
        // balanced initial decomposition.
        for _ in 0..2 {
            c.repartition();
            c.settle(t0);
        }
        c.barrier();
        c
    }

    /// Drive the decomposed mesh to a joint fixed point of the adaptation
    /// criterion and the global 2:1 constraint.
    fn settle(&mut self, t: f64) {
        for _ in 0..=self.sim.cfg.max_level {
            self.materialize_ranges(t);
            if self.global_balance() == 0 {
                break;
            }
        }
    }

    /// After new ranges are installed, each rank adapts until it has
    /// materialized its newly-owned regions (this stands in for the
    /// physical octant migration; the traffic was already charged by
    /// `repartition`, the local refinement reconstructs the mesh
    /// deterministically from the shared criterion).
    fn materialize_ranges(&mut self, t: f64) {
        self.sim.time.set(t);
        let sim = &self.sim;
        self.ranks.par_iter_mut().for_each(|r| {
            let crit = crate::rank::RangedCriterion { inner: &sim.criterion(), range: r.range };
            for _ in 0..=sim.cfg.max_level {
                let before = r.backend.leaf_count();
                pmoctree_amr::adapt(r.backend.as_mut(), &crit);
                if r.backend.leaf_count() == before {
                    break;
                }
            }
            pmoctree_solver::advect(r.backend.as_mut(), &sim.interface, t);
        });
    }

    /// Parallel 2:1 balance (§2's `Balance` "enforced on the entire
    /// parallel octree"): gather the global owned-leaf set, detect
    /// cross-rank violations against it, and send refine requests to the
    /// owners; iterate to a fixed point. Returns the number of
    /// refinements requested.
    fn global_balance(&mut self) -> usize {
        let procs = self.ranks.len();
        if procs == 1 {
            return 0;
        }
        let mut refinements = 0usize;
        loop {
            // Global sorted leaf table (anchor-ordered): the linear-octree
            // trick makes "containing leaf" a binary search.
            let per_rank: Vec<Vec<OctKey>> = self
                .ranks
                .par_iter_mut()
                .map(|r| r.owned_leaves().into_iter().map(|(k, _)| k).collect())
                .collect();
            let mut table: Vec<OctKey> = per_rank.iter().flatten().copied().collect();
            table.sort();
            let anchors: Vec<u64> = table.iter().map(pmoctree_morton::anchor::<3>).collect();
            let containing = |k: &OctKey| -> OctKey {
                let a = pmoctree_morton::anchor::<3>(k);
                let i = anchors.partition_point(|&l| l <= a);
                table[i.saturating_sub(1)]
            };
            // Detect violations; route refine requests to owners (each
            // leaf once, in first-seen order).
            let mut requests: Vec<Vec<OctKey>> = vec![Vec::new(); procs];
            let mut requested: HashSet<OctKey> = HashSet::new();
            let mut any = false;
            for leaves in &per_rank {
                for k in leaves {
                    for axis in 0..3 {
                        for dir in [-1i8, 1] {
                            if let Some(nk) = k.face_neighbor(axis, dir) {
                                let leaf = containing(&nk);
                                if leaf.level() + 1 < k.level() && requested.insert(leaf) {
                                    let owner = self
                                        .ranks
                                        .iter()
                                        .position(|r| r.owns(&leaf))
                                        .expect("every leaf has an owner");
                                    requests[owner].push(leaf);
                                    any = true;
                                }
                            }
                        }
                    }
                }
            }
            // Charge one neighbor-exchange round to every rank. Balance
            // needs only boundary leaves from curve-adjacent peers, not
            // the full table — a halo exchange, so the per-rank volume
            // shrinks with P (unlike the Partition allgather).
            let halo_bytes = (table.len() as u64 * 16) / procs as u64 + 256;
            let exch_ns = self.net.alpha_ns * 2 + self.net.transfer_ns(halo_bytes);
            for r in self.ranks.iter_mut() {
                r.backend.charge_external(exch_ns);
            }
            if !any {
                return refinements;
            }
            refinements += requests.iter().map(Vec::len).sum::<usize>();
            self.ranks.par_iter_mut().zip(requests).for_each(|(r, reqs)| {
                for k in reqs {
                    pmoctree_amr::refine_balanced(r.backend.as_mut(), k);
                }
            });
        }
    }

    /// The scheme in use.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Attach an enabled tracer to every rank (tid = rank id). Each rank
    /// journals independently, so the parallel phases stay contention-free
    /// and per-rank event streams stay deterministic.
    pub fn enable_tracing(&mut self) {
        for r in &mut self.ranks {
            r.backend.set_tracer(Tracer::enabled(r.id as u32));
        }
    }

    /// Per-rank event journals as `(tid, events)` threads, ready for
    /// [`pmoctree_nvbm::obsv::chrome::trace_json`]. Empty unless
    /// [`ClusterSim::enable_tracing`] was called.
    ///
    /// This is the barrier-side journal merge: rank workers record
    /// concurrently into their own buffers during parallel phases, and
    /// the coordinator folds them here through
    /// [`pmoctree_nvbm::obsv::merge_threads`] (stable tid order), so the
    /// exported trace does not depend on the worker count.
    pub fn trace_threads(&self) -> Vec<(u32, Vec<Event>)> {
        pmoctree_nvbm::obsv::merge_threads(
            self.ranks
                .iter()
                .map(|r| {
                    let tr = r.backend.tracer();
                    (tr.tid(), tr.events())
                })
                .filter(|(_, ev)| !ev.is_empty())
                .collect(),
        )
    }

    /// Bulk-synchronous barrier: every rank's clock jumps to the global
    /// max. Runs on the coordinator after the pool's scope join, so it
    /// reads quiescent clocks and stays a max-over-ranks reduction no
    /// matter how many workers executed the preceding phase.
    fn barrier(&mut self) {
        let max = self.ranks.iter().map(|r| r.backend.elapsed_ns()).max().unwrap_or(0);
        for r in &mut self.ranks {
            r.backend.barrier_to(max);
        }
    }

    /// Gather all owned leaves, replan ranges, charge communication, and
    /// install the new ranges. Returns (migrated octants, partition ns
    /// charged per rank max).
    fn repartition(&mut self) -> (usize, u64) {
        let procs = self.ranks.len();
        // Gather phase: every rank contributes its owned leaves.
        let per_rank: Vec<Vec<(OctKey, f64)>> =
            self.ranks.par_iter_mut().map(|r| r.owned_leaves()).collect();
        let mut all: Vec<(OctKey, f64)> = per_rank.iter().flatten().copied().collect();
        all.sort_by_key(|a| a.0);
        if all.is_empty() {
            return (0, 0);
        }
        let new_ranges = partition_by_weight(&all, procs);
        // Migration volume: leaves whose owner changes.
        let mut migrated = 0usize;
        let mut moved_bytes_per_rank = vec![0u64; procs];
        for (old_rank, leaves) in per_rank.iter().enumerate() {
            for (k, _) in leaves {
                let new_owner =
                    new_ranges.iter().position(|r| r.owns(k)).expect("ranges cover curve");
                if new_owner != old_rank {
                    migrated += 1;
                    moved_bytes_per_rank[old_rank] += 128;
                    moved_bytes_per_rank[new_owner] += 128;
                }
            }
        }
        // Communication charges: allgather of the weight table
        // (tree-structured, log P rounds, full table received), plus the
        // per-rank migration traffic.
        let table_bytes = all.len() as u64 * 16;
        let log_p = (usize::BITS - procs.leading_zeros()) as u64;
        let mut max_charge = 0u64;
        for (i, r) in self.ranks.iter_mut().enumerate() {
            let gather_ns = self.net.alpha_ns * log_p + self.net.transfer_ns(table_bytes);
            let migrate_ns = if moved_bytes_per_rank[i] > 0 {
                self.net.transfer_ns(moved_bytes_per_rank[i])
            } else {
                0
            };
            let ns = gather_ns + migrate_ns;
            r.backend.charge_external(ns);
            max_charge = max_charge.max(ns);
            r.range = new_ranges[i];
        }
        (migrated, max_charge)
    }

    /// Execute one bulk-synchronous time step.
    pub fn step(&mut self, step_idx: usize) -> ClusterStep {
        let t = self.sim.cfg.t0 + self.sim.cfg.dt * (step_idx as f64 + 1.0);
        // Local phases (parallel across ranks; each stores the same `t`
        // into the shared sim clock).
        let deltas: Vec<StepBreakdown> = self
            .ranks
            .par_iter_mut()
            .map(|r| {
                let s = &self.sim;
                r.local_step(s, step_idx)
            })
            .collect();
        let max_elapsed =
            |c: &Self| c.ranks.iter().map(|r| r.backend.elapsed_ns()).max().unwrap_or(0);
        // Cross-rank balance exchange (part of the Balance routine).
        let t_bal0 = max_elapsed(self);
        self.global_balance();
        let bal_extra = max_elapsed(self) - t_bal0;
        // Partition phase (global): replan, charge traffic, materialize.
        let t_part0 = max_elapsed(self);
        let (migrated, _) = self.repartition();
        if migrated > 0 {
            self.settle(t);
        }
        let partition_ns = max_elapsed(self) - t_part0;
        self.barrier();
        let elements: usize = self.ranks.iter_mut().map(|r| r.owned_leaf_count()).sum();
        let maxof = |phase: fn(&StepBreakdown) -> u64| {
            deltas.iter().map(phase).max().unwrap_or(0) as f64 * 1e-9
        };
        ClusterStep {
            refine_s: maxof(|d| d.refine_ns),
            balance_s: maxof(|d| d.balance_ns) + bal_extra as f64 * 1e-9,
            solve_s: maxof(|d| d.solve_ns),
            persist_s: maxof(|d| d.persist_ns),
            partition_s: partition_ns as f64 * 1e-9,
            elements,
            migrated,
        }
    }

    /// Run `steps` time steps and report.
    pub fn run(&mut self, steps: usize) -> ClusterReport {
        let mut report = ClusterReport {
            scheme: self.scheme.name(),
            procs: self.ranks.len(),
            ..ClusterReport::default()
        };
        for i in 0..steps {
            let s = self.step(i);
            report.peak_elements = report.peak_elements.max(s.elements);
            report.steps.push(s);
        }
        report
    }

    /// Current global element count (owned leaves across ranks).
    pub fn elements(&mut self) -> usize {
        self.ranks.iter_mut().map(|r| r.owned_leaf_count()).sum()
    }
}

/// Pick the refinement depth that yields roughly `target` global
/// elements for the droplet workload (interface area ≈ 0.35 of the unit
/// domain crossed by band cells: elements ≈ base + c·4^L).
pub fn max_level_for(target: usize) -> u8 {
    let mut level = 3u8;
    while level < 10 {
        let est = 520.0 + 2.2 * 4f64.powi(level as i32);
        if est >= target as f64 {
            break;
        }
        level += 1;
    }
    level
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn cfg(max_level: u8) -> SimConfig {
        SimConfig { steps: 3, max_level, base_level: 2, ..SimConfig::default() }
    }

    #[test]
    fn single_rank_runs() {
        let mut c = ClusterSim::new(Scheme::InCore, 1, cfg(3), 0);
        let r = c.run(3);
        assert_eq!(r.procs, 1);
        assert_eq!(r.steps.len(), 3);
        assert!(r.exec_secs() > 0.0);
        assert!(r.peak_elements > 64);
    }

    #[test]
    fn multi_rank_partitions_elements() {
        let mut c = ClusterSim::new(Scheme::InCore, 4, cfg(4), 0);
        let single = ClusterSim::new(Scheme::InCore, 1, cfg(4), 0).elements();
        let multi = c.elements();
        // Owned leaves partition the global mesh. The paper itself saw up
        // to 7% variation in per-run element counts; decomposition changes
        // which 2:1 ripples fire, so we allow the same tolerance.
        let rel = (multi as f64 - single as f64).abs() / single as f64;
        assert!(rel < 0.07, "partitioned element total: {multi} vs {single}");
        let r = c.run(2);
        assert!(r.steps.iter().all(|s| s.partition_s > 0.0), "partition must cost time");
    }

    #[test]
    fn partition_balances_load() {
        let mut c = ClusterSim::new(Scheme::InCore, 4, cfg(4), 0);
        let counts: Vec<usize> = c.ranks.iter_mut().map(|r| r.owned_leaf_count()).collect();
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) < 3.0, "load imbalance after initial partition: {counts:?}");
    }

    #[test]
    fn strong_scaling_reduces_time() {
        let r1 = ClusterSim::new(Scheme::InCore, 1, cfg(4), 0).run(2);
        let r4 = ClusterSim::new(Scheme::InCore, 4, cfg(4), 0).run(2);
        assert!(
            r4.exec_secs() < r1.exec_secs(),
            "4 ranks should beat 1: {} vs {}",
            r4.exec_secs(),
            r1.exec_secs()
        );
    }

    #[test]
    fn pm_scheme_runs_in_cluster() {
        let mut c = ClusterSim::new(Scheme::pm_default(), 2, cfg(3), 32 << 20);
        let r = c.run(2);
        assert!(r.exec_secs() > 0.0);
        assert_eq!(r.scheme, "pm-octree");
    }

    #[test]
    fn max_level_estimator_monotone() {
        assert!(max_level_for(1_000) <= max_level_for(10_000));
        assert!(max_level_for(10_000) <= max_level_for(200_000));
        assert!(max_level_for(500) >= 3);
    }
}
