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

use pmoctree_morton::{anchor, partition_by_weight, OctKey, ZRange};
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

/// The BSP time of a global phase: the largest per-rank clock advance
/// over it, given each rank's clock `before` and `after` the phase — the
/// rule `ClusterSim::step` applies to the local phases too. A rank that
/// entered the phase early does not hide its own work behind a later one.
fn phase_ns(before: &[u64], after: &[u64]) -> u64 {
    before.iter().zip(after).map(|(b, a)| a - b).max().unwrap_or(0)
}

/// The index of the range that owns `k`, for ranges that are sorted and
/// contiguous, empty ones allowed, as [`partition_by_weight`] returns
/// them: one binary search over their upper bounds.
fn owner(ranges: &[ZRange<3>], k: &OctKey) -> usize {
    let a = anchor::<3>(k);
    ranges.partition_point(|r| r.hi <= a)
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
    /// parallel octree"): gather the global owned-leaf set, find every
    /// leaf in it two levels coarser than a face neighbor with the family
    /// kernel ([`pmoctree_amr::coarse_neighbors`]), and send each to its
    /// owner, which splits its share and restores 2:1 around the new
    /// children; iterate to a fixed point. Returns the number of
    /// refinements requested.
    fn global_balance(&mut self) -> usize {
        let procs = self.ranks.len();
        if procs == 1 {
            return 0;
        }
        let ranges: Vec<ZRange<3>> = self.ranks.iter().map(|r| r.range).collect();
        let mut refinements = 0usize;
        loop {
            // Global sorted leaf table (anchor-ordered): the linear-octree
            // trick makes "containing leaf" a binary search. The owned
            // leaves leave gaps at range boundaries (a rank's leaves past
            // its range's end are nobody's); a query there answers the
            // leaf before the gap, which does not contain it.
            let per_rank: Vec<Vec<OctKey>> = self
                .ranks
                .par_iter_mut()
                .map(|r| r.owned_leaves().into_iter().map(|(k, _)| k).collect())
                .collect();
            let mut table: Vec<OctKey> = per_rank.into_iter().flatten().collect();
            table.sort_unstable();
            let containing = |queries: &[OctKey]| -> Vec<Option<OctKey>> {
                queries
                    .iter()
                    .map(|q| {
                        let a = anchor::<3>(q);
                        let i = table.partition_point(|l| anchor::<3>(l) <= a);
                        i.checked_sub(1).map(|i| table[i])
                    })
                    .collect()
            };
            let mut targets: Vec<OctKey> = Vec::new();
            pmoctree_amr::coarse_neighbors(containing, &table, |_, leaf| targets.push(leaf));
            targets.sort_unstable();
            targets.dedup();
            // Charge one neighbor-exchange round to every rank. Balance
            // needs only boundary leaves from curve-adjacent peers, not
            // the full table — a halo exchange, so the per-rank volume
            // shrinks with P (unlike the Partition allgather).
            let halo_bytes = (table.len() as u64 * 16) / procs as u64 + 256;
            let exch_ns = self.net.alpha_ns * 2 + self.net.transfer_ns(halo_bytes);
            for r in self.ranks.iter_mut() {
                r.backend.charge_external(exch_ns);
            }
            if targets.is_empty() {
                return refinements;
            }
            refinements += targets.len();
            // Route each target to its owner; the targets stay sorted.
            let mut requests: Vec<Vec<OctKey>> = vec![Vec::new(); procs];
            for leaf in targets {
                requests[owner(&ranges, &leaf)].push(leaf);
            }
            let leaves =
                |ranks: &[Rank]| ranks.iter().map(|r| r.backend.leaf_count()).sum::<usize>();
            let before = leaves(&self.ranks);
            self.ranks.par_iter_mut().zip(requests).for_each(|(r, reqs)| {
                let b = r.backend.as_mut();
                let ok = b.refine_many(&reqs);
                let children: Vec<OctKey> = reqs
                    .iter()
                    .zip(ok)
                    .filter(|&(_, s)| s)
                    .flat_map(|(k, _)| k.children())
                    .collect();
                pmoctree_amr::balance_subset(b, &children);
            });
            // Refining only adds leaves: a round that added none (every
            // request refused, the devices full) would meet the same
            // table again.
            if leaves(&self.ranks) == before {
                return refinements;
            }
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
                let new_owner = owner(&new_ranges, k);
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
        let clocks = |c: &Self| c.ranks.iter().map(|r| r.backend.elapsed_ns()).collect::<Vec<_>>();
        // Cross-rank balance exchange (part of the Balance routine).
        let t_bal0 = clocks(self);
        self.global_balance();
        // Partition phase (global): replan, charge traffic, materialize.
        let t_part0 = clocks(self);
        let (migrated, _) = self.repartition();
        if migrated > 0 {
            self.settle(t);
        }
        let bal_extra = phase_ns(&t_bal0, &t_part0);
        let partition_ns = phase_ns(&t_part0, &clocks(self));
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pmoctree_amr::OctreeBackend;

    fn cfg(max_level: u8) -> SimConfig {
        SimConfig { steps: 3, max_level, base_level: 2, ..SimConfig::default() }
    }

    /// A global phase costs the largest per-rank clock advance: a rank
    /// that entered it early pays its own work, which the difference of
    /// the clock maxima after and before (10 ns here) hides.
    #[test]
    fn phase_time_is_the_largest_per_rank_advance() {
        assert_eq!(phase_ns(&[0, 100], &[50, 110]), 50);
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

    /// Ranks whose devices fill before the mesh is 2:1 across them: the
    /// global balance must stop once a round refines nothing.
    #[test]
    fn global_balance_returns_when_the_devices_are_full() {
        let scheme = Scheme::Pm { transform: false, c0_octants: 1 };
        let mut c = ClusterSim::new(scheme, 2, cfg(6), 64 << 10);
        c.global_balance();
        assert!(c.elements() > 0);
    }

    /// The 2:1 closure by its definition, on one tree: split the coarse
    /// side of every violation a per-leaf `containing_leaf` scan sees
    /// until it sees none.
    fn closure(b: &mut dyn OctreeBackend) {
        loop {
            let mut coarse = Vec::new();
            for k in b.leaf_keys_sorted() {
                for n in k.face_neighbors() {
                    coarse.extend(b.containing_leaf(n).filter(|l| l.level() + 1 < k.level()));
                }
            }
            if coarse.is_empty() {
                return;
            }
            coarse.sort_unstable();
            coarse.dedup();
            for leaf in coarse {
                b.refine(leaf).unwrap();
            }
        }
    }

    /// Cross-rank balance closes violations planted across range
    /// boundaries to the 2:1 closure of the gathered global leaf set. Every
    /// rank holds the uniform level-2 mesh plus the plants in its range, so
    /// the owned leaves tile the domain; each plant splits a level-2 leaf
    /// and then its child facing a neighbor of the root (+z from child 0,
    /// −y from child 2, −z from child 5), whose level-4 leaves then face
    /// level-2 leaves of another rank (or, at 2 ranks, of the same one).
    #[test]
    fn global_balance_reaches_the_closure_of_the_gathered_leaves() {
        let root = OctKey::root();
        let plants =
            [(root.child(0).child(4), 4), (root.child(2).child(0), 0), (root.child(5).child(2), 2)];
        let plant = |b: &mut dyn OctreeBackend, k: OctKey, c: usize| {
            b.refine(k).unwrap();
            b.refine(k.child(c)).unwrap();
        };
        let end = pmoctree_morton::anchor_end::<3>(&root);
        for procs in [2u64, 4] {
            let mut c = ClusterSim::new(Scheme::InCore, procs as usize, cfg(3), 0);
            let mut reference = Scheme::InCore.make_backend(0);
            pmoctree_amr::construct_uniform(reference.as_mut(), 2);
            for (i, r) in (0..).zip(c.ranks.iter_mut()) {
                r.backend = Scheme::InCore.make_backend(0);
                pmoctree_amr::construct_uniform(r.backend.as_mut(), 2);
                let hi = if i + 1 == procs { u64::MAX } else { end / procs * (i + 1) };
                r.range = ZRange { lo: end / procs * i, hi };
                for &(k, child) in plants.iter().filter(|(k, _)| r.range.owns(k)) {
                    plant(r.backend.as_mut(), k, child);
                    plant(reference.as_mut(), k, child);
                }
            }
            let gathered = |c: &mut ClusterSim| {
                let mut keys: Vec<OctKey> =
                    c.ranks.iter_mut().flat_map(|r| r.owned_leaves()).map(|(k, _)| k).collect();
                keys.sort_unstable();
                keys
            };
            assert_eq!(gathered(&mut c), reference.leaf_keys_sorted(), "{procs} ranks: the plants");
            assert!(c.global_balance() > 0, "{procs} ranks");
            closure(reference.as_mut());
            assert_eq!(gathered(&mut c), reference.leaf_keys_sorted(), "{procs} ranks");
        }
    }

    /// `repartition`'s migration count is the number of owned leaves
    /// whose owner changes under the ranges it installs. Every rank holds
    /// the same uniform mesh, so the gathered leaf set and its weights do
    /// not depend on the ranges, and a repeated call moves nothing.
    #[test]
    fn repartition_counts_the_leaves_that_change_owner() {
        let mut c = ClusterSim::new(Scheme::InCore, 4, cfg(3), 0);
        let end = pmoctree_morton::anchor_end::<3>(&OctKey::root());
        // Skewed and rotated: every rank loses leaves, ranks 0 and 2 keep
        // some, and not every move goes to a higher rank.
        let cuts = [0, end / 8, end / 2, end / 8 * 5, u64::MAX];
        for (i, r) in c.ranks.iter_mut().enumerate() {
            r.backend = Scheme::InCore.make_backend(0);
            pmoctree_amr::construct_uniform(r.backend.as_mut(), 3);
            let seg = (i + 1) % 4;
            r.range = ZRange { lo: cuts[seg], hi: cuts[seg + 1] };
        }
        let leaves = c.ranks[0].backend.leaf_keys_sorted();
        let owner = |ranges: &[ZRange<3>], k: &OctKey| ranges.iter().position(|r| r.owns(k));
        let old: Vec<ZRange<3>> = c.ranks.iter().map(|r| r.range).collect();
        let (migrated, _) = c.repartition();
        let new: Vec<ZRange<3>> = c.ranks.iter().map(|r| r.range).collect();
        let expected = leaves.iter().filter(|k| owner(&old, k) != owner(&new, k)).count();
        assert!(0 < expected && expected < leaves.len(), "{expected} of {} move", leaves.len());
        assert_eq!(migrated, expected);
        assert_eq!(c.repartition().0, 0, "unchanged weights must not migrate");
        assert_eq!(c.ranks.iter().map(|r| r.range).collect::<Vec<_>>(), new);
    }
}
