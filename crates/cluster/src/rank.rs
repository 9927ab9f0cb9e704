//! One simulated processor: a backend instance owning a Morton range of
//! the global domain.
//!
//! Domain decomposition follows the standard parallel-octree convention:
//! a rank materializes every octant whose region **overlaps** its curve
//! range; octants wholly inside foreign ranges stay coarse (a one-layer
//! coarse halo around the owned region). A leaf is *owned* iff its Morton
//! anchor falls in the range, so every leaf has exactly one owner and
//! per-rank element counts sum to the global count plus the (small)
//! coarse halos.

use pm_octree::{PmConfig, PmOctree};
use pmoctree_amr::{AdaptCriterion, Cell, OctreeBackend, PmBackend, Target};
use pmoctree_baselines::{EtreeOctree, InCoreOctree};
use pmoctree_morton::{OctKey, ZRange};
use pmoctree_nvbm::{DeviceModel, NvbmArena};
use pmoctree_simfs::SimFs;
use pmoctree_solver::{Simulation, StepBreakdown};

/// Which octree implementation a cluster run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// PM-octree on NVBM (optionally without the dynamic transformation).
    Pm {
        /// Enable §3.3 dynamic layout transformation.
        transform: bool,
        /// DRAM budget for the C0 tree, in octants.
        c0_octants: usize,
    },
    /// Gerris-style in-core octree + snapshot files.
    InCore,
    /// Etree-style out-of-core octree on NVBM.
    Etree,
}

impl Scheme {
    /// Default PM-octree scheme used by the scaling studies.
    pub fn pm_default() -> Self {
        Scheme::Pm { transform: true, c0_octants: 1 << 14 }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Pm { .. } => "pm-octree",
            Scheme::InCore => "in-core",
            Scheme::Etree => "out-of-core",
        }
    }

    /// Build one backend instance for a rank. `arena_bytes` sizes the
    /// per-rank NVBM device.
    pub fn make_backend(&self, arena_bytes: usize) -> Box<dyn OctreeBackend + Send> {
        match *self {
            Scheme::Pm { transform, c0_octants } => {
                let cfg = PmConfig {
                    dynamic_transform: transform,
                    c0_capacity_octants: c0_octants,
                    ..PmConfig::default()
                };
                Box::new(PmBackend::new(PmOctree::create(
                    NvbmArena::new(arena_bytes, DeviceModel::default()),
                    cfg,
                )))
            }
            Scheme::InCore => Box::new(InCoreOctree::new()),
            Scheme::Etree => Box::new(EtreeOctree::create(SimFs::on_nvbm())),
        }
    }
}

/// A criterion restricted to a rank's range: octants with no overlap are
/// always coarsening candidates, so trees shed regions they lose during
/// repartitioning.
pub struct RangedCriterion<'a> {
    /// The application criterion.
    pub inner: &'a dyn AdaptCriterion,
    /// The rank's owned curve range.
    pub range: ZRange<3>,
}

impl AdaptCriterion for RangedCriterion<'_> {
    fn target(&self, key: &OctKey, data: &Cell) -> Target {
        if !self.range.overlaps(&ZRange::of(key)) {
            return Target::Coarsen;
        }
        // Octants that merely touch the range refine only if the range
        // actually owns part of the refined region (avoid halo blow-up):
        // we allow the refinement when the inner criterion asks for it
        // and at least one child overlaps the owned range.
        self.inner.target(key, data)
    }

    fn max_level(&self) -> u8 {
        self.inner.max_level()
    }
}

/// One simulated processor.
///
/// A rank is the unit the worker pool schedules: `ClusterSim`'s parallel
/// phases hand each rank as a disjoint `&mut` to exactly one worker, so
/// everything it owns (backend, arena, virtual clock, tracer journal,
/// fail plan) is single-writer during a phase and only read by the
/// coordinator after the pool joins.
pub struct Rank {
    /// Rank id (0-based).
    pub id: usize,
    /// The octree backend.
    pub backend: Box<dyn OctreeBackend + Send>,
    /// Owned Morton range.
    pub range: ZRange<3>,
}

/// Ranks migrate between pool workers, so this must hold; asserting it
/// here turns a future non-`Send` field into a build error with a
/// readable location.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Rank>();
};

impl Rank {
    /// Create a rank over a range.
    pub fn new(id: usize, scheme: &Scheme, arena_bytes: usize, range: ZRange<3>) -> Self {
        Rank { id, backend: scheme.make_backend(arena_bytes), range }
    }

    /// Owned leaves (anchor inside the range) with their work weights.
    pub fn owned_leaves(&mut self) -> Vec<(OctKey, f64)> {
        let mut out = Vec::new();
        let range = self.range;
        self.backend.for_each_leaf(&mut |k, d| {
            if range.owns(&k) {
                out.push((k, if d[3] > 0.0 { d[3] } else { 1.0 }));
            }
        });
        out
    }

    /// Number of owned leaves.
    pub fn owned_leaf_count(&mut self) -> usize {
        let mut n = 0usize;
        let range = self.range;
        self.backend.for_each_leaf(&mut |k, _| {
            if range.owns(&k) {
                n += 1;
            }
        });
        n
    }

    /// Run the local meshing + solve phases of one step:
    /// [`Simulation::step_core`] under this rank's range-restricted
    /// criterion, so cluster traces carry the single-rank span taxonomy.
    pub fn local_step(&mut self, sim: &Simulation, step_idx: usize) -> StepBreakdown {
        let crit = RangedCriterion { inner: &sim.criterion(), range: self.range };
        sim.step_core(self.backend.as_mut(), &crit, step_idx, |b, _, _| {
            b.end_of_step(step_idx + 1);
            None
        })
    }

    /// Construct the initial local mesh for the rank's range. All ranks
    /// constructing in parallel store the same t0 into the shared sim
    /// clock: concurrent, but value-identical, atomic stores.
    pub fn construct(&mut self, sim: &Simulation) {
        let crit = RangedCriterion { inner: &sim.criterion(), range: self.range };
        // Every rank starts from the whole domain, so the uniform grid
        // stays coarse and each pass may have to coarsen foreign regions
        // as well as refine owned ones.
        let (base, passes) = (sim.cfg.base_level.min(2), sim.cfg.max_level.max(1));
        sim.construct_with(self.backend.as_mut(), &crit, base, passes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmoctree_solver::SimConfig;

    fn sim() -> Simulation {
        Simulation::new(SimConfig { steps: 2, max_level: 4, base_level: 2, ..SimConfig::default() })
    }

    #[test]
    fn two_ranks_cover_all_leaves_once() {
        let s = sim();
        let mid = pmoctree_morton::anchor_end::<3>(&OctKey::root().child(3));
        let r0 = ZRange { lo: 0, hi: mid };
        let r1 = ZRange { lo: mid, hi: u64::MAX };
        let mut a = Rank::new(0, &Scheme::InCore, 0, r0);
        let mut b = Rank::new(1, &Scheme::InCore, 0, r1);
        a.construct(&s);
        b.construct(&s);
        // A global single-rank reference.
        let mut g = Rank::new(0, &Scheme::InCore, 0, ZRange::all());
        g.construct(&s);
        let global = g.owned_leaf_count();
        let na = a.owned_leaf_count();
        let nb = b.owned_leaf_count();
        assert_eq!(na + nb, global, "owned leaves partition the mesh: {na}+{nb} vs {global}");
        // Each rank's total tree is bigger than what it owns (halo),
        // but much smaller than the global tree when the split matters.
        assert!(a.backend.leaf_count() >= na);
        assert!(b.backend.leaf_count() >= nb);
    }

    #[test]
    fn ranged_criterion_sheds_foreign_regions() {
        let s = sim();
        let mid = pmoctree_morton::anchor_end::<3>(&OctKey::root().child(3));
        let mut r = Rank::new(0, &Scheme::InCore, 0, ZRange { lo: 0, hi: mid });
        r.construct(&s);
        let before = r.backend.leaf_count();
        // Shrink the range: next adaptation coarsens the lost half.
        r.range = ZRange { lo: 0, hi: pmoctree_morton::anchor_end::<3>(&OctKey::root().child(1)) };
        s.time.set(s.cfg.t0);
        let _ = r.local_step(&s, 0);
        assert!(r.backend.leaf_count() < before, "lost region must coarsen away");
    }

    #[test]
    fn pm_rank_persists_per_step() {
        let s = sim();
        let mut r = Rank::new(0, &Scheme::pm_default(), 64 << 20, ZRange::all());
        r.construct(&s);
        let dt = r.local_step(&s, 0);
        assert!(dt.persist_ns > 0, "persist phase must cost time");
    }

    #[test]
    fn full_range_rank_step_is_the_single_rank_step() {
        // `RangedCriterion` is the identity on a full range, so a rank that
        // owns the whole domain must be indistinguishable from the
        // single-rank driver: same breakdown, same span journal.
        let s = sim();
        let traced_rank = || {
            let mut r = Rank::new(0, &Scheme::pm_default(), 64 << 20, ZRange::all());
            r.backend.set_tracer(pmoctree_nvbm::Tracer::enabled(0));
            r.construct(&s);
            r
        };
        let (mut ours, mut theirs) = (traced_rank(), traced_rank());
        for step in 0..3 {
            let via_rank = ours.local_step(&s, step);
            let direct = s.step(theirs.backend.as_mut(), step);
            assert_eq!(via_rank, direct, "step {step}");
            assert!(direct.total_ns() > 0 && direct.leaves > 0);
        }
        let journal = ours.backend.tracer().events();
        assert!(journal.iter().any(|e| e.name == "step::balance"));
        assert_eq!(journal, theirs.backend.tracer().events());
    }

    #[test]
    fn schemes_have_names() {
        assert_eq!(Scheme::pm_default().name(), "pm-octree");
        assert_eq!(Scheme::InCore.name(), "in-core");
        assert_eq!(Scheme::Etree.name(), "out-of-core");
    }
}
