//! Dynamic layout transformation (§3.3).
//!
//! After merging completes, PM-octree asks: is some NVBM subtree about to
//! be hotter than what currently sits in DRAM? Candidates are subtrees at
//! level `L_sub` (Equation 1 — sized so one subtree roughly fits the C0
//! budget). Frequencies come from feature-directed sampling
//! ([`crate::sampling`]); when the hottest NVBM candidate beats the
//! coldest DRAM subtree by more than `T_transform`, the two swap places:
//! the cold subtree is merged out, the hot one is promoted (its NVBM
//! image stays behind as both the `V_{i-1}` copy and the diff shadow, so
//! promotion itself writes nothing to NVBM beyond one path copy).

use pmoctree_nvbm::POffset;

use crate::api::PmOctree;
use crate::c0::C0Tree;
use crate::c1::{self};
use crate::octant::{ChildPtr, OctAccess};
use crate::sampling;

impl PmOctree {
    /// Run one transformation check; swap at most one subtree per call
    /// (the paper swaps "the subtree having the maximum Ratio_access").
    /// Returns whether a swap happened.
    pub fn maybe_transform(&mut self) -> bool {
        self.transform_pass(1) > 0
    }

    /// One detection pass: scan + sample the NVBM candidates *once*, then
    /// promote up to `max_swaps` of the hottest (demoting cold DRAM
    /// residents when the budget requires it). Returns the number of
    /// swaps performed.
    pub fn transform_pass(&mut self, max_swaps: usize) -> usize {
        if self.features.is_empty() || max_swaps == 0 {
            return 0;
        }
        let _span = self.store.arena.span("transform");
        let prev_phase = self.store.arena.set_phase("transform");
        self.store.arena.failpoint("transform");
        let l = sampling::l_sub(self.depth(), self.cfg.c0_capacity_octants);
        // Candidate NVBM subtrees: *maximal volatile-free* subtrees at
        // level ≥ L_sub (a region already partly in DRAM cannot be
        // promoted wholesale; one shallower than L_sub would not fit the
        // C0 budget).
        let root = self.root_offset();
        let (_, candidates) = candidate_scan(&mut self.store, root, l);
        if candidates.is_empty() {
            self.store.arena.set_phase(prev_phase);
            return 0;
        }
        // Sample candidates, capping the per-subtree count at the paper's
        // min(N_sample, subtree size) with a size estimate from the
        // candidate's depth budget.
        let depth = self.depth();
        let mut scored: Vec<(POffset, f64)> = Vec::with_capacity(candidates.len());
        // Split borrows: move rng and features out during sampling.
        let mut rng = self.rng.clone();
        let features = std::mem::take(&mut self.features);
        for (p, lvl) in candidates {
            let est_size = 8usize.saturating_pow(depth.saturating_sub(lvl).min(6) as u32).max(1);
            let n = self.cfg.n_sample.min(est_size);
            let f = sampling::sample_nvbm_freq(&mut self.store, p, n, &features, &mut rng);
            if f > 0.0 {
                scored.push((p, f));
            }
        }
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        // The sampling decision: how many candidates scanned, how many
        // scored hot enough to consider.
        self.store.arena.tracer.counter_add("sampling.decisions", 1);
        self.store.arena.instant("sampling::decision", Some(scored.len() as u64));
        // Sample DRAM trees once; coldest-first is the demotion order.
        let n = self.cfg.n_sample;
        let mut dram: Vec<(u32, f64)> = self
            .forest
            .ids()
            .into_iter()
            .map(|id| (id, sampling::sample_c0_freq(self.forest.get(id), n, &features, &mut rng)))
            .collect();
        dram.sort_by(|a, b| a.1.total_cmp(&b.1));
        self.features = features;
        self.rng = rng;

        let mut swaps = 0usize;
        // Victims are consumed coldest-first as demotions happen; the
        // coldest *remaining* resident is also the `Ratio_access`
        // denominator for every promotion attempt, so it is peeked (not
        // consumed) until an actual demotion commits.
        let mut victims = dram.into_iter().peekable();
        'promote: for (hot_off, hot_f) in scored {
            // A candidate that bails below must not burn the budget;
            // iterate the whole scored list until the budget is truly
            // spent on performed swaps.
            if swaps == max_swaps {
                break;
            }
            // Subtrees containing DRAM regions cannot be promoted.
            let Some(octants) = c1::collect_subtree(&mut self.store, hot_off) else {
                continue;
            };
            if octants.is_empty() {
                continue;
            }
            // Paper step 4: `Ratio_access` must clear `T_transform`
            // against the coldest DRAM resident even when C0 has room —
            // otherwise any lukewarm subtree (f > 0) would be copied into
            // DRAM the moment the budget allows, churning the C0 forest
            // for no locality gain. With an empty DRAM there is nothing
            // to beat and promotion is free.
            if let Some(&(_, coldest_f)) = victims.peek() {
                let ratio = if coldest_f > 0.0 { hot_f / coldest_f } else { f64::INFINITY };
                if ratio <= self.cfg.t_transform {
                    continue;
                }
            }
            let cap = (self.cfg.c0_capacity_octants as f64 * self.cfg.threshold_dram) as usize;
            // Demote cold residents until the hot subtree fits, but only
            // while Ratio_access clears T_transform (paper step 4).
            while self.forest.total_octants + octants.len() > cap {
                let Some(&(vid, vf)) = victims.peek() else {
                    continue 'promote;
                };
                let ratio = if vf > 0.0 { hot_f / vf } else { f64::INFINITY };
                if ratio <= self.cfg.t_transform {
                    // Too warm to demote: leave it resident (and still
                    // peekable as later candidates' gate denominator).
                    continue 'promote;
                }
                victims.next();
                // The victim may already have been demoted by pressure.
                if self.forest.ids().contains(&vid) && self.evict_c0(vid).is_err() {
                    // Demotion needs NVBM headroom for the merged image;
                    // without it no further swap can succeed either.
                    break 'promote;
                }
            }
            let subtree_key = octants[0].0;
            let tree = C0Tree::from_octants(subtree_key, &octants);
            let id = self.register_c0(tree, hot_off);
            let (root, epoch) = (self.root_offset(), self.epoch());
            match c1::replace_slot(
                &mut self.store,
                root,
                subtree_key,
                ChildPtr::Volatile(id),
                epoch,
            ) {
                Ok(new_root) => {
                    self.set_root_offset(new_root);
                    self.events.transforms += 1;
                    swaps += 1;
                }
                Err(_) => {
                    // Path COW ran out of NVBM: unwind the registration
                    // and stop — the transformation is strictly optional.
                    self.forest.remove(id);
                    self.set_shadow(id, pmoctree_nvbm::POffset::NULL);
                    break 'promote;
                }
            }
        }
        self.store.arena.tracer.counter_add("transform.swaps", swaps as u64);
        self.store.arena.set_phase(prev_phase);
        swaps
    }

    pub(crate) fn root_offset(&self) -> POffset {
        self.current_root
    }

    pub(crate) fn set_root_offset(&mut self, p: POffset) {
        self.current_root = p;
    }
}

/// Bottom-up scan for promotion candidates: returns whether the subtree
/// at `off` is volatile-free, plus the list of maximal volatile-free
/// subtree roots at level ≥ `l_sub` (with their levels). A pure subtree
/// at level ≥ `l_sub` supersedes any candidates inside it.
fn candidate_scan(
    store: &mut crate::octant::PmStore,
    off: POffset,
    l_sub: u8,
) -> (bool, Vec<(POffset, u8)>) {
    // Level and child links share the navigation line: one read.
    let nav = store.nav_line(off);
    let mut pure = true;
    let mut collected: Vec<(POffset, u8)> = Vec::new();
    for c in nav.children {
        match c {
            ChildPtr::Null => {}
            ChildPtr::Volatile(_) => pure = false,
            ChildPtr::Nvbm(p) => {
                let (cp, mut cands) = candidate_scan(store, p, l_sub);
                pure &= cp;
                collected.append(&mut cands);
            }
        }
    }
    if pure && nav.level >= l_sub {
        // Maximal: this whole subtree is one candidate.
        (true, vec![(off, nav.level)])
    } else {
        (pure, collected)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::PmConfig;
    use crate::octant::CellData;
    use pmoctree_morton::OctKey;
    use pmoctree_nvbm::{DeviceModel, NvbmArena};

    fn arena() -> NvbmArena {
        NvbmArena::new(16 << 20, DeviceModel::default())
    }

    /// Build a two-level tree whose child-0 region is "hot" (phi ≈ 0) and
    /// the rest cold, but place NOTHING in DRAM: the transformation should
    /// promote the hot subtree.
    #[test]
    fn transformation_promotes_hot_subtree() {
        let mut cfg = PmConfig { dynamic_transform: true, ..PmConfig::default() };
        cfg.c0_capacity_octants = 1 << 12;
        let mut t = PmOctree::create(arena(), cfg);
        t.refine(OctKey::root()).unwrap();
        for i in 0..8 {
            let k = OctKey::root().child(i);
            let phi = if i == 0 { 0.0 } else { 10.0 };
            t.set_data(k, CellData { phi, ..Default::default() }).unwrap();
        }
        t.add_feature(Box::new(|_k, d| d.phi.abs() < 0.5));
        // Depth 1, capacity huge → L_sub clamps to 1: children are candidates.
        let swapped = t.maybe_transform();
        assert!(swapped, "hot subtree should be promoted");
        assert!(t.c0_octants() >= 1);
        assert_eq!(t.events.transforms, 1);
        // The hot region now updates at DRAM cost.
        let nvbm_writes_before = t.store.arena.stats.nvbm.write_lines;
        t.set_data(OctKey::root().child(0), CellData { phi: 0.1, ..Default::default() }).unwrap();
        assert_eq!(
            t.store.arena.stats.nvbm.write_lines, nvbm_writes_before,
            "write to promoted subtree must not touch NVBM"
        );
    }

    /// Regression for the missing ratio gate: a candidate that fits the
    /// C0 budget *without* demotions must still beat the coldest DRAM
    /// resident by more than `T_transform` (§3.3 step 4), not be promoted
    /// merely because its sampled frequency is non-zero.
    #[test]
    fn fitting_promotion_still_requires_ratio_gate() {
        let mut cfg = PmConfig { dynamic_transform: true, seed_c0: false, ..PmConfig::default() };
        cfg.c0_capacity_octants = 1 << 12;
        let mut t = PmOctree::create(arena(), cfg);
        t.refine(OctKey::root()).unwrap();
        for i in 0..8 {
            let phi = if i <= 1 { 0.0 } else { 10.0 };
            t.set_data(OctKey::root().child(i), CellData { phi, ..Default::default() }).unwrap();
        }
        t.add_feature(Box::new(|_k, d| d.phi.abs() < 0.5));
        // First pass: DRAM is empty, so the hottest candidate (child 0,
        // first in scan order among the f = 1.0 ties) promotes freely.
        assert!(t.maybe_transform());
        assert_eq!(t.events.transforms, 1);
        // Child 1 is exactly as hot as the resident it would have to beat
        // (ratio 1.0 ≤ T_transform = 1.5). It fits the budget without any
        // demotion — the buggy path — and must still be rejected.
        assert!(!t.maybe_transform(), "equally-hot candidate must not clear the ratio gate");
        assert_eq!(t.events.transforms, 1);
    }

    /// Regression for `take(max_swaps)`: a hotter candidate that bails
    /// (here: too big to ever fit C0) must not consume the swap budget;
    /// the next viable candidate in score order still gets its turn.
    #[test]
    fn bailing_candidate_does_not_consume_swap_budget() {
        let mut cfg = PmConfig { dynamic_transform: true, seed_c0: false, ..PmConfig::default() };
        // cap = ⌊8 × 0.9⌋ = 7 octants: child 0's refined subtree (9
        // octants) can never fit, child 1 (one octant) always can.
        cfg.c0_capacity_octants = 8;
        let mut t = PmOctree::create(arena(), cfg);
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(0)).unwrap();
        for i in 0..8 {
            let k = OctKey::root().child(0).child(i);
            t.set_data(k, CellData { phi: 0.0, ..Default::default() }).unwrap();
        }
        for i in 1..8 {
            let phi = if i == 1 { 0.0 } else { 10.0 };
            t.set_data(OctKey::root().child(i), CellData { phi, ..Default::default() }).unwrap();
        }
        t.add_feature(Box::new(|_k, d| d.phi.abs() < 0.5));
        assert!(
            t.maybe_transform(),
            "the fitting candidate must be promoted even though a hotter one bailed first"
        );
        assert_eq!(t.events.transforms, 1);
        assert!(t.c0_octants() >= 1);
    }

    #[test]
    fn no_features_no_transform() {
        let mut t = PmOctree::create(arena(), PmConfig::default());
        t.refine(OctKey::root()).unwrap();
        assert!(!t.maybe_transform());
    }

    #[test]
    fn cold_subtrees_not_promoted() {
        let mut t =
            PmOctree::create(arena(), PmConfig { dynamic_transform: true, ..PmConfig::default() });
        t.refine(OctKey::root()).unwrap();
        t.update_leaves(|_, d| Some(CellData { phi: 100.0, ..*d }));
        t.add_feature(Box::new(|_k, d| d.phi.abs() < 0.5));
        assert!(!t.maybe_transform(), "nothing is hot; no swap");
        assert_eq!(t.events.transforms, 0);
    }

    /// The §3.3 motivating claim: a locality-aware layout serves far
    /// fewer NVBM writes for a refinement pass over the hot region.
    #[test]
    fn transformation_reduces_nvbm_writes_for_hot_refinement() {
        let run = |transform: bool| -> u64 {
            let mut cfg =
                PmConfig { dynamic_transform: false, seed_c0: false, ..PmConfig::default() };
            cfg.c0_capacity_octants = 1 << 14;
            let mut t = PmOctree::create(arena(), cfg);
            t.refine(OctKey::root()).unwrap();
            // Mark child 0 hot.
            t.set_data(OctKey::root().child(0), CellData { phi: 0.0, ..Default::default() })
                .unwrap();
            for i in 1..8 {
                t.set_data(OctKey::root().child(i), CellData { phi: 9.0, ..Default::default() })
                    .unwrap();
            }
            t.add_feature(Box::new(|_k, d| d.phi.abs() < 0.5));
            if transform {
                assert!(t.maybe_transform());
            }
            let before = t.store.arena.stats.nvbm.write_lines;
            // Refinement burst inside the hot region.
            t.refine(OctKey::root().child(0)).unwrap();
            for i in 0..8 {
                t.refine(OctKey::root().child(0).child(i)).unwrap();
            }
            t.store.arena.stats.nvbm.write_lines - before
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < without / 2,
            "transformed layout should serve far fewer NVBM writes: {with} vs {without}"
        );
    }
}
