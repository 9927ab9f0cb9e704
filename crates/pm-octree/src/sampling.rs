//! Feature-directed sampling (§3.3).
//!
//! History of octant accesses cannot predict the next step of an AMR
//! simulation (the mesh moves), so PM-octree instead *pre-executes* the
//! application's own feature functions — refinement predicates, solver
//! region-of-interest tests — on a random sample of octants in each
//! candidate subtree. The fraction of "interesting" samples estimates the
//! subtree's access frequency for the upcoming step.

use pmoctree_morton::OctKey;
use pmoctree_nvbm::POffset;
use rand::Rng;

use crate::c0::C0Tree;
use crate::octant::{CellData, ChildPtr, OctAccess, PmStore, FANOUT};

/// An application feature function: returns `true` when the octant's
/// domain is of interest (e.g. the refinement condition holds there).
pub type FeatureFn = Box<dyn Fn(&OctKey, &CellData) -> bool + Send>;

/// Equation 1: the level of candidate subtrees,
/// `L_sub = Depth − ⌊log_Fanout(Size_DRAM)⌋`, clamped to `[1, Depth]`
/// (level 0 — the root — is never a candidate: the root stays in NVBM).
pub fn l_sub(depth: u8, c0_capacity_octants: usize) -> u8 {
    let log_fanout = if c0_capacity_octants <= 1 {
        0
    } else {
        // ⌊log_8(capacity)⌋ = ⌊log2(capacity) / 3⌋
        (usize::BITS - 1 - c0_capacity_octants.leading_zeros()) / FANOUT.trailing_zeros()
    };
    (depth as i32 - log_fanout as i32).clamp(1, depth.max(1) as i32) as u8
}

/// Estimate the access frequency of the NVBM subtree rooted at `off` by
/// `n` random descents, evaluating every feature function on each sampled
/// octant. Returns the fraction of feature hits in `[0, 1]`.
///
/// Random descents (rather than uniform octant sampling) bias slightly
/// towards shallow octants; that is acceptable because feature functions
/// are spatial predicates — a hit anywhere on a root-to-leaf path means
/// the path's subdomain is interesting.
pub fn sample_nvbm_freq(
    store: &mut PmStore,
    off: POffset,
    n: usize,
    features: &[FeatureFn],
    rng: &mut impl Rng,
) -> f64 {
    if features.is_empty() || n == 0 {
        return 0.0;
    }
    // A single-octant subtree needs exactly one evaluation, not n walks.
    let root_nav = store.nav_line(off);
    let root_is_leaf = root_nav.children.iter().all(|c| !matches!(c, ChildPtr::Nvbm(_)));
    let walks = if root_is_leaf { 1 } else { n };
    let mut hits = 0usize;
    let mut evals = 0usize;
    for _ in 0..walks {
        // Random walk from the subtree root to some leaf: one navigation
        // line per octant stood on, the last one also giving the key.
        let mut cur = off;
        let mut nav = root_nav;
        loop {
            let start = rng.gen_range(0..FANOUT);
            let next = (0..FANOUT).find_map(|d| match nav.children[(start + d) % FANOUT] {
                ChildPtr::Nvbm(c) => Some(c),
                _ => None,
            });
            let Some(c) = next else { break };
            cur = c;
            nav = store.nav_line(cur);
        }
        let key = OctKey::from_raw(nav.code, nav.level);
        let data = store.data(cur);
        for f in features {
            evals += 1;
            if f(&key, &data) {
                hits += 1;
            }
        }
    }
    store.arena.tracer.counter_add("sampling.nvbm_evals", evals as u64);
    store.arena.tracer.counter_add("sampling.nvbm_hits", hits as u64);
    hits as f64 / evals.max(1) as f64
}

/// Estimate the access frequency of a DRAM (C0) subtree the same way.
pub fn sample_c0_freq(tree: &C0Tree, n: usize, features: &[FeatureFn], rng: &mut impl Rng) -> f64 {
    if features.is_empty() || n == 0 {
        return 0.0;
    }
    // C0 trees are small; collect leaves once and sample uniformly.
    let octants = tree.collect();
    let leaves: Vec<&(OctKey, CellData, bool)> = octants.iter().filter(|o| o.2).collect();
    if leaves.is_empty() {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut evals = 0usize;
    for _ in 0..n.min(leaves.len().max(1)) {
        let pick = leaves[rng.gen_range(0..leaves.len())];
        for f in features {
            evals += 1;
            if f(&pick.0, &pick.1) {
                hits += 1;
            }
        }
    }
    hits as f64 / evals.max(1) as f64
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::c1::merge_subtree;
    use pmoctree_nvbm::{DeviceModel, NvbmArena};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn l_sub_matches_equation() {
        // Depth 10 tree, DRAM holds 8^3 = 512 octants → L_sub = 10 - 3 = 7.
        assert_eq!(l_sub(10, 512), 7);
        // Capacity not a power of 8 rounds the log down.
        assert_eq!(l_sub(10, 511), 8);
        assert_eq!(l_sub(10, 4096), 6);
        // Clamped: tiny trees still give level >= 1.
        assert_eq!(l_sub(2, 1 << 30), 1);
        assert_eq!(l_sub(0, 8), 1);
    }

    #[test]
    fn nvbm_sampling_separates_hot_and_cold() {
        let mut s = PmStore::new(NvbmArena::new(4 << 20, DeviceModel::default()));
        let hot_key = OctKey::root().child(0);
        let cold_key = OctKey::root().child(7);
        let mk = |k: OctKey, phi: f64| -> Vec<(OctKey, CellData, bool)> {
            std::iter::once((k, CellData { phi, ..Default::default() }, false))
                .chain((0..8).map(|i| (k.child(i), CellData { phi, ..Default::default() }, true)))
                .collect()
        };
        let hot = merge_subtree(&mut s, &mk(hot_key, 0.01), None, 1).unwrap();
        let cold = merge_subtree(&mut s, &mk(cold_key, 5.0), None, 1).unwrap();
        let features: Vec<FeatureFn> = vec![Box::new(|_k, d: &CellData| d.phi.abs() < 0.1)];
        let mut rng = StdRng::seed_from_u64(7);
        let hot_f = sample_nvbm_freq(&mut s, hot, 50, &features, &mut rng);
        let cold_f = sample_nvbm_freq(&mut s, cold, 50, &features, &mut rng);
        assert!(hot_f > 0.9, "hot subtree frequency {hot_f}");
        assert!(cold_f < 0.1, "cold subtree frequency {cold_f}");
    }

    #[test]
    fn c0_sampling_uses_features() {
        let tree =
            C0Tree::new(OctKey::root().child(3), CellData { vof: 0.9, ..Default::default() });
        let features: Vec<FeatureFn> = vec![Box::new(|_k, d: &CellData| d.vof > 0.5)];
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_c0_freq(&tree, 10, &features, &mut rng), 1.0);
        let features2: Vec<FeatureFn> = vec![Box::new(|_k, d: &CellData| d.vof > 0.99)];
        assert_eq!(sample_c0_freq(&tree, 10, &features2, &mut rng), 0.0);
    }

    #[test]
    fn empty_features_yield_zero() {
        let tree = C0Tree::new(OctKey::root(), CellData::default());
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_c0_freq(&tree, 10, &[], &mut rng), 0.0);
    }
}
