//! Feature-directed sampling (§3.3).
//!
//! History of octant accesses cannot predict the next step of an AMR
//! simulation (the mesh moves), so PM-octree instead *pre-executes* the
//! application's own feature functions — refinement predicates, solver
//! region-of-interest tests — on a random sample of octants in each
//! candidate subtree. The fraction of "interesting" samples estimates the
//! subtree's access frequency for the upcoming step.

use std::collections::HashMap;

use pmoctree_morton::OctKey;
use pmoctree_nvbm::POffset;
use rand::Rng;

use crate::c0::{C0Tree, Dram};
use crate::octant::{CellData, ChildPtr, NavLine, PmStore, FANOUT};

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
///
/// The descents keep the navigation lines they read in `walked` (cleared
/// first, so one map serves every candidate): the `n` walks read each line
/// of the subtree at most once, and draw and decide as if they re-read it.
pub fn sample_nvbm_freq(
    store: &mut PmStore,
    off: POffset,
    n: usize,
    features: &[FeatureFn],
    rng: &mut impl Rng,
    walked: &mut HashMap<POffset, NavLine>,
) -> f64 {
    if features.is_empty() || n == 0 {
        return 0.0;
    }
    walked.clear();
    // A single-octant subtree needs exactly one evaluation, not n walks.
    let root_nav = store.nav_line(off);
    let root_is_leaf = root_nav.children.iter().all(|c| !matches!(c, ChildPtr::Node(_)));
    let walks = if root_is_leaf { 1 } else { n };
    let mut hits = 0usize;
    let mut evals = 0usize;
    for _ in 0..walks {
        // Random walk from the subtree root to some leaf: one navigation
        // line per octant stood on, the last one also giving the key and,
        // at a leaf, the payload.
        let mut cur = off;
        let mut nav = root_nav;
        loop {
            let start = rng.gen_range(0..FANOUT);
            let next = (0..FANOUT).find_map(|d| match nav.children[(start + d) % FANOUT] {
                ChildPtr::Node(c) => Some(c),
                _ => None,
            });
            let Some(c) = next else { break };
            cur = c;
            nav = *walked.entry(cur).or_insert_with(|| store.nav_line(cur));
        }
        let key = OctKey::from_raw(nav.code, nav.level);
        let data = store.payload(cur, &nav);
        for f in features {
            evals += 1;
            if f(&key, &data) {
                hits += 1;
            }
        }
    }
    hits as f64 / evals.max(1) as f64
}

/// Estimate the access frequency of a DRAM (C0) subtree the same way,
/// from `min(n, leaves)` leaves drawn uniformly by pre-order number: one
/// line read per draw.
pub fn sample_c0_freq(
    tree: &mut C0Tree,
    n: usize,
    features: &[FeatureFn],
    rng: &mut impl Rng,
    dram: &mut impl Dram,
) -> f64 {
    if features.is_empty() || n == 0 {
        return 0.0;
    }
    let leaves = tree.leaf_count();
    let ranks: Vec<usize> = (0..n.min(leaves)).map(|_| rng.gen_range(0..leaves)).collect();
    let mut hits = 0usize;
    let mut evals = 0usize;
    for (key, data) in tree.leaves_at(&ranks, dram) {
        for f in features {
            evals += 1;
            if f(&key, &data) {
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
    use crate::walk::Op;
    use pmoctree_nvbm::{DeviceModel, NvbmArena};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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
        let mut mk = |k: OctKey, phi: f64| {
            let mut t = C0Tree::new(k, CellData { phi, ..Default::default() }, &mut ());
            t.apply(Op::Refine(k), &mut ()).unwrap();
            t.merge(&mut s, None, 1).unwrap().0
        };
        let (hot, cold) = (mk(hot_key, 0.01), mk(cold_key, 5.0));
        let features: Vec<FeatureFn> = vec![Box::new(|_k, d: &CellData| d.phi.abs() < 0.1)];
        let (mut rng, mut walked) = (StdRng::seed_from_u64(7), HashMap::new());
        let hot_f = sample_nvbm_freq(&mut s, hot, 50, &features, &mut rng, &mut walked);
        let cold_f = sample_nvbm_freq(&mut s, cold, 50, &features, &mut rng, &mut walked);
        assert!(hot_f > 0.9, "hot subtree frequency {hot_f}");
        assert!(cold_f < 0.1, "cold subtree frequency {cold_f}");
    }

    /// [`sample_nvbm_freq`] without the memo, every walk re-reading its
    /// lines: the estimate, and the offsets whose lines the walks read
    /// below the root.
    fn sample_unmemoised(
        store: &mut PmStore,
        off: POffset,
        n: usize,
        features: &[FeatureFn],
        rng: &mut impl Rng,
    ) -> (f64, std::collections::BTreeSet<POffset>) {
        let mut walked = std::collections::BTreeSet::new();
        let root_nav = store.nav_line(off);
        let root_is_leaf = root_nav.children.iter().all(|c| !matches!(c, ChildPtr::Node(_)));
        let (mut hits, mut evals) = (0usize, 0usize);
        for _ in 0..if root_is_leaf { 1 } else { n } {
            let (mut cur, mut nav) = (off, root_nav);
            loop {
                let start = rng.gen_range(0..FANOUT);
                let next = (0..FANOUT).find_map(|d| match nav.children[(start + d) % FANOUT] {
                    ChildPtr::Node(c) => Some(c),
                    _ => None,
                });
                let Some(c) = next else { break };
                cur = c;
                nav = store.nav_line(cur);
                walked.insert(cur);
            }
            let key = OctKey::from_raw(nav.code, nav.level);
            let data = store.payload(cur, &nav);
            for f in features {
                evals += 1;
                hits += usize::from(f(&key, &data));
            }
        }
        (hits as f64 / evals.max(1) as f64, walked)
    }

    #[test]
    fn nvbm_sampling_reads_each_walked_line_once() {
        let mut s = PmStore::new(NvbmArena::new(4 << 20, DeviceModel::default()));
        // Two 25-octant subtrees (root, 8 children, 2 of them refined).
        let mut mk = |k: OctKey| {
            let mut t = C0Tree::new(k, CellData::default(), &mut ());
            for c in [k, k.child(2), k.child(5)] {
                t.apply(Op::Refine(c), &mut ()).unwrap();
            }
            t.sweep(&mut (), |k, d| Some(CellData { phi: (k.raw() % 7) as f64, ..*d }));
            t.merge(&mut s, None, 1).unwrap().0
        };
        let subtrees = [mk(OctKey::root().child(1)), mk(OctKey::root().child(6))];
        let features: Vec<FeatureFn> = vec![
            Box::new(|_k, d: &CellData| d.phi < 3.0),
            Box::new(|k: &OctKey, _d| k.sibling_index().is_multiple_of(3)),
        ];
        let reads = |s: &PmStore| s.arena.stats.nvbm.read_lines;
        // One map for every candidate, as a transform pass keeps it.
        let mut memo = HashMap::new();
        for (i, &sub) in subtrees.iter().enumerate() {
            for n in [1, 5, 40, 2000] {
                let seed = 100 * i as u64 + n as u64;
                let (mut rng, mut twin) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let (want, walked) = sample_unmemoised(&mut s, sub, n, &features, &mut twin);
                let before = reads(&s);
                let got = sample_nvbm_freq(&mut s, sub, n, &features, &mut rng, &mut memo);
                let lines = reads(&s) - before;
                // The same draws, so the same estimate and the same rng.
                assert_eq!(got, want, "subtree {i}, n = {n}");
                assert_eq!(rng.next_u64(), twin.next_u64(), "subtree {i}, n = {n}");
                // The root, then each line the walks stood on, once.
                assert_eq!(lines, 1 + walked.len() as u64, "subtree {i}, n = {n}");
                if n == 2000 {
                    assert_eq!(lines, 25, "n ≫ 25 walks every line of the subtree");
                }
            }
        }
    }

    #[test]
    fn c0_sampling_uses_features() {
        let mut a = NvbmArena::new(1 << 16, DeviceModel::default());
        let d = CellData { vof: 0.9, ..Default::default() };
        let mut tree = C0Tree::new(OctKey::root().child(3), d, &mut a);
        let features: Vec<FeatureFn> = vec![Box::new(|_k, d: &CellData| d.vof > 0.5)];
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_c0_freq(&mut tree, 10, &features, &mut rng, &mut a), 1.0);
        let features2: Vec<FeatureFn> = vec![Box::new(|_k, d: &CellData| d.vof > 0.99)];
        assert_eq!(sample_c0_freq(&mut tree, 10, &features2, &mut rng, &mut a), 0.0);
    }

    #[test]
    fn c0_sampling_reads_a_line_per_draw() {
        let mut a = NvbmArena::new(1 << 16, DeviceModel::default());
        let mut tree = C0Tree::new(OctKey::root(), CellData::default(), &mut a);
        tree.apply(Op::Refine(OctKey::root()), &mut a).unwrap();
        let hot = Op::SetData(OctKey::root().child(6), CellData { vof: 1.0, ..Default::default() });
        tree.apply(hot, &mut a).unwrap();
        let features: Vec<FeatureFn> = vec![Box::new(|_k, d: &CellData| d.vof > 0.5)];
        // The draws, the pre-order leaf numbering and so the estimate are
        // those of drawing from the whole leaf list.
        let (mut rng, mut twin) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        let hits = (0..5).filter(|_| twin.gen_range(0..8usize) == 6).count();
        let before = a.stats.dram.read_lines;
        let f = sample_c0_freq(&mut tree, 5, &features, &mut rng, &mut a);
        assert_eq!(f, hits as f64 / 5.0);
        assert_eq!(a.stats.dram.read_lines - before, 5);
        // At most one draw per leaf.
        let before = a.stats.dram.read_lines;
        sample_c0_freq(&mut tree, 50, &features, &mut rng, &mut a);
        assert_eq!(a.stats.dram.read_lines - before, 8);
    }

    #[test]
    fn empty_features_yield_zero() {
        let mut a = NvbmArena::new(1 << 16, DeviceModel::default());
        let mut tree = C0Tree::new(OctKey::root(), CellData::default(), &mut a);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_c0_freq(&mut tree, 10, &[], &mut rng, &mut a), 0.0);
    }
}
