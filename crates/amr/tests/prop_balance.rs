//! 2:1 balance by the family kernel against the definition. On all three
//! backends, over random unbalanced refine sets, `balance_subset` from
//! every seed a caller passes reaches the leaf set that splitting the
//! coarse side of every violation a per-leaf `containing_leaf` scan sees
//! reaches, and the batched check names the pair that per-leaf scan names.

use pm_octree::{PmConfig, PmOctree};
use pmoctree_amr::{balance_subset, check_balance, OctreeBackend, PmBackend};
use pmoctree_baselines::{EtreeOctree, InCoreOctree};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{DeviceModel, NvbmArena};
use pmoctree_simfs::SimFs;
use proptest::prelude::*;

fn backend(which: usize) -> Box<dyn OctreeBackend> {
    match which {
        0 => Box::new(PmBackend::new(PmOctree::create(
            NvbmArena::new(64 << 20, DeviceModel::default()),
            PmConfig { dynamic_transform: false, c0_capacity_octants: 128, ..PmConfig::default() },
        ))),
        1 => Box::new(InCoreOctree::new()),
        _ => Box::new(EtreeOctree::create(SimFs::on_nvbm())),
    }
}

/// Split every octant on each path from the root down, with no regard for
/// 2:1. Returns the keys split, in order.
fn grow(b: &mut dyn OctreeBackend, paths: &[Vec<usize>]) -> Vec<OctKey> {
    let mut split = Vec::new();
    for path in paths {
        let mut k = OctKey::root();
        for &i in path {
            if b.is_leaf(k) == Some(true) && b.refine(k).is_ok() {
                split.push(k);
            }
            k = k.child(i);
        }
    }
    split
}

/// Every leaf in Z-order, by the per-leaf visitor.
fn leaves(b: &mut dyn OctreeBackend) -> Vec<OctKey> {
    let mut out = Vec::new();
    b.for_each_leaf(&mut |k, _| out.push(k));
    out.sort_unstable();
    out
}

/// Each leaf's face neighbors resolved one `containing_leaf` at a time:
/// the first leaf in Z-order that lies next to a leaf two or more levels
/// coarser, with the first such coarse leaf.
fn check_per_leaf(b: &mut dyn OctreeBackend) -> Option<(OctKey, OctKey)> {
    for k in leaves(b) {
        let coarse = k
            .face_neighbors()
            .into_iter()
            .filter_map(|n| b.containing_leaf(n))
            .filter(|leaf| leaf.level() + 1 < k.level())
            .min();
        if let Some(leaf) = coarse {
            return Some((k, leaf));
        }
    }
    None
}

/// The 2:1 closure by its definition: split the coarse side of every
/// violation the per-leaf scan sees with a plain `refine` until it sees
/// none. Every split is forced, so this is the unique closure.
fn fixed_point(b: &mut dyn OctreeBackend) {
    loop {
        let mut coarse: Vec<OctKey> = Vec::new();
        for k in leaves(b) {
            for n in k.face_neighbors() {
                coarse.extend(b.containing_leaf(n).filter(|leaf| leaf.level() + 1 < k.level()));
            }
        }
        if coarse.is_empty() {
            return;
        }
        coarse.sort_unstable();
        coarse.dedup();
        for leaf in coarse {
            assert!(b.refine(leaf).is_ok(), "{}: refine({leaf:?})", b.name());
        }
    }
}

fn arb_paths() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..8, 1..5), 1..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_balance_reaches_the_per_key_fixed_point(paths in arb_paths()) {
        for which in 0..3 {
            let mut reference = backend(which);
            grow(reference.as_mut(), &paths);
            fixed_point(reference.as_mut());
            let want = leaves(reference.as_mut());
            let name = reference.name();
            for seed in ["every leaf", "split children", "band"] {
                let mut b = backend(which);
                let split = grow(b.as_mut(), &paths);
                let raw = check_per_leaf(b.as_mut());
                prop_assert_eq!(check_balance(b.as_mut()), raw, "{}: check on the raw tree", name);
                let keys: Vec<OctKey> = match seed {
                    "every leaf" => leaves(b.as_mut()),
                    "split children" => split.iter().flat_map(|k| k.children()).collect(),
                    _ => {
                        // The band a driver would pass: every leaf off
                        // the top levels, unsorted and repeated.
                        let mut band: Vec<OctKey> =
                            leaves(b.as_mut()).into_iter().filter(|k| k.level() >= 2).rev().collect();
                        band.extend(band.clone().iter().step_by(3));
                        band
                    }
                };
                balance_subset(b.as_mut(), &keys);
                prop_assert_eq!(&leaves(b.as_mut()), &want, "{} {}", name, seed);
                prop_assert_eq!(check_per_leaf(b.as_mut()), None, "{} {}", name, seed);
                prop_assert_eq!(check_balance(b.as_mut()), None, "{} {}: batched check after", name, seed);
            }
        }
    }
}
