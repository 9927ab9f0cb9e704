//! 2:1 balance by the family kernel against the definition. On all three
//! backends, over random unbalanced refine sets, `balance_subset` from
//! every seed a caller passes reaches the leaf set that splitting the
//! coarse side of every violation a per-leaf `containing_leaf` scan sees
//! reaches, and the batched check names the pair that per-leaf scan names.
//! The family kernel under both reports exactly the (source, leaf) pairs a
//! brute-force scan of each source's six face neighbors finds, asking each
//! parent's neighbors once.

use pm_octree::{PmConfig, PmOctree};
use pmoctree_amr::{balance_subset, check_balance, coarse_neighbors, OctreeBackend, PmBackend};
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

/// Run the kernel over `sources` against the tree's own resolver and check
/// it against the definition: the pairs are exactly those a per-source
/// `containing_leaf` scan of the six face neighbors finds, and the batch
/// holds, per distinct parent, its neighbor in each direction one of its
/// sources faces out of the family — once. Returns the number of pairs.
fn check_kernel(b: &mut dyn OctreeBackend, sources: &[OctKey]) -> usize {
    let mut asked: Vec<OctKey> = Vec::new();
    let mut got: Vec<(OctKey, OctKey)> = Vec::new();
    coarse_neighbors(
        |q| {
            asked = q.to_vec();
            b.containing_leaf_many(q)
        },
        sources,
        |k, leaf| got.push((k, leaf)),
    );
    let mut want: Vec<(OctKey, OctKey)> = Vec::new();
    for &k in sources {
        for n in k.face_neighbors() {
            want.extend(b.containing_leaf(n).filter(|l| l.level() + 1 < k.level()).map(|l| (k, l)));
        }
    }
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "{}: pairs of {} sources", b.name(), sources.len());
    let mut faced: Vec<(OctKey, usize, i8)> = Vec::new();
    for k in sources {
        let Some(p) = k.parent() else { continue };
        for axis in 0..3 {
            faced.push((p, axis, if k.sibling_index() >> axis & 1 == 1 { 1 } else { -1 }));
        }
    }
    faced.sort_unstable();
    faced.dedup();
    let mut expected: Vec<OctKey> =
        faced.into_iter().filter_map(|(p, axis, dir)| p.face_neighbor(axis, dir)).collect();
    expected.sort_unstable();
    asked.sort_unstable();
    assert_eq!(asked, expected, "{}: one query per parent and faced direction", b.name());
    got.len()
}

/// A family met again after a deeper one closes: `P`'s children 0 and 7
/// are leaves, child 3 is split and its children are sources too, and the
/// plants around `P` leave leaves two levels coarser on both sides.
#[test]
fn kernel_reopens_a_parent_after_a_deeper_family() {
    let p = OctKey::root().child(7).child(0);
    for which in 0..3 {
        let mut b = backend(which);
        grow(b.as_mut(), &[vec![7, 0, 3, 0], vec![0]]);
        let mut sources = vec![OctKey::root(), p.child(0)];
        sources.extend(p.child(3).children());
        sources.extend([p.child(3), p.child(7)]);
        sources.sort_unstable();
        assert!(check_kernel(b.as_mut(), &sources) > 0, "{}: the plant must violate 2:1", b.name());
    }
}

/// Sources out of Z-order would split a parent's entry; debug builds
/// refuse them.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "sources not Z-sorted")]
fn kernel_rejects_unsorted_sources() {
    let r = OctKey::root();
    coarse_neighbors(|q| vec![None; q.len()], &[r.child(1), r.child(0)], |_, _| {});
}

fn arb_paths() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..8, 1..5), 1..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random unbalanced trees, sources a random mix of leaves and split
    /// (interior) octants plus the root: a parent's run of children is
    /// interrupted by deeper families wherever a split child is kept.
    #[test]
    fn kernel_pairs_are_the_brute_force_pairs(
        paths in arb_paths(),
        mask in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        for which in 0..3 {
            let mut b = backend(which);
            let split = grow(b.as_mut(), &paths);
            let mut octants = leaves(b.as_mut());
            octants.extend(split);
            octants.sort_unstable();
            let mut sources: Vec<OctKey> =
                octants.into_iter().enumerate().filter(|(i, _)| mask[i % mask.len()]).map(|(_, k)| k).collect();
            sources.push(OctKey::root());
            sources.sort_unstable();
            sources.dedup();
            check_kernel(b.as_mut(), &sources);
        }
    }

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
