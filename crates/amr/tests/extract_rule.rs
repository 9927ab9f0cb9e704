//! `extract`'s anchored/dangling classification against its definition:
//! a vertex is anchored iff every leaf whose closed box contains it has it
//! as a corner — checked by brute force over all leaves, on random
//! unbalanced trees of both the in-core and the PM backend, together with
//! the numbering: each cell's vertex `j` is its leaf's corner `j`, and
//! vertex ids first appear in increasing (leaf, corner) order. And what
//! the classification costs: one sweep of the DRAM leaf index, no NVBM
//! line; and the counts and corner positions of small in-core meshes.

use pm_octree::{PmConfig, PmOctree};
use pmoctree_amr::{construct_uniform, extract, Mesh, OctreeBackend, PmBackend};
use pmoctree_baselines::InCoreOctree;
use pmoctree_morton::{LeafIndex, OctKey};
use pmoctree_nvbm::{DeviceModel, NvbmArena};
use proptest::prelude::*;

const MAXL: u8 = OctKey::MAX_LEVEL;

fn pm_backend() -> PmBackend {
    PmBackend::new(PmOctree::create(
        NvbmArena::new(16 << 20, DeviceModel::default()),
        PmConfig { dynamic_transform: false, c0_capacity_octants: 64, ..PmConfig::default() },
    ))
}

fn sorted_leaves(b: &mut dyn OctreeBackend) -> Vec<OctKey> {
    let mut out = Vec::new();
    b.for_each_leaf(&mut |k, _| out.push(k));
    out.sort_by(|a, b| a.zcmp(b));
    out
}

/// Refine, per pick, the leaf it names (modulo the leaf count) — no
/// balance, so neighbours can differ by many levels. A pick of `None`
/// drives one leaf's child-0 chain down to `MAX_LEVEL`.
fn grow(b: &mut dyn OctreeBackend, picks: &[Option<usize>]) {
    for pick in picks {
        let leaves = sorted_leaves(b);
        match *pick {
            Some(i) => {
                let k = leaves[i % leaves.len()];
                if k.level() < 6 {
                    b.refine(k).unwrap();
                }
            }
            None => {
                let mut k = leaves[leaves.len() / 2];
                while k.level() < MAXL {
                    b.refine(k).unwrap();
                    k = k.child(0);
                }
            }
        }
    }
}

/// A leaf's closed box on the finest grid: `(lo, hi)` per axis.
fn bounds(k: &OctKey) -> [(u64, u64); 3] {
    let c = k.coords();
    let span = 1u64 << (MAXL - k.level());
    [0, 1, 2].map(|a| (c[a] * span, (c[a] + 1) * span))
}

/// The definition, by brute force: for every vertex, every leaf whose
/// closed box contains it must have it as a corner.
fn anchored_by_definition(m: &Mesh) -> Vec<bool> {
    let side = (1u64 << MAXL) as f64;
    let boxes: Vec<_> = m.keys.iter().map(bounds).collect();
    m.vertices
        .iter()
        .map(|v| {
            let v = v.map(|x| (x * side) as u64);
            boxes.iter().all(|b| {
                let inside = (0..3).all(|a| b[a].0 <= v[a] && v[a] <= b[a].1);
                let corner = (0..3).all(|a| v[a] == b[a].0 || v[a] == b[a].1);
                !inside || corner
            })
        })
        .collect()
}

/// Corner `j` of a leaf on the finest grid: bit `a` of `j` picks the
/// low or high end of axis `a`.
fn corner(k: &OctKey, j: usize) -> [u64; 3] {
    let b = bounds(k);
    [0, 1, 2].map(|a| if (j >> a) & 1 == 0 { b[a].0 } else { b[a].1 })
}

fn check(b: &mut dyn OctreeBackend) -> Mesh {
    let m = extract(b);
    assert_eq!(m.keys, sorted_leaves(b), "{}: one cell per leaf, in Z-order", b.name());
    assert_eq!(m.anchored, anchored_by_definition(&m), "{}", b.name());
    let side = (1u64 << MAXL) as f64;
    let mut next = 0u32;
    for (c, cell) in m.cells.iter().enumerate() {
        for (j, &v) in cell.iter().enumerate() {
            let at = m.vertices[v as usize].map(|x| x * side);
            assert_eq!(
                at,
                corner(&m.keys[c], j).map(|x| x as f64),
                "{}: cell {c} corner {j}",
                b.name()
            );
            // First-seen numbering: a vertex's id is the number of
            // distinct vertices met before it in (leaf, corner) order.
            assert!(v <= next, "{}: vertex {v} first appears after {next}", b.name());
            next = next.max(v + 1);
        }
    }
    assert_eq!(next as usize, m.vertex_count(), "{}: every vertex is some cell's corner", b.name());
    for far in [[0.0; 3], [1.0; 3]] {
        assert!(m.vertices.contains(&far), "{}: the domain corner {far:?} is a vertex", b.name());
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn anchored_iff_a_corner_of_every_incident_leaf(
        picks in prop::collection::vec(
            prop_oneof![19 => (0usize..4096).prop_map(Some), 1 => Just(None)],
            0..40,
        ),
    ) {
        let mut ic = InCoreOctree::new();
        let mut pm = pm_backend();
        grow(&mut ic, &picks);
        grow(&mut pm, &picks);
        let (mi, mp) = (check(&mut ic), check(&mut pm));
        prop_assert_eq!((mi.cells, mi.keys, mi.anchored), (mp.cells, mp.keys, mp.anchored));
        prop_assert_eq!(mi.vertices, mp.vertices);
    }
}

/// The `None` pick reaches `MAX_LEVEL`, where a corner's coordinate is
/// one finest-grid step from its neighbour's: the packed key still tells
/// them apart.
#[test]
fn a_max_level_chain_meshes_by_definition() {
    let mut b = InCoreOctree::new();
    grow(&mut b, &[Some(0), None]);
    assert!(sorted_leaves(&mut b).iter().any(|k| k.level() == MAXL));
    let m = check(&mut b);
    assert_eq!(m.cell_count(), 8 + 7 * (MAXL as usize - 1), "one refine a level below the root");
}

/// `extract` reads one sweep of the (warm) DRAM leaf index — the sorted
/// key list — and nothing else: no NVBM line, no other DRAM line.
#[test]
fn extract_reads_one_index_sweep_and_no_nvbm_line() {
    let mut b = pm_backend();
    grow(&mut b, &[Some(0), Some(3), Some(9), None, Some(17), Some(40), Some(2)]);
    let keys = b.leaf_keys_sorted(); // warm the index
    let mut index = LeafIndex::new();
    index.rebuild(keys.iter().map(|&k| (k, 0)));
    let before = b.mem_stats();
    let m = extract(&mut b);
    let after = b.mem_stats();
    assert_eq!(after.dram.read_lines - before.dram.read_lines, index.sweep_lines());
    assert_eq!(after.nvbm.read_lines, before.nvbm.read_lines);
    assert_eq!(after.trav.index_rebuilds, before.trav.index_rebuilds);
    assert_eq!(m.keys, keys);
    assert!(m.dangling_count() > 0, "the tree has hanging vertices to classify");
}

#[test]
fn uniform_mesh_has_no_dangling_nodes() {
    let mut b = InCoreOctree::new();
    construct_uniform(&mut b, 2); // 4x4x4 cells
    let m = extract(&mut b);
    assert_eq!(m.cell_count(), 64);
    assert_eq!(m.vertex_count(), 125); // 5^3
    assert_eq!(m.dangling_count(), 0);
}

#[test]
fn single_cell() {
    let mut b = InCoreOctree::new();
    let m = extract(&mut b);
    assert_eq!(m.cell_count(), 1);
    assert_eq!(m.vertex_count(), 8);
    assert_eq!(m.dangling_count(), 0);
}

#[test]
fn one_refined_cell_creates_hanging_nodes() {
    let mut b = InCoreOctree::new();
    b.refine(pmoctree_morton::OctKey::root()).unwrap();
    b.refine(pmoctree_morton::OctKey::root().child(0)).unwrap();
    let m = extract(&mut b);
    assert_eq!(m.cell_count(), 15);
    // The refined octant adds face/edge midpoints that hang on the
    // three coarse neighbors sharing its outer faces.
    assert!(m.dangling_count() > 0);
    // Hanging nodes sit strictly inside the domain boundary faces of
    // the fine block (x, y or z = 0.25 plane crossings at 0.25 steps).
    for (i, v) in m.vertices.iter().enumerate() {
        if !m.anchored[i] {
            assert!(v.iter().all(|&x| x <= 0.5 + 1e-12), "hanging node at {v:?}");
        }
    }
}

#[test]
fn vertex_positions_are_cell_corners() {
    let mut b = InCoreOctree::new();
    construct_uniform(&mut b, 1);
    let m = extract(&mut b);
    for (ci, cell) in m.cells.iter().enumerate() {
        let k = m.keys[ci];
        let lo = k.min_corner();
        let h = k.extent();
        for (corner, &vi) in cell.iter().enumerate() {
            let v = m.vertices[vi as usize];
            for a in 0..3 {
                let want = lo[a] + h * ((corner >> a) & 1) as f64;
                assert!((v[a] - want).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn counts_match_euler_style_sanity() {
    let mut b = InCoreOctree::new();
    construct_uniform(&mut b, 3);
    let m = extract(&mut b);
    assert_eq!(m.cell_count(), 512);
    assert_eq!(m.vertex_count(), 9 * 9 * 9);
    assert_eq!(m.keys.len(), m.cells.len());
    assert_eq!(m.anchored.len(), m.vertices.len());
}
