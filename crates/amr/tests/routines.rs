//! The meshing routines on the in-core tree: Construct, Partition,
//! Refine & Coarsen (`adapt`) and the VTK export of an extracted mesh.

use pmoctree_amr::{
    adapt, check_balance, construct_path, construct_uniform, export_vtk_with_fields, extract,
    partition, weighted_leaves, AdaptCriterion, Cell, OctreeBackend, Target,
};
use pmoctree_baselines::InCoreOctree;
use pmoctree_morton::OctKey;

// ---- Construct

#[test]
fn uniform_levels() {
    let mut b = InCoreOctree::new();
    construct_uniform(&mut b, 3);
    assert_eq!(b.leaf_count(), 512);
    let mut levels = std::collections::HashSet::new();
    b.for_each_leaf(&mut |k, _| {
        levels.insert(k.level());
    });
    assert_eq!(levels.len(), 1);
    assert!(levels.contains(&3));
}

#[test]
fn path_reaches_target() {
    let mut b = InCoreOctree::new();
    let key = OctKey::root().child(1).child(2).child(3);
    construct_path(&mut b, key);
    assert_eq!(b.is_leaf(key), Some(true));
    assert_eq!(b.leaf_count(), 1 + 7 * 3);
}

// ---- Partition

#[test]
fn partition_balances_uniform_mesh() {
    let mut b = InCoreOctree::new();
    construct_uniform(&mut b, 3); // 512 leaves
    let ranges = partition(&mut b, 8);
    assert_eq!(ranges.len(), 8);
    let leaves = weighted_leaves(&mut b);
    for r in &ranges {
        let n = leaves.iter().filter(|(k, _)| r.owns(k)).count();
        assert!((60..=68).contains(&n), "unbalanced: {n}");
    }
}

#[test]
fn partition_honors_work_weights() {
    let mut b = InCoreOctree::new();
    construct_uniform(&mut b, 2); // 64 leaves
                                  // The Z-order-first leaf carries huge work.
    let leaves = weighted_leaves(&mut b);
    let first = leaves[0].0;
    b.set_data(first, [0.0, 0.0, 0.0, 63.0]).unwrap();
    let ranges = partition(&mut b, 2);
    let leaves = weighted_leaves(&mut b);
    let n0 = leaves.iter().filter(|(k, _)| ranges[0].owns(k)).count();
    assert!(n0 <= 2, "heavy leaf should sit almost alone: {n0}");
}

// ---- Refine & Coarsen

struct CornerCriterion {
    max: u8,
}

impl AdaptCriterion for CornerCriterion {
    fn target(&self, key: &OctKey, _d: &Cell) -> Target {
        // Interesting region: the corner cell at the origin.
        let c = key.center();
        if c.iter().all(|&x| x < 0.26) {
            Target::Refine
        } else {
            Target::Coarsen
        }
    }

    fn max_level(&self) -> u8 {
        self.max
    }
}

#[test]
fn adapt_refines_corner_only() {
    let mut b = InCoreOctree::new();
    construct_uniform(&mut b, 2);
    let crit = CornerCriterion { max: 4 };
    let r1 = adapt(&mut b, &crit);
    assert!(r1.refined > 0);
    assert!(check_balance(&mut b).is_none(), "2:1 after adapt");
    // Depth grows only near the corner.
    let mut max_far = 0u8;
    let mut max_near = 0u8;
    b.for_each_leaf(&mut |k, _| {
        let c = k.center();
        if c.iter().all(|&x| x < 0.25) {
            max_near = max_near.max(k.level());
        }
        if c.iter().all(|&x| x > 0.75) {
            max_far = max_far.max(k.level());
        }
    });
    assert!(max_near > max_far);
}

#[test]
fn adapt_respects_level_cap() {
    let mut b = InCoreOctree::new();
    construct_uniform(&mut b, 1);
    let crit = CornerCriterion { max: 3 };
    for _ in 0..6 {
        adapt(&mut b, &crit);
    }
    assert!(b.depth() <= 3);
}

#[test]
fn unanimous_coarsening_shrinks_mesh() {
    let mut b = InCoreOctree::new();
    construct_uniform(&mut b, 3);
    let n0 = b.leaf_count();
    // Everything is uninteresting except the corner: repeated passes
    // coarsen distant families (bounded by 2:1 against corner depth).
    let crit = CornerCriterion { max: 3 };
    for _ in 0..4 {
        adapt(&mut b, &crit);
    }
    assert!(b.leaf_count() < n0, "coarsening must shrink the mesh");
    assert!(check_balance(&mut b).is_none());
}

#[test]
fn band_criterion_tracks_interface() {
    /// Refine where `|phi| < width · h(level)`, coarsen where
    /// `|phi| > 2 · width · h(level)` — the classic interface band
    /// (h = cell size at the leaf's level).
    struct BandCriterion {
        width: f64,
        max_level: u8,
    }
    impl AdaptCriterion for BandCriterion {
        fn target(&self, key: &OctKey, data: &Cell) -> Target {
            let (h, phi) = (key.extent(), data[0].abs());
            if phi < self.width * h {
                Target::Refine
            } else if phi > 2.0 * self.width * h {
                Target::Coarsen
            } else {
                Target::Keep
            }
        }

        fn max_level(&self) -> u8 {
            self.max_level
        }
    }

    let mut b = InCoreOctree::new();
    construct_uniform(&mut b, 2);
    // phi = signed distance to the plane x = 0.5.
    let set_phi = |b: &mut InCoreOctree| {
        b.update_leaves(&mut |k: OctKey, d: &Cell| {
            let mut nd = *d;
            nd[0] = k.center()[0] - 0.5;
            Some(nd)
        });
    };
    set_phi(&mut b);
    let crit = BandCriterion { width: 1.0, max_level: 4 };
    for _ in 0..3 {
        adapt(&mut b, &crit);
        set_phi(&mut b);
    }
    // Cells on the interface are at max level; far cells are not.
    let mut at_interface = 0u8;
    let mut far = 0u8;
    b.for_each_leaf(&mut |k, _| {
        let x = k.center()[0];
        if (x - 0.5).abs() < 0.05 {
            at_interface = at_interface.max(k.level());
        }
        if x < 0.1 {
            far = far.max(k.level());
        }
    });
    assert_eq!(at_interface, 4);
    assert!(far < 4);
}

// ---- VTK export

fn lines_with<'a>(s: &'a str, prefix: &str) -> Vec<&'a str> {
    s.lines().filter(|l| l.starts_with(prefix)).collect()
}

#[test]
fn vtk_structure_is_well_formed() {
    let mut b = InCoreOctree::new();
    construct_uniform(&mut b, 1);
    let m = extract(&mut b);
    let vtk = m.to_vtk();
    assert!(vtk.starts_with("# vtk DataFile"));
    assert!(vtk.contains("POINTS 27 double"));
    assert!(vtk.contains("CELLS 8 72"));
    assert_eq!(lines_with(&vtk, "12").len(), 8, "8 hexahedra");
    assert!(vtk.contains("CELL_DATA 8"));
    assert!(vtk.contains("POINT_DATA 27"));
}

#[test]
fn vtk_connectivity_indices_in_range() {
    let mut b = InCoreOctree::new();
    b.refine(OctKey::root()).unwrap();
    b.refine(OctKey::root().child(0)).unwrap();
    let m = extract(&mut b);
    let vtk = m.to_vtk();
    let cells_at = vtk.lines().position(|l| l.starts_with("CELLS")).unwrap();
    for line in vtk.lines().skip(cells_at + 1).take(m.cells.len()) {
        let nums: Vec<usize> = line.split_whitespace().map(|t| t.parse().unwrap()).collect();
        assert_eq!(nums[0], 8);
        assert_eq!(nums.len(), 9);
        for &i in &nums[1..] {
            assert!(i < m.vertices.len());
        }
    }
}

#[test]
fn vtk_corner_order_is_right_handed() {
    // VTK hexahedron: corners 0-3 form the bottom quad (counter-
    // clockwise when viewed from +z), 4-7 the top. Check on a cube.
    let mut b = InCoreOctree::new();
    let m = extract(&mut b);
    let vtk = m.to_vtk();
    let cells_at = vtk.lines().position(|l| l.starts_with("CELLS")).unwrap();
    let line = vtk.lines().nth(cells_at + 1).unwrap();
    let ids: Vec<usize> = line.split_whitespace().skip(1).map(|t| t.parse().unwrap()).collect();
    let p = |i: usize| m.vertices[ids[i]];
    // Bottom quad all at z = 0, top at z = 1.
    for i in 0..4 {
        assert_eq!(p(i)[2], 0.0);
        assert_eq!(p(i + 4)[2], 1.0);
    }
    // 0→1 along +x, 1→2 along +y, 2→3 along −x (counter-clockwise).
    assert!(p(1)[0] > p(0)[0]);
    assert!(p(2)[1] > p(1)[1]);
    assert!(p(3)[0] < p(2)[0]);
}

#[test]
fn fields_are_attached() {
    let mut b = InCoreOctree::new();
    b.refine(OctKey::root()).unwrap();
    b.set_data(OctKey::root().child(3), [1.5, 2.5, 0.5, 0.0]).unwrap();
    let vtk = export_vtk_with_fields(&mut b);
    assert!(vtk.contains("SCALARS phi double 1"));
    assert!(vtk.contains("SCALARS pressure double 1"));
    assert!(vtk.contains("SCALARS vof double 1"));
    assert!(vtk.contains("1.5"));
    assert!(vtk.contains("2.5"));
    // Every attribute block holds one value per element of its section
    // (8 cells, 27 vertices): a reader takes each block as the data of the
    // last CELL_DATA or POINT_DATA header above it.
    let (mut size, mut blocks) = (0usize, Vec::new());
    let mut lines = vtk.lines().skip_while(|l| !l.starts_with("CELL_DATA")).peekable();
    while let Some(line) = lines.next() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[0] {
            "CELL_DATA" | "POINT_DATA" => size = words[1].parse().unwrap(),
            "SCALARS" => {
                assert_eq!(lines.next(), Some("LOOKUP_TABLE default"));
                let mut n = 0;
                while lines.next_if(|l| l.parse::<f64>().is_ok()).is_some() {
                    n += 1;
                }
                blocks.push((words[1], n, size));
            }
            other => panic!("unexpected line {other:?}"),
        }
    }
    let names: Vec<&str> = blocks.iter().map(|b| b.0).collect();
    assert_eq!(names, ["level", "phi", "pressure", "vof", "anchored"]);
    for (name, values, size) in blocks {
        assert_eq!(values, size, "{name}: one value per element of its section");
    }
}

#[test]
fn hanging_nodes_marked_in_point_data() {
    let mut b = InCoreOctree::new();
    b.refine(OctKey::root()).unwrap();
    b.refine(OctKey::root().child(0)).unwrap();
    let m = extract(&mut b);
    let vtk = m.to_vtk();
    let pd = vtk.split("SCALARS anchored int 1").nth(1).unwrap();
    let zeros = pd.lines().filter(|l| *l == "0").count();
    assert_eq!(zeros, m.dangling_count());
}
