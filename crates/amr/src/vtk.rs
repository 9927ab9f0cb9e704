//! Legacy-VTK export of extracted meshes.
//!
//! The `Extract` routine exists to feed "data analytics and
//! visualization" (§2); this writer emits the extracted unstructured
//! hexahedral mesh as an ASCII legacy `.vtk` file loadable by
//! ParaView/VisIt, with the refinement level and the anchored/dangling
//! classification as cell/point data.

use std::fmt::Write as _;

use crate::backend::{Cell, OctreeBackend};
use crate::extract::Mesh;

/// VTK_HEXAHEDRON connectivity expects the corner order
/// (x,y,z): 000, 100, 110, 010, 001, 101, 111, 011 — a permutation of
/// our Morton corner order 000, 100, 010, 110, 001, 101, 011, 111.
const VTK_CORNER_ORDER: [usize; 8] = [0, 1, 3, 2, 4, 5, 7, 6];

impl Mesh {
    /// Render the mesh as an ASCII legacy VTK unstructured grid.
    ///
    /// Cell data: `level` (refinement depth). Point data: `anchored`
    /// (1 = anchored mesh node, 0 = dangling/hanging node).
    pub fn to_vtk(&self) -> String {
        let mut out = String::with_capacity(64 * self.vertices.len());
        out.push_str("# vtk DataFile Version 3.0\n");
        out.push_str("pm-octree extracted mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n");
        let _ = writeln!(out, "POINTS {} double", self.vertices.len());
        for v in &self.vertices {
            let _ = writeln!(out, "{} {} {}", v[0], v[1], v[2]);
        }
        let _ = writeln!(out, "CELLS {} {}", self.cells.len(), self.cells.len() * 9);
        for c in &self.cells {
            out.push('8');
            for &i in &VTK_CORNER_ORDER {
                let _ = write!(out, " {}", c[i]);
            }
            out.push('\n');
        }
        let _ = writeln!(out, "CELL_TYPES {}", self.cells.len());
        for _ in &self.cells {
            out.push_str("12\n"); // VTK_HEXAHEDRON
        }
        let _ = writeln!(out, "CELL_DATA {}", self.cells.len());
        out.push_str("SCALARS level int 1\nLOOKUP_TABLE default\n");
        for k in &self.keys {
            let _ = writeln!(out, "{}", k.level());
        }
        let _ = writeln!(out, "POINT_DATA {}", self.vertices.len());
        out.push_str("SCALARS anchored int 1\nLOOKUP_TABLE default\n");
        for &a in &self.anchored {
            let _ = writeln!(out, "{}", a as u8);
        }
        out
    }
}

/// Extract a mesh with per-cell field data and render it as VTK with the
/// payload fields (`phi`, `pressure`, `vof`) attached as cell scalars.
pub fn export_vtk_with_fields(b: &mut dyn OctreeBackend) -> String {
    let mesh = crate::extract::extract(b);
    let mut fields: std::collections::HashMap<pmoctree_morton::OctKey, Cell> =
        std::collections::HashMap::with_capacity(mesh.cells.len());
    b.for_each_leaf(&mut |k, d| {
        fields.insert(k, *d);
    });
    let mut out = mesh.to_vtk();
    for (name, idx) in [("phi", 0usize), ("pressure", 1), ("vof", 2)] {
        let _ = writeln!(out, "SCALARS {name} double 1");
        out.push_str("LOOKUP_TABLE default\n");
        for k in &mesh.keys {
            let v = fields.get(k).map(|d| d[idx]).unwrap_or(0.0);
            let _ = writeln!(out, "{v}");
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::backend::InCoreBackend;
    use crate::construct::construct_uniform;
    use crate::extract::extract;
    use pmoctree_morton::OctKey;

    fn lines_with<'a>(s: &'a str, prefix: &str) -> Vec<&'a str> {
        s.lines().filter(|l| l.starts_with(prefix)).collect()
    }

    #[test]
    fn vtk_structure_is_well_formed() {
        let mut b = InCoreBackend::new();
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
        let mut b = InCoreBackend::new();
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
        let mut b = InCoreBackend::new();
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
        let mut b = InCoreBackend::new();
        b.refine(OctKey::root()).unwrap();
        b.set_data(OctKey::root().child(3), [1.5, 2.5, 0.5, 0.0]).unwrap();
        let vtk = export_vtk_with_fields(&mut b);
        assert!(vtk.contains("SCALARS phi double 1"));
        assert!(vtk.contains("SCALARS pressure double 1"));
        assert!(vtk.contains("SCALARS vof double 1"));
        assert!(vtk.contains("1.5"));
        assert!(vtk.contains("2.5"));
    }

    #[test]
    fn hanging_nodes_marked_in_point_data() {
        let mut b = InCoreBackend::new();
        b.refine(OctKey::root()).unwrap();
        b.refine(OctKey::root().child(0)).unwrap();
        let m = extract(&mut b);
        let vtk = m.to_vtk();
        let pd = vtk.split("SCALARS anchored int 1").nth(1).unwrap();
        let zeros = pd.lines().filter(|l| *l == "0").count();
        assert_eq!(zeros, m.dangling_count());
    }
}
