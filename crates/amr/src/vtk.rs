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
        self.render(&[])
    }

    /// [`Mesh::to_vtk`], plus the payload fields `phi`, `pressure` and
    /// `vof` as cell data when `fields` holds one payload per cell (a
    /// missing one reads 0).
    fn render(&self, fields: &[Option<Cell>]) -> String {
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
        if !fields.is_empty() {
            for (idx, name) in ["phi", "pressure", "vof"].into_iter().enumerate() {
                let _ = writeln!(out, "SCALARS {name} double 1");
                out.push_str("LOOKUP_TABLE default\n");
                for d in fields {
                    let _ = writeln!(out, "{}", d.map_or(0.0, |d| d[idx]));
                }
            }
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
    mesh.render(&b.get_data_many(&mesh.keys))
}
