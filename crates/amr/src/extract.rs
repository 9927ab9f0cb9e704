//! `Extract`: turn the octree into an unstructured mesh for analysis and
//! visualization — vertices, hexahedral cells, and the anchored/dangling
//! (hanging-node) classification from the paper's Figure 1.

use std::collections::HashMap;

use pmoctree_morton::OctKey;

use crate::backend::OctreeBackend;

/// Integer vertex coordinate at the finest representable resolution.
type VCoord = [u64; 3];

/// An extracted unstructured hexahedral mesh.
#[derive(Debug, Default, Clone)]
pub struct Mesh {
    /// Vertex positions in the unit cube.
    pub vertices: Vec<[f64; 3]>,
    /// Hex cells as 8 vertex indices (Morton corner order).
    pub cells: Vec<[u32; 8]>,
    /// Per-vertex: `true` = anchored node, `false` = dangling (hanging)
    /// node sitting on a coarser neighbor's face or edge.
    pub anchored: Vec<bool>,
    /// Per-cell leaf keys (same order as `cells`).
    pub keys: Vec<OctKey>,
}

const MAXL: u8 = OctKey::MAX_LEVEL;

fn corner_coord(key: &OctKey, corner: usize) -> VCoord {
    let c = key.coords();
    let span = 1u64 << (MAXL - key.level());
    let mut v = [0u64; 3];
    for (a, slot) in v.iter_mut().enumerate() {
        *slot = (c[a] + ((corner >> a) & 1) as u64) * span;
    }
    v
}

/// Extract the mesh from a backend.
///
/// A vertex is **anchored** when it is a corner of *every* leaf incident
/// to it; otherwise it lies strictly inside a coarser leaf's face or edge
/// and is **dangling** — its field value must be interpolated rather than
/// solved (Gerris treats these as constrained nodes).
pub fn extract(b: &mut dyn OctreeBackend) -> Mesh {
    let leaves = b.leaf_keys_sorted();

    let mut vid: HashMap<VCoord, u32> = HashMap::new();
    let mut mesh = Mesh::default();
    let side = 1u64 << MAXL;
    for k in &leaves {
        let mut cell = [0u32; 8];
        for (corner, slot) in cell.iter_mut().enumerate() {
            let vc = corner_coord(k, corner);
            let id = *vid.entry(vc).or_insert_with(|| {
                mesh.vertices.push([
                    vc[0] as f64 / side as f64,
                    vc[1] as f64 / side as f64,
                    vc[2] as f64 / side as f64,
                ]);
                u32::try_from(mesh.vertices.len() - 1).expect("vertex count fits u32")
            });
            *slot = id;
        }
        mesh.cells.push(cell);
        mesh.keys.push(*k);
    }

    // Classification: for each vertex, check the (up to 8) leaves
    // incident to it; the vertex must be a corner of each.
    mesh.anchored = vec![true; mesh.vertices.len()];
    let coords: Vec<VCoord> = {
        let mut v = vec![[0u64; 3]; mesh.vertices.len()];
        for (vc, &id) in &vid {
            v[id as usize] = *vc;
        }
        v
    };
    // Gather every vertex's (up to 8) diagonal finest-grid probes, then
    // resolve the whole batch through the backend's sorted leaf index in
    // one pass instead of one root descent per probe.
    let mut probe_keys: Vec<OctKey> = Vec::new();
    let mut probe_owner: Vec<u32> = Vec::new();
    for (id, vc) in coords.iter().enumerate() {
        'octants: for oct in 0..8usize {
            // The cell of the finest grid diagonally adjacent to the
            // vertex in direction `oct` (bit a set = positive side).
            let mut probe = [0u64; 3];
            for a in 0..3 {
                if (oct >> a) & 1 == 1 {
                    if vc[a] >= side {
                        continue 'octants;
                    }
                    probe[a] = vc[a];
                } else {
                    if vc[a] == 0 {
                        continue 'octants;
                    }
                    probe[a] = vc[a] - 1;
                }
            }
            probe_keys.push(OctKey::from_coords(probe, MAXL));
            probe_owner.push(id as u32);
        }
    }
    let resolved = b.containing_leaf_many(&probe_keys);
    for (owner, leaf) in probe_owner.iter().zip(&resolved) {
        let id = *owner as usize;
        if !mesh.anchored[id] {
            continue;
        }
        let Some(leaf) = leaf else { continue };
        // Is the vertex one of the containing leaf's corners?
        let vc = coords[id];
        let is_corner = (0..8).any(|c| corner_coord(leaf, c) == vc);
        if !is_corner {
            mesh.anchored[id] = false;
        }
    }
    mesh
}

impl Mesh {
    /// Number of dangling (hanging) nodes.
    pub fn dangling_count(&self) -> usize {
        self.anchored.iter().filter(|&&a| !a).count()
    }

    /// Total mesh nodes.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of elements.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::backend::InCoreBackend;
    use crate::construct::construct_uniform;

    #[test]
    fn uniform_mesh_has_no_dangling_nodes() {
        let mut b = InCoreBackend::new();
        construct_uniform(&mut b, 2); // 4x4x4 cells
        let m = extract(&mut b);
        assert_eq!(m.cell_count(), 64);
        assert_eq!(m.vertex_count(), 125); // 5^3
        assert_eq!(m.dangling_count(), 0);
    }

    #[test]
    fn single_cell() {
        let mut b = InCoreBackend::new();
        let m = extract(&mut b);
        assert_eq!(m.cell_count(), 1);
        assert_eq!(m.vertex_count(), 8);
        assert_eq!(m.dangling_count(), 0);
    }

    #[test]
    fn one_refined_cell_creates_hanging_nodes() {
        let mut b = InCoreBackend::new();
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
        let mut b = InCoreBackend::new();
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
        let mut b = InCoreBackend::new();
        construct_uniform(&mut b, 3);
        let m = extract(&mut b);
        assert_eq!(m.cell_count(), 512);
        assert_eq!(m.vertex_count(), 9 * 9 * 9);
        assert_eq!(m.keys.len(), m.cells.len());
        assert_eq!(m.anchored.len(), m.vertices.len());
    }
}
