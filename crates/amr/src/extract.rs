//! `Extract`: turn the octree into an unstructured mesh for analysis and
//! visualization — vertices, hexahedral cells, and the anchored/dangling
//! (hanging-node) classification from the paper's Figure 1.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// One `u64` per vertex: `(x·r + y)·r + z` with `r = side + 1`, so every
/// corner from 0 to `side` on each axis has its own key
/// (`(2²¹ + 1)³ < 2⁶⁴`).
fn pack(v: VCoord) -> u64 {
    const R: u64 = (1 << MAXL) + 1;
    (v[0] * R + v[1]) * R + v[2]
}

/// splitmix64's finaliser over the one `u64` a packed key writes. A
/// level-`l` corner's coordinates are multiples of `2^(21-l)`, so a packed
/// key's low bits are all zero (12 of them at level 9). The map picks a
/// bucket from the hash's low bits, and a multiply's low output bits
/// depend only on its input's low bits: the shifts mix the high bits down.
#[derive(Default)]
struct SplitMix(u64);

impl Hasher for SplitMix {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }

    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Extract the mesh from a backend.
///
/// A vertex is **anchored** when it is a corner of *every* leaf incident
/// to it; otherwise it lies strictly inside a coarser leaf's face or edge
/// and is **dangling** — its field value must be interpolated rather than
/// solved (Gerris treats these as constrained nodes).
///
/// The classification reads nothing past the sorted leaf list: it counts,
/// per vertex, the leaves that name it as a corner. The finest-grid cells
/// diagonally adjacent to a vertex — 2 per axis, 1 where the vertex lies
/// on a domain face, so 8, 4, 2 or 1 — are each covered by exactly one
/// leaf; a leaf with the vertex as a corner covers exactly one of them,
/// any other incident leaf at least two. So a vertex is anchored exactly
/// when its corner count equals its number of diagonal cells.
///
/// Vertices are numbered in the order they are first seen, leaf by leaf
/// in Z-order and corner by corner within a leaf; the map from corner to
/// number is keyed on the corner's packed `u64` (`pack`).
///
/// Precondition: the backend holds a whole tree, whose leaves tile the
/// domain (2:1 balance is not needed). A leaf set with holes would count
/// a vertex at a hole as dangling.
pub fn extract(b: &mut dyn OctreeBackend) -> Mesh {
    let leaves = b.leaf_keys_sorted();
    let n = leaves.len();

    let mut vid: HashMap<u64, u32, BuildHasherDefault<SplitMix>> =
        HashMap::with_capacity_and_hasher(n, BuildHasherDefault::default());
    // Per vertex: its diagonal finest cells no leaf corner has matched yet.
    let mut unmatched: Vec<u8> = Vec::with_capacity(n);
    let mut mesh = Mesh {
        vertices: Vec::with_capacity(n),
        cells: Vec::with_capacity(n),
        anchored: Vec::new(),
        keys: Vec::with_capacity(n),
    };
    let side = 1u64 << MAXL;
    for k in &leaves {
        let mut cell = [0u32; 8];
        for (corner, slot) in cell.iter_mut().enumerate() {
            let vc = corner_coord(k, corner);
            let id = *vid.entry(pack(vc)).or_insert_with(|| {
                mesh.vertices.push([
                    vc[0] as f64 / side as f64,
                    vc[1] as f64 / side as f64,
                    vc[2] as f64 / side as f64,
                ]);
                let diagonal = vc.iter().map(|&x| if x == 0 || x == side { 1 } else { 2 });
                unmatched.push(diagonal.product());
                u32::try_from(mesh.vertices.len() - 1).expect("vertex count fits u32")
            });
            unmatched[id as usize] -= 1;
            *slot = id;
        }
        mesh.cells.push(cell);
        mesh.keys.push(*k);
    }
    mesh.anchored = unmatched.iter().map(|&n| n == 0).collect();
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
mod tests {
    use super::*;

    #[test]
    fn pack_is_injective_on_the_extreme_coordinates() {
        let side = 1u64 << MAXL;
        let axis = [0, 1, side - 1, side];
        let mut keys: Vec<u64> = Vec::new();
        for x in axis {
            for y in axis {
                for z in axis {
                    keys.push(pack([x, y, z]));
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), axis.len().pow(3));
        assert_eq!(pack([side, side, side]), (side + 1).pow(3) - 1, "the far corner fits a u64");
    }
}
