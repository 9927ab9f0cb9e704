//! Locational codes: the identity of an octant.
//!
//! A [`Key`] names one cell of the recursively-refined domain: its
//! refinement `level` and its position encoded as `level` interleaved
//! D-bit groups (a Morton code). The root of the tree is the unique key at
//! level 0. Keys are plain 16-byte values; they are what gets stored in
//! NVBM octants, exchanged between ranks during partitioning, and used as
//! B-tree keys by the Etree baseline.

use crate::bits::{deinterleave, interleave, max_level};
use crate::range::anchor;

/// Locational code of a cell in a `D`-dimensional linear 2^D-tree
/// (`D = 2`: quadtree, `D = 3`: octree).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key<const D: usize> {
    /// Interleaved coordinate bits; only the low `D * level` bits are used.
    code: u64,
    /// Refinement depth: 0 is the root enclosing the whole domain.
    level: u8,
}

/// Convenient alias for the 3D case used by the flow-solver workloads.
pub type OctKey = Key<3>;
/// Convenient alias for the 2D case (quadtree), used in figures and tests.
pub type QuadKey = Key<2>;

impl<const D: usize> std::fmt::Debug for Key<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Key<{}>(L{} ", D, self.level)?;
        // Shift widths are computed in u32 and checked: `D * l` stays < 64
        // for every valid key (D * (MAX_LEVEL - 1) <= 60), but the
        // formatter is also reached from recovery paths printing keys
        // decoded off crashed media, so a hostile (code, level) pair must
        // degrade to zero digits instead of a shift-overflow panic.
        for l in (0..self.level as u32).rev() {
            let digit = self.code.checked_shr(D as u32 * l).unwrap_or(0) & ((1u64 << D) - 1);
            write!(f, "{digit}")?;
            if l > 0 {
                write!(f, ".")?;
            }
        }
        write!(f, ")")
    }
}

impl<const D: usize> Default for Key<D> {
    fn default() -> Self {
        Self::root()
    }
}

impl<const D: usize> Key<D> {
    /// Number of children of an internal node (`2^D`).
    pub const FANOUT: usize = 1 << D;

    /// Deepest representable level for this dimension.
    pub const MAX_LEVEL: u8 = max_level(D);

    /// The root cell covering the entire domain.
    #[inline]
    pub const fn root() -> Self {
        Key { code: 0, level: 0 }
    }

    /// Build a key from a raw Morton code and level.
    ///
    /// # Panics
    /// Panics if `level` exceeds [`Self::MAX_LEVEL`] or `code` has bits set
    /// above `D * level`.
    #[inline]
    pub fn from_raw(code: u64, level: u8) -> Self {
        assert!(level <= Self::MAX_LEVEL, "level {level} too deep");
        assert!(
            level as u32 * D as u32 == 64 || code >> (level as u32 * D as u32) == 0,
            "code {code:#x} has bits above level {level}"
        );
        Key { code, level }
    }

    /// Build a key from parts already proven valid (batch kernels check
    /// whole slices up front instead of per element).
    #[inline]
    pub(crate) const fn from_raw_unchecked(code: u64, level: u8) -> Self {
        debug_assert!(level <= Self::MAX_LEVEL);
        debug_assert!(level as u32 * D as u32 >= 64 || code >> (level as u32 * D as u32) == 0);
        Key { code, level }
    }

    /// Build a key from integer grid coordinates at a level.
    ///
    /// Each coordinate must be `< 2^level`.
    #[inline]
    pub fn from_coords(coords: [u64; D], level: u8) -> Self {
        assert!(level <= Self::MAX_LEVEL, "level {level} too deep");
        for &c in &coords {
            assert!(c < 1u64 << level, "coordinate {c} out of range at level {level}");
        }
        Key { code: interleave::<D>(coords), level }
    }

    /// Integer grid coordinates of this cell's minimum corner, in units of
    /// cells at its own level.
    #[inline]
    pub fn coords(&self) -> [u64; D] {
        deinterleave::<D>(self.code)
    }

    /// Raw interleaved code (low `D * level` bits meaningful).
    #[inline]
    pub const fn raw(&self) -> u64 {
        self.code
    }

    /// Refinement level; the root is level 0.
    #[inline]
    pub const fn level(&self) -> u8 {
        self.level
    }

    /// Side length of this cell as a fraction of the domain (`2^-level`).
    #[inline]
    pub fn extent(&self) -> f64 {
        1.0 / (1u64 << self.level) as f64
    }

    /// Center of the cell in the unit domain `[0,1)^D`.
    #[inline]
    pub fn center(&self) -> [f64; D] {
        let h = self.extent();
        let c = self.coords();
        let mut out = [0.0; D];
        for a in 0..D {
            out[a] = (c[a] as f64 + 0.5) * h;
        }
        out
    }

    /// Minimum corner of the cell in the unit domain.
    #[inline]
    pub fn min_corner(&self) -> [f64; D] {
        let h = self.extent();
        let c = self.coords();
        let mut out = [0.0; D];
        for a in 0..D {
            out[a] = c[a] as f64 * h;
        }
        out
    }

    /// Index of this cell among its siblings (`0..FANOUT`); 0 for the root.
    #[inline]
    pub fn sibling_index(&self) -> usize {
        if self.level == 0 {
            0
        } else {
            (self.code & ((1 << D) - 1)) as usize
        }
    }

    /// Parent cell, or `None` for the root.
    #[inline]
    pub fn parent(&self) -> Option<Self> {
        if self.level == 0 {
            None
        } else {
            Some(Key { code: self.code >> D, level: self.level - 1 })
        }
    }

    /// The `i`-th child cell.
    ///
    /// Bit `a` of `i` selects the upper half along axis `a`.
    ///
    /// # Panics
    /// Panics if `i >= FANOUT` or the key is already at `MAX_LEVEL`.
    #[inline]
    pub fn child(&self, i: usize) -> Self {
        assert!(i < Self::FANOUT, "child index {i} out of range");
        assert!(self.level < Self::MAX_LEVEL, "cannot refine beyond MAX_LEVEL");
        Key { code: self.code << D | i as u64, level: self.level + 1 }
    }

    /// Iterator over all `FANOUT` children in Morton order.
    #[inline]
    pub fn children(&self) -> impl Iterator<Item = Self> + '_ {
        (0..Self::FANOUT).map(move |i| self.child(i))
    }

    /// Ancestor of this key at `level` (`level <= self.level()`).
    #[inline]
    pub fn ancestor_at(&self, level: u8) -> Self {
        assert!(level <= self.level, "ancestor level above key level");
        Key { code: self.code >> (D as u32 * (self.level - level) as u32), level }
    }

    /// Does `self` contain `other` (or equal it)? I.e. is `self` an
    /// ancestor-or-self of `other` in the tree.
    #[inline]
    pub fn contains(&self, other: &Self) -> bool {
        other.level >= self.level && other.ancestor_at(self.level) == *self
    }

    /// First (Z-order smallest) descendant at `level >= self.level()`.
    #[inline]
    pub fn first_descendant(&self, level: u8) -> Self {
        assert!(level >= self.level && level <= Self::MAX_LEVEL);
        Key { code: self.code << (D as u32 * (level - self.level) as u32), level }
    }

    /// Z-order comparison as used for linear octrees: pre-order traversal
    /// position. An ancestor sorts immediately *before* all of its
    /// descendants; disjoint cells sort by spatial Z-order.
    #[inline]
    pub fn zcmp(&self, other: &Self) -> std::cmp::Ordering {
        anchor(self).cmp(&anchor(other)).then(self.level.cmp(&other.level))
    }

    /// Neighbor of the same level displaced by `dir[a] ∈ {-1, 0, +1}` cells
    /// along each axis. Returns `None` when the displacement leaves the
    /// unit domain (non-periodic boundaries, as in Gerris' closed box).
    pub fn neighbor(&self, dir: [i8; D]) -> Option<Self> {
        let mut c = self.coords();
        let side = 1u64 << self.level;
        for a in 0..D {
            match dir[a] {
                0 => {}
                1 => {
                    if c[a] + 1 >= side {
                        return None;
                    }
                    c[a] += 1;
                }
                -1 => {
                    if c[a] == 0 {
                        return None;
                    }
                    c[a] -= 1;
                }
                d => panic!("direction component {d} out of range"),
            }
        }
        Some(Key::from_coords(c, self.level))
    }

    /// Face neighbor along `axis` in direction `dir` (+1 or -1).
    #[inline]
    pub fn face_neighbor(&self, axis: usize, dir: i8) -> Option<Self> {
        let mut d = [0i8; D];
        d[axis] = dir;
        self.neighbor(d)
    }

    /// All existing same-level neighbors (faces, edges, corners):
    /// up to `3^D - 1` keys.
    pub fn all_neighbors(&self) -> Vec<Self> {
        let mut out = Vec::with_capacity(3usize.pow(D as u32) - 1);
        out.extend(self.all_neighbors_iter());
        out
    }

    /// [`Self::all_neighbors`], one at a time (the batch form appends them
    /// to a `Vec` of its own).
    pub(crate) fn all_neighbors_iter(&self) -> impl Iterator<Item = Self> + '_ {
        (0..3usize.pow(D as u32)).filter_map(move |m| {
            let mut dir = [0i8; D];
            let mut mm = m;
            for slot in dir.iter_mut() {
                *slot = (mm % 3) as i8 - 1;
                mm /= 3;
            }
            // The zero displacement is the cell itself.
            if dir == [0; D] {
                None
            } else {
                self.neighbor(dir)
            }
        })
    }

    /// Face neighbors only (up to `2 * D`).
    pub fn face_neighbors(&self) -> Vec<Self> {
        let mut out = Vec::with_capacity(2 * D);
        out.extend(self.face_neighbors_iter());
        out
    }

    /// [`Self::face_neighbors`], one at a time.
    pub(crate) fn face_neighbors_iter(&self) -> impl Iterator<Item = Self> + '_ {
        (0..D).flat_map(move |axis| {
            [-1i8, 1].into_iter().filter_map(move |dir| self.face_neighbor(axis, dir))
        })
    }

    /// The chain of keys from the root down to (and including) `self`.
    pub fn path_from_root(&self) -> Vec<Self> {
        let mut out = Vec::with_capacity(self.level as usize + 1);
        for l in 0..=self.level {
            out.push(self.ancestor_at(l));
        }
        out
    }
}

impl<const D: usize> PartialOrd for Key<D> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const D: usize> Ord for Key<D> {
    /// Total order = Z-order (pre-order traversal position).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.zcmp(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_properties() {
        let r = OctKey::root();
        assert_eq!(r.level(), 0);
        assert_eq!(r.parent(), None);
        assert_eq!(r.sibling_index(), 0);
        assert_eq!(r.extent(), 1.0);
        assert_eq!(r.center(), [0.5, 0.5, 0.5]);
    }

    #[test]
    fn child_parent_roundtrip() {
        let r = OctKey::root();
        for i in 0..8 {
            let c = r.child(i);
            assert_eq!(c.level(), 1);
            assert_eq!(c.sibling_index(), i);
            assert_eq!(c.parent(), Some(r));
        }
    }

    #[test]
    fn deep_path() {
        let mut k = OctKey::root();
        let idxs = [3usize, 5, 0, 7, 2];
        for &i in &idxs {
            k = k.child(i);
        }
        assert_eq!(k.level(), 5);
        let path = k.path_from_root();
        assert_eq!(path.len(), 6);
        assert_eq!(path[0], OctKey::root());
        assert_eq!(path[5], k);
        for w in path.windows(2) {
            assert_eq!(w[1].parent(), Some(w[0]));
        }
    }

    #[test]
    fn coords_roundtrip() {
        let k = OctKey::from_coords([5, 9, 14], 4);
        assert_eq!(k.coords(), [5, 9, 14]);
        assert_eq!(k.level(), 4);
    }

    #[test]
    fn child_moves_coords() {
        let k = OctKey::from_coords([1, 2, 3], 3);
        // child index 0b101 = +x, +z halves
        let c = k.child(0b101);
        assert_eq!(c.coords(), [2 + 1, 2 * 2, 2 * 3 + 1]);
    }

    #[test]
    fn contains_works() {
        let r = OctKey::root();
        let k = r.child(3).child(2);
        assert!(r.contains(&k));
        assert!(r.child(3).contains(&k));
        assert!(!r.child(2).contains(&k));
        assert!(k.contains(&k));
        assert!(!k.contains(&r));
    }

    #[test]
    fn face_neighbor_basic() {
        let k = OctKey::from_coords([3, 3, 3], 3);
        assert_eq!(k.face_neighbor(0, 1), Some(OctKey::from_coords([4, 3, 3], 3)));
        assert_eq!(k.face_neighbor(1, -1), Some(OctKey::from_coords([3, 2, 3], 3)));
    }

    #[test]
    fn boundary_has_no_neighbor() {
        let k = OctKey::from_coords([0, 0, 0], 2);
        assert_eq!(k.face_neighbor(0, -1), None);
        assert_eq!(k.face_neighbor(1, -1), None);
        let k = OctKey::from_coords([3, 3, 3], 2);
        assert_eq!(k.face_neighbor(2, 1), None);
    }

    #[test]
    fn all_neighbors_interior_count() {
        // Interior octant at level 2: full 26 neighbors in 3D.
        let k = OctKey::from_coords([1, 1, 1], 2);
        assert_eq!(k.all_neighbors().len(), 26);
        // Corner octant: only 7.
        let k = OctKey::from_coords([0, 0, 0], 2);
        assert_eq!(k.all_neighbors().len(), 7);
        // 2D interior: 8 neighbors.
        let q = QuadKey::from_coords([1, 1], 2);
        assert_eq!(q.all_neighbors().len(), 8);
    }

    #[test]
    fn zorder_ancestor_sorts_first() {
        let r = OctKey::root();
        let c0 = r.child(0);
        let c7 = r.child(7);
        assert!(r < c0);
        assert!(c0 < c7);
        assert!(c0.child(7) < c7);
        assert!(r < c7.child(0));
    }

    #[test]
    fn zorder_matches_spatial_order_at_same_level() {
        let a = QuadKey::from_coords([0, 0], 1);
        let b = QuadKey::from_coords([1, 0], 1);
        let c = QuadKey::from_coords([0, 1], 1);
        let d = QuadKey::from_coords([1, 1], 1);
        let mut v = vec![d, b, c, a];
        v.sort();
        assert_eq!(v, vec![a, b, c, d]);
    }

    #[test]
    fn first_descendant_bounds_children_below() {
        let k = OctKey::root().child(3);
        let lo = k.first_descendant(4);
        for c in k.children() {
            assert!(lo.zcmp(&c.first_descendant(4)).is_le());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_coords_rejects_out_of_range() {
        let _ = OctKey::from_coords([4, 0, 0], 2);
    }

    #[test]
    #[should_panic(expected = "too deep")]
    fn from_raw_rejects_deep_level() {
        let _ = OctKey::from_raw(0, 22);
    }

    #[test]
    fn debug_formats_max_level_keys() {
        // Regression: formatting a MAX_LEVEL key must not overflow the
        // digit shift in debug builds. Descend along child 7 / child 3 so
        // every digit is non-zero and the count is checkable.
        let mut k = OctKey::root();
        for _ in 0..OctKey::MAX_LEVEL {
            k = k.child(7);
        }
        let s = format!("{k:?}");
        assert!(s.starts_with("Key<3>(L21 "), "{s}");
        assert_eq!(s.matches('7').count(), OctKey::MAX_LEVEL as usize, "{s}");

        let mut q = QuadKey::root();
        for _ in 0..QuadKey::MAX_LEVEL {
            q = q.child(3);
        }
        let s = format!("{q:?}");
        assert!(s.starts_with("Key<2>(L31 "), "{s}");
        assert_eq!(s.matches('3').count(), 1 + QuadKey::MAX_LEVEL as usize, "{s}");

        // The first and last cells at MAX_LEVEL are the extreme
        // representable codes; both must format without panicking.
        let lo = OctKey::root().first_descendant(OctKey::MAX_LEVEL);
        let hi = OctKey::from_coords([(1 << OctKey::MAX_LEVEL) - 1; 3], OctKey::MAX_LEVEL);
        assert!(format!("{lo:?}").contains("L21"));
        assert!(format!("{hi:?}").contains("L21"));
    }
}
