//! `Refine & Coarsen`: criterion-driven mesh adaptation.
//!
//! The application supplies an [`AdaptCriterion`] (in Gerris terms, the
//! refinement condition of the simulation file); one [`adapt`] pass
//! refines interesting leaves up to `max_level` and coarsens
//! uninteresting families, keeping the 2:1 constraint throughout.

use pmoctree_morton::OctKey;

use crate::backend::{Cell, OctreeBackend};
use crate::balance::{balance_from, can_coarsen_many};

/// What adaptation wants for one leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Split the leaf (if below the level cap).
    Refine,
    /// Merge the leaf's family (if all siblings agree and it is legal).
    Coarsen,
    /// Leave as is.
    Keep,
}

/// A refinement criterion: inspects a leaf and votes.
pub trait AdaptCriterion {
    /// Vote for one leaf.
    fn target(&self, key: &OctKey, data: &Cell) -> Target;
    /// Hard cap on refinement depth.
    fn max_level(&self) -> u8;
}

/// Statistics of one adaptation pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AdaptReport {
    /// Leaves refined (including 2:1 ripple refinements).
    pub refined: usize,
    /// Families coarsened.
    pub coarsened: usize,
}

/// One adaptation pass: refine every leaf voting [`Target::Refine`]
/// (below the cap), then coarsen every family whose 8 children all vote
/// [`Target::Coarsen`] and whose merge is 2:1-legal.
///
/// Both phases run through the backend's batched mutators
/// ([`OctreeBackend::refine_many`] / [`OctreeBackend::coarsen_many`]), so
/// a sharded backend adapts its voted cells domain-parallel. The mesh is
/// the same as the former one-key-at-a-time pass: the 2:1 closure of a
/// refinement set is unique, and same-level coarsen families are
/// 2:1-independent of each other.
pub fn adapt(b: &mut dyn OctreeBackend, criterion: &dyn AdaptCriterion) -> AdaptReport {
    let mut report = AdaptReport::default();
    // --- refinement phase ---
    let mut to_refine = Vec::new();
    b.for_each_leaf(&mut |k, d| {
        if k.level() < criterion.max_level() && criterion.target(&k, d) == Target::Refine {
            to_refine.push(k);
        }
    });
    to_refine.sort_unstable();
    // One batched split of every voted leaf, then one incremental balance
    // sweep seeded from the new fine leaves to restore 2:1.
    let ok = b.refine_many(&to_refine);
    let refined: Vec<OctKey> =
        to_refine.iter().zip(&ok).filter(|&(_, &s)| s).map(|(&k, _)| k).collect();
    report.refined += refined.len();
    balance_from(b, &refined);
    // --- coarsening phase ---
    // Group coarsen votes by parent; a family merges only unanimously.
    let mut votes: std::collections::HashMap<OctKey, u8> = std::collections::HashMap::new();
    b.for_each_leaf(&mut |k, d| {
        if k.level() > 0 && criterion.target(&k, d) == Target::Coarsen {
            if let Some(p) = k.parent() {
                *votes.entry(p).or_insert(0) += 1;
            }
        }
    });
    let mut parents: Vec<OctKey> = votes.iter().filter(|(_, &n)| n == 8).map(|(k, _)| *k).collect();
    // Deepest first, so nested coarsening cascades within one pass.
    // Families at one level cannot affect each other's 2:1 legality
    // (coarsening only makes regions shallower), so each level's
    // legality is one index batch and its legal set merges as one batch.
    parents.sort_by(|a, b| b.level().cmp(&a.level()).then(a.cmp(b)));
    for level in parents.chunk_by(|a, b| a.level() == b.level()) {
        let legal = can_coarsen_many(b, level);
        let batch: Vec<OctKey> =
            level.iter().zip(legal).filter(|&(_, ok)| ok).map(|(&p, _)| p).collect();
        report.coarsened += b.coarsen_many(&batch).into_iter().filter(|&s| s).count();
    }
    report
}

/// A band criterion: refine where `|phi| < width · h(level)`, coarsen
/// where `|phi| > 2 · width · h(level)` — the classic interface-band
/// refinement of multiphase solvers (h = cell size at the leaf's level).
pub struct BandCriterion {
    /// Band half-width in units of the local cell size.
    pub width: f64,
    /// Maximum refinement level.
    pub max_level: u8,
}

impl AdaptCriterion for BandCriterion {
    fn target(&self, key: &OctKey, data: &Cell) -> Target {
        let h = key.extent();
        let phi = data[0].abs();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InCoreBackend;
    use crate::balance::check_balance;
    use crate::construct::construct_uniform;

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
        let mut b = InCoreBackend::new();
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
        let mut b = InCoreBackend::new();
        construct_uniform(&mut b, 1);
        let crit = CornerCriterion { max: 3 };
        for _ in 0..6 {
            adapt(&mut b, &crit);
        }
        assert!(b.depth() <= 3);
    }

    #[test]
    fn unanimous_coarsening_shrinks_mesh() {
        let mut b = InCoreBackend::new();
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
        let mut b = InCoreBackend::new();
        construct_uniform(&mut b, 2);
        // phi = signed distance to the plane x = 0.5.
        let set_phi = |b: &mut InCoreBackend| {
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
}
