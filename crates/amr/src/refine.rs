//! `Refine & Coarsen`: criterion-driven mesh adaptation.
//!
//! The application supplies an [`AdaptCriterion`] (in Gerris terms, the
//! refinement condition of the simulation file); one [`adapt`] pass
//! refines interesting leaves up to `max_level` and coarsens
//! uninteresting families, keeping the 2:1 constraint throughout.

use pmoctree_morton::OctKey;

use crate::backend::{Cell, OctreeBackend};
use crate::balance::{balance_subset, can_coarsen_many};

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
/// The mesh is read once: one leaf sweep takes both kinds of vote, so
/// every vote is cast on the mesh as the pass found it. That makes the
/// pass's one rule: **no family refined in a pass is coarsened in that
/// pass.** The families that can be coarsened are the ones whose 8
/// children were leaves at the sweep, so their parent was interior and
/// neither a vote nor the 2:1 ripple refined it; the children of a leaf
/// split this pass cast no vote. A voting family that lost a leaf to the
/// ripple is offered all the same, and [`can_coarsen_many`] rejects it
/// (a child is no longer a leaf).
///
/// Both phases run through the backend's batched mutators
/// ([`OctreeBackend::refine_many`] / [`OctreeBackend::coarsen_many`]):
/// the 2:1 closure of a refinement set is unique, and same-level coarsen
/// families are 2:1-independent of each other.
pub fn adapt(b: &mut dyn OctreeBackend, criterion: &dyn AdaptCriterion) -> AdaptReport {
    let mut report = AdaptReport::default();
    // One sweep, both votes; a family merges only unanimously.
    let mut to_refine = Vec::new();
    let mut votes: std::collections::HashMap<OctKey, u8> = std::collections::HashMap::new();
    b.for_each_leaf(&mut |k, d| match criterion.target(&k, d) {
        Target::Refine if k.level() < criterion.max_level() => to_refine.push(k),
        Target::Coarsen => {
            if let Some(p) = k.parent() {
                *votes.entry(p).or_insert(0) += 1;
            }
        }
        _ => {}
    });
    // --- refinement phase ---
    to_refine.sort_unstable();
    // One batched split of every voted leaf, then one incremental balance
    // sweep seeded from the new fine leaves to restore 2:1.
    let ok = b.refine_many(&to_refine);
    let refined: Vec<OctKey> =
        to_refine.iter().zip(&ok).filter(|&(_, &s)| s).map(|(&k, _)| k).collect();
    report.refined += refined.len();
    let children: Vec<OctKey> = refined.iter().flat_map(|k| k.children()).collect();
    balance_subset(b, &children);
    // --- coarsening phase ---
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
