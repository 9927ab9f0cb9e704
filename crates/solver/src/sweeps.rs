//! Finite-volume-style solver sweeps over the mesh.
//!
//! These produce the read/write mix the paper measured for the droplet
//! workload (writes are 41% of accesses on average, up to 72% in
//! interface-heavy steps): an advection/field update concentrated near
//! the interface, plus pressure relaxation, whose iterations share one
//! walk.

use pmoctree_amr::{Cell, OctreeBackend};

use crate::interface::DropletEjection;

/// Width of the maintained level-set band (absolute, in domain units —
/// roughly one jet radius; it does not shrink with the finest cell).
pub const NARROW_BAND: f64 = 0.05;

/// Update `phi`/`vof` on every leaf from the interface position at `t`
/// (the outcome of Gerris' VOF advection step). Only leaves whose value
/// actually changes are written. Returns the number of leaves written.
pub fn advect(b: &mut dyn OctreeBackend, interface: &DropletEjection, t: f64) -> usize {
    let mut written = 0usize;
    b.update_leaves(&mut |k, d: &Cell| {
        let h = k.extent();
        // Narrow-band level set: phi is only maintained within a fixed
        // absolute band around the interface; cells beyond it store the
        // saturated value ±NARROW_BAND, which does not change while the
        // interface stays away. The band is absolute while the mesh
        // refines towards the interface, so at fine levels nearly every
        // leaf lies inside it and is rewritten each step (89 584 of
        // 90 168 leaves in the first level-9 step); only on coarse meshes
        // are far-field cells read but not written. A band measured in
        // finest cells is ROADMAP item 2(a).
        let raw = interface.phi(k.center(), t);
        let phi = raw.clamp(-NARROW_BAND, NARROW_BAND);
        let vof = DropletEjection::vof_of_phi(raw, h);
        let changed = (d[0] - phi).abs() > 1e-6 * h || (d[2] - vof).abs() > 1e-9;
        if changed {
            written += 1;
            Some([phi, d[1], vof, d[3]])
        } else {
            None
        }
    });
    written
}

/// `iters` Jacobi-style pressure relaxation iterations. Interface cells
/// (with mixed VOF) converge towards the capillary pressure jump; pure
/// cells relax towards zero. Cheap per cell, touching every leaf — this
/// is the read-heavy "solve" component.
///
/// The relaxation is pointwise: a cell's new pressure depends on its own
/// `pressure` and `vof` only. So the `iters` passes fold into one walk —
/// each leaf runs its iterations in place, in the order the separate
/// passes would, and is stored once, if its pressure moved. That is
/// valid only while the update stays pointwise: a neighbour stencil
/// reads values the same pass rewrites and would need separate passes.
///
/// Returns the per-iteration write count: the number of leaves the
/// `iters` separate passes would have written, summed over the passes.
pub fn relax_pressure(b: &mut dyn OctreeBackend, iters: usize) -> usize {
    let mut writes = 0usize;
    b.update_leaves(&mut |_k, d: &Cell| {
        let target = if d[2] > 0.01 && d[2] < 0.99 {
            // Young–Laplace-ish jump scaled by the local VOF gradient proxy.
            2.0 * (d[2] - 0.5).abs()
        } else {
            0.0
        };
        let mut p = d[1];
        for _ in 0..iters {
            let p_new = 0.5 * p + 0.5 * target;
            // Absolute convergence floor: once a cell is near its target
            // it stops being written (otherwise the geometric decay would
            // rewrite every cell forever and destroy the cross-version
            // sharing the multi-version design relies on). A pass that
            // leaves the cell alone leaves every later pass the same input.
            if (p_new - p).abs() > 1e-6 {
                writes += 1;
                p = p_new;
            } else {
                break;
            }
        }
        (p.to_bits() != d[1].to_bits()).then_some([d[0], p, d[2], d[3]])
    });
    writes
}

/// Record per-leaf work estimates (partitioning weights): interface
/// cells cost several times a bulk cell.
pub fn estimate_work(b: &mut dyn OctreeBackend) {
    b.update_leaves(&mut |_k, d: &Cell| {
        let w = if d[2] > 0.01 && d[2] < 0.99 { 4.0 } else { 1.0 };
        if (d[3] - w).abs() > 1e-12 {
            Some([d[0], d[1], d[2], w])
        } else {
            None
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmoctree_amr::construct_uniform;
    use pmoctree_baselines::InCoreOctree;

    #[test]
    fn advect_writes_the_interface_band_only() {
        let mut b = InCoreOctree::new();
        construct_uniform(&mut b, 4);
        let f = DropletEjection::default();
        let w1 = advect(&mut b, &f, 0.3);
        assert!(w1 > 0);
        // Re-advection at the same time writes (almost) nothing.
        let w2 = advect(&mut b, &f, 0.3);
        assert_eq!(w2, 0, "idempotent advection must not rewrite");
        // A later time rewrites only the band that moved.
        let w3 = advect(&mut b, &f, 0.35);
        assert!(w3 > 0 && w3 < b.leaf_count(), "moved band: {w3} of {}", b.leaf_count());
    }

    #[test]
    fn relaxation_converges() {
        let mut b = InCoreOctree::new();
        construct_uniform(&mut b, 3);
        advect(&mut b, &DropletEjection::default(), 0.3);
        relax_pressure(&mut b, 50);
        // Bulk cells end up at ~0 pressure; interface cells at their jump.
        b.for_each_leaf(&mut |_, d| {
            if d[2] == 0.0 || d[2] == 1.0 {
                assert!(d[1].abs() < 1e-3, "bulk pressure {}", d[1]);
            }
        });
        // Converged: further iterations write nothing much.
        let w = relax_pressure(&mut b, 1);
        let leaves = b.leaf_count();
        assert!(w < leaves / 10, "{w} writes after convergence");
    }

    #[test]
    fn write_fraction_realistic() {
        // The §1 claim: meshing + solving is write-intensive (41% average).
        let mut b = InCoreOctree::new();
        construct_uniform(&mut b, 4);
        let f = DropletEjection::default();
        for step in 0..5 {
            let t = 0.25 + step as f64 * 0.05;
            advect(&mut b, &f, t);
            relax_pressure(&mut b, 2);
        }
        let frac = b.stats.overall_write_fraction();
        assert!((0.05..0.8).contains(&frac), "write fraction {frac} outside plausible range");
    }

    #[test]
    fn work_estimates_weight_interface() {
        let mut b = InCoreOctree::new();
        construct_uniform(&mut b, 4);
        advect(&mut b, &DropletEjection::default(), 0.3);
        estimate_work(&mut b);
        let mut heavy = 0usize;
        let mut light = 0usize;
        b.for_each_leaf(&mut |_, d| {
            if d[3] == 4.0 {
                heavy += 1;
            } else if d[3] == 1.0 {
                light += 1;
            }
        });
        assert!(heavy > 0 && light > heavy, "heavy={heavy} light={light}");
    }
}
