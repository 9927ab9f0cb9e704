//! Refinement criteria and feature functions for the droplet workload.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pm_octree::FeatureFn;
use pmoctree_amr::{AdaptCriterion, Cell, Target};
use pmoctree_morton::OctKey;

use crate::interface::DropletEjection;

/// Shared simulation time, readable from `Send` feature-function
/// closures (stored as f64 bits in an atomic).
#[derive(Clone, Default)]
pub struct SharedTime(Arc<AtomicU64>);

impl SharedTime {
    /// New clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the current simulation time.
    pub fn set(&self, t: f64) {
        self.0.store(t.to_bits(), Ordering::Relaxed);
    }

    /// Read the current simulation time.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Interface-band refinement criterion evaluated against the *analytic*
/// interface at the current time (Gerris evaluates its refinement
/// condition against the advected VOF field; the analytic form plays the
/// same role here and is what the feature-directed sampler pre-executes).
pub struct InterfaceCriterion {
    /// The interface.
    pub interface: DropletEjection,
    /// Shared simulation time.
    pub time: SharedTime,
    /// Band half-width in cell sizes.
    pub band_cells: f64,
    /// Maximum refinement level.
    pub max_level: u8,
}

impl AdaptCriterion for InterfaceCriterion {
    fn target(&self, key: &OctKey, _data: &Cell) -> Target {
        let t = self.time.get();
        let h = key.extent();
        let d = self.interface.phi(key.center(), t).abs();
        if d < self.band_cells * h {
            Target::Refine
        } else if d > 4.0 * self.band_cells * h {
            Target::Coarsen
        } else {
            Target::Keep
        }
    }

    fn max_level(&self) -> u8 {
        self.max_level
    }
}

/// Build the PM-octree feature function corresponding to the refinement
/// condition (§3.3: "the application features … realized as functions for
/// octant refinement/coarsening"). The closure reads the shared time, so
/// one registration tracks the whole simulation.
pub fn refinement_feature(
    interface: DropletEjection,
    time: SharedTime,
    band_cells: f64,
) -> FeatureFn {
    Box::new(move |key: &OctKey, _data| {
        let t = time.get();
        let h = key.extent();
        interface.phi(key.center(), t).abs() < band_cells * h * 2.0
    })
}

/// A solver-side feature: regions with mixed VOF (the interface cells the
/// pressure solver works hardest on).
pub fn solver_feature() -> FeatureFn {
    Box::new(|_key, data| data.vof > 0.01 && data.vof < 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_time_roundtrip() {
        let t = SharedTime::new();
        assert_eq!(t.get(), 0.0);
        t.set(0.625);
        assert_eq!(t.get(), 0.625);
        let t2 = t.clone();
        t2.set(1.5);
        assert_eq!(t.get(), 1.5, "clones share the clock");
    }

    #[test]
    fn criterion_refines_at_the_interface() {
        let time = SharedTime::new();
        time.set(0.3);
        let c = InterfaceCriterion {
            interface: DropletEjection::default(),
            time: time.clone(),
            band_cells: 1.0,
            max_level: 6,
        };
        // A cell right on the jet surface wants refinement.
        let on_jet = OctKey::from_coords([4, 4, 1], 3); // center ~ (0.56,0.56,0.19)
        let far = OctKey::from_coords([0, 0, 7], 3);
        assert_eq!(c.target(&on_jet, &[0.0; 4]), Target::Refine);
        assert_eq!(c.target(&far, &[0.0; 4]), Target::Coarsen);
    }

    #[test]
    fn feature_tracks_time() {
        let time = SharedTime::new();
        let f = refinement_feature(DropletEjection::default(), time.clone(), 1.0);
        let probe = OctKey::from_coords([8, 8, 5], 4); // on the jet axis, z ~ 0.34
        time.set(0.05); // jet far below the probe
        let early = f(&probe, &pm_octree::CellData::default());
        time.set(0.42); // jet surface passes the probe region
        let late = f(&probe, &pm_octree::CellData::default());
        assert!(early != late, "feature must follow the moving interface");
    }
}
