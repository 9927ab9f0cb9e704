//! The droplet-ejection interface: an analytic level set describing an
//! inkjet liquid jet that necks, pinches off, and breaks into droplets by
//! capillary (Rayleigh–Plateau) instability — the paper's driving
//! scientific problem (§5.1, Fig. 1(c)).
//!
//! The paper ran Gerris' full incompressible multiphase solver on Titan;
//! here the interface position is prescribed analytically (see DESIGN.md,
//! substitution table). What matters for the data-structure evaluation is
//! reproduced faithfully: a thin moving feature that the mesh must track
//! at fine resolution, octant churn between steps (39–99% overlap), and a
//! four-orders-of-magnitude scale separation between nozzle and domain.

/// Parameters of the droplet-ejection scenario (normalized to the unit
/// cube and unit ejection time).
#[derive(Clone, Copy, Debug)]
pub struct DropletParams {
    /// Nozzle axis position in the x/y plane.
    pub axis: [f64; 2],
    /// Initial jet radius (the paper's device has a ~10 µm nozzle in a
    /// cm-scale domain; we keep the mesh-relevant ratio milder so the
    /// interface is resolvable at bench scales).
    pub jet_radius: f64,
    /// Jet tip velocity (domain lengths per unit time).
    pub jet_velocity: f64,
    /// Time of first pinch-off.
    pub t_pinch: f64,
    /// Rayleigh–Plateau wavenumber along the jet (perturbation waves per
    /// domain length).
    pub wavenumber: f64,
    /// Number of primary droplets after breakup.
    pub droplets: usize,
    /// Satellite droplet radius ratio (small secondary droplets between
    /// primaries, a well-known inkjet phenomenon).
    pub satellite_ratio: f64,
}

impl Default for DropletParams {
    fn default() -> Self {
        DropletParams {
            axis: [0.5, 0.5],
            jet_radius: 0.06,
            jet_velocity: 0.9,
            t_pinch: 0.45,
            wavenumber: 6.0,
            droplets: 3,
            satellite_ratio: 0.35,
        }
    }
}

/// The time-dependent liquid interface.
#[derive(Clone, Copy, Debug, Default)]
pub struct DropletEjection {
    /// Scenario parameters.
    pub params: DropletParams,
}

impl DropletEjection {
    /// Create with given parameters.
    pub fn new(params: DropletParams) -> Self {
        DropletEjection { params }
    }

    /// Signed distance (approximate) to the liquid interface at position
    /// `x` and time `t`: negative inside the liquid.
    pub fn phi(&self, x: [f64; 3], t: f64) -> f64 {
        let p = &self.params;
        let r_xy = ((x[0] - p.axis[0]).powi(2) + (x[1] - p.axis[1]).powi(2)).sqrt();
        if t < p.t_pinch {
            // Growing jet column with a growing varicose perturbation.
            let tip = (p.jet_velocity * t).min(0.95);
            let growth = (t / p.t_pinch).powi(2);
            let neck = 1.0
                - 0.85 * growth * (0.5 + 0.5 * (p.wavenumber * std::f64::consts::TAU * x[2]).cos());
            let radius = p.jet_radius * neck.max(0.05);
            if x[2] <= tip {
                // Column region: radial distance, capped by tip cap.
                let d_col = r_xy - radius;
                let d_tip = ((r_xy).powi(2) + (x[2] - tip).powi(2)).sqrt() - radius;
                if x[2] > tip - radius {
                    d_col.min(d_tip)
                } else {
                    d_col
                }
            } else {
                // Beyond the tip: distance to the hemispherical cap.
                ((r_xy).powi(2) + (x[2] - tip).powi(2)).sqrt() - radius
            }
        } else {
            // After pinch-off: primary droplets + satellites flying along z.
            let dt = t - p.t_pinch;
            let mut d = f64::INFINITY;
            let spacing = 1.0 / (p.wavenumber).max(1.0);
            for i in 0..p.droplets {
                let z0 = (p.jet_velocity * p.t_pinch).min(0.95) - i as f64 * spacing;
                let z = (z0 + p.jet_velocity * dt * (1.0 - 0.08 * i as f64)).min(0.98);
                let r = p.jet_radius * (1.25 - 0.1 * i as f64);
                let dd =
                    ((x[0] - p.axis[0]).powi(2) + (x[1] - p.axis[1]).powi(2) + (x[2] - z).powi(2))
                        .sqrt()
                        - r;
                d = d.min(dd);
                // Satellite between this primary and the next.
                if i + 1 < p.droplets {
                    let zs = z - 0.5 * spacing;
                    let rs = p.jet_radius * p.satellite_ratio;
                    let ds = ((x[0] - p.axis[0]).powi(2)
                        + (x[1] - p.axis[1]).powi(2)
                        + (x[2] - zs).powi(2))
                    .sqrt()
                        - rs;
                    d = d.min(ds);
                }
            }
            d
        }
    }

    /// Volume-of-fluid fraction: a smoothed Heaviside of `phi` over a
    /// band of width `eps` (the cell size at the evaluation point).
    pub fn vof(&self, x: [f64; 3], t: f64, eps: f64) -> f64 {
        Self::vof_of_phi(self.phi(x, t), eps)
    }

    /// [`DropletEjection::vof`] from an already evaluated `phi`, for a
    /// sweep that needs both at one point.
    pub fn vof_of_phi(p: f64, eps: f64) -> f64 {
        if p < -eps {
            1.0
        } else if p > eps {
            0.0
        } else {
            0.5 * (1.0 - p / eps - (std::f64::consts::PI * p / eps).sin() / std::f64::consts::PI)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iface() -> DropletEjection {
        DropletEjection::default()
    }

    #[test]
    fn jet_interior_is_negative() {
        let f = iface();
        // On the axis near the nozzle, inside the liquid.
        assert!(f.phi([0.5, 0.5, 0.02], 0.2) < 0.0);
        // Far from the axis: gas.
        assert!(f.phi([0.05, 0.05, 0.5], 0.2) > 0.0);
    }

    #[test]
    fn jet_grows_with_time() {
        let f = iface();
        let probe = [0.5, 0.5, 0.35];
        // Early: tip hasn't reached z=0.35.
        assert!(f.phi(probe, 0.1) > 0.0);
        // Later: the jet has passed it.
        assert!(f.phi(probe, 0.4) < 0.0);
    }

    #[test]
    fn pinchoff_produces_disjoint_droplets() {
        let f = iface();
        let t = f.params.t_pinch + 0.1;
        // Scan along the axis: the sign of phi must alternate (liquid,
        // gas, liquid ...) — i.e. more than one connected component.
        let mut sign_changes = 0;
        let mut last_neg = f.phi([0.5, 0.5, 0.01], t) < 0.0;
        for i in 1..200 {
            let z = i as f64 / 200.0;
            let neg = f.phi([0.5, 0.5, z], t) < 0.0;
            if neg != last_neg {
                sign_changes += 1;
            }
            last_neg = neg;
        }
        assert!(sign_changes >= 4, "expected several droplets, got {sign_changes} sign changes");
    }

    #[test]
    fn phi_is_continuousish() {
        let f = iface();
        for &t in &[0.1, 0.3, 0.5, 0.7] {
            for i in 0..50 {
                let z = i as f64 / 50.0;
                let a = f.phi([0.45, 0.5, z], t);
                let b = f.phi([0.45, 0.5, z + 1e-4], t);
                assert!((a - b).abs() < 1e-2, "jump at z={z}, t={t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn vof_bounds_and_monotonicity() {
        let f = iface();
        for i in 0..100 {
            let x = [0.5, 0.3 + i as f64 * 0.004, 0.1];
            let v = f.vof(x, 0.3, 0.02);
            assert!((0.0..=1.0).contains(&v));
        }
        // Deep inside: 1; far outside: 0.
        assert_eq!(f.vof([0.5, 0.5, 0.02], 0.3, 0.01), 1.0);
        assert_eq!(f.vof([0.1, 0.1, 0.9], 0.3, 0.01), 0.0);
    }

    #[test]
    fn interface_moves_between_steps() {
        // The refinement target must change over time (this is what
        // drives octant churn / the overlap ratio of Fig. 3).
        let f = iface();
        let band = 0.03;
        let probe = [0.5, 0.5 + f.params.jet_radius, 0.25];
        let near_early = f.phi(probe, 0.28).abs() < band;
        let near_late = f.phi(probe, 0.9).abs() < band;
        assert!(near_early != near_late, "interface should move off the probe");
    }
}
