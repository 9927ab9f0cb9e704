//! Property tests for the droplet-ejection workload: the analytic
//! interface is physically sane at every time, and the solver sweeps
//! preserve field invariants on arbitrary meshes.

use pmoctree_amr::{construct_uniform, OctreeBackend};
use pmoctree_baselines::InCoreOctree;
use pmoctree_solver::{advect, relax_pressure, DropletEjection, SimConfig, Simulation};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// phi is Lipschitz-ish along rays: finite, bounded by the domain
    /// diagonal, and its sign field encloses a bounded liquid volume.
    #[test]
    fn phi_is_bounded_and_finite(
        x in 0.0f64..1.0, y in 0.0f64..1.0, z in 0.0f64..1.0, t in 0.0f64..1.2,
    ) {
        let f = DropletEjection::default();
        let phi = f.phi([x, y, z], t);
        prop_assert!(phi.is_finite());
        prop_assert!(phi.abs() < 2.0, "phi {phi} unreasonably large");
    }

    /// VOF is a proper fraction and monotone with phi: liquid (phi<-eps)
    /// gives 1, gas (phi>eps) gives 0.
    #[test]
    fn vof_consistent_with_phi(
        x in 0.0f64..1.0, y in 0.0f64..1.0, z in 0.0f64..1.0,
        t in 0.0f64..1.2, eps in 1e-4f64..0.1,
    ) {
        let f = DropletEjection::default();
        let p = f.phi([x, y, z], t);
        let v = f.vof([x, y, z], t, eps);
        prop_assert!((0.0..=1.0).contains(&v));
        // The advection sweep's one-`phi` path gives the same bits.
        prop_assert_eq!(DropletEjection::vof_of_phi(p, eps).to_bits(), v.to_bits());
        if p < -eps {
            prop_assert_eq!(v, 1.0);
        }
        if p > eps {
            prop_assert_eq!(v, 0.0);
        }
    }

    /// The liquid volume (fraction of sample points with phi < 0) stays
    /// physically small — the jet/droplets never flood the domain.
    #[test]
    fn liquid_volume_bounded(t in 0.0f64..1.2, seed in any::<u64>()) {
        let f = DropletEjection::default();
        let mut state = seed | 1;
        let mut rand = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = 2000;
        let mut inside = 0usize;
        for _ in 0..n {
            let x = [rand(), rand(), rand()];
            if f.phi(x, t) < 0.0 {
                inside += 1;
            }
        }
        let frac = inside as f64 / n as f64;
        prop_assert!(frac < 0.2, "liquid fills {:.0}% of the domain at t={t}", 100.0 * frac);
    }

    /// Advection is idempotent at fixed t, and pressure relaxation keeps
    /// pressure finite and non-negative-ish on any uniform mesh level.
    #[test]
    fn sweeps_preserve_invariants(level in 1u8..4, t in 0.05f64..1.0, iters in 1usize..6) {
        let mut b = InCoreOctree::new();
        construct_uniform(&mut b, level);
        advect(&mut b, &DropletEjection::default(), t);
        prop_assert_eq!(advect(&mut b, &DropletEjection::default(), t), 0, "advect idempotent");
        relax_pressure(&mut b, iters);
        b.for_each_leaf(&mut |_, d| {
            assert!(d[1].is_finite());
            assert!(d[1] >= -1e-12, "pressure {}", d[1]);
            assert!((0.0..=1.0).contains(&d[2]), "vof {}", d[2]);
        });
    }
}

/// The element count of a full simulation is deterministic: two identical
/// runs produce identical meshes step by step.
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let sim = Simulation::new(SimConfig { steps: 5, max_level: 4, ..SimConfig::default() });
        let mut b = InCoreOctree::new();
        let r = sim.run(&mut b);
        r.steps.iter().map(|s| s.leaves).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// Element counts follow the droplet narrative: the mesh grows while the
/// jet extends and pinches, then shrinks as droplets leave a simpler
/// topology behind.
#[test]
fn element_count_follows_the_jet() {
    let sim = Simulation::new(SimConfig {
        steps: 30,
        max_level: 5,
        t0: 0.1,
        dt: 0.04,
        ..SimConfig::default()
    });
    let mut b = InCoreOctree::new();
    let r = sim.run(&mut b);
    let counts: Vec<usize> = r.steps.iter().map(|s| s.leaves).collect();
    let peak = *counts.iter().max().unwrap();
    let first = counts[0];
    let last = *counts.last().unwrap();
    assert!(peak > first, "mesh should grow during ejection: {counts:?}");
    assert!(last < peak, "mesh should shrink after breakup: {counts:?}");
}
