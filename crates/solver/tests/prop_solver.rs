//! Property tests for the droplet-ejection workload: the analytic
//! interface is physically sane at every time, and the solver sweeps
//! preserve field invariants on arbitrary meshes.

use pm_octree::{PmConfig, PmOctree};
use pmoctree_amr::gerris::ftt_cell_refine;
use pmoctree_amr::{construct_uniform, OctreeBackend, PmBackend};
use pmoctree_baselines::{EtreeOctree, InCoreOctree};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{DeviceModel, NvbmArena};
use pmoctree_simfs::SimFs;
use pmoctree_solver::{advect, relax_pressure, DropletEjection, SimConfig, Simulation};
use proptest::prelude::*;

/// A PM backend whose C0 holds `c0` octants, so a sweep meets leaves in
/// both tiers (or, at 0, on NVBM only).
fn pm_backend(c0: usize) -> PmBackend {
    PmBackend::new(PmOctree::create(
        NvbmArena::new(16 << 20, DeviceModel::default()),
        PmConfig {
            dynamic_transform: false,
            seed_c0: c0 > 0,
            c0_capacity_octants: c0,
            ..PmConfig::default()
        },
    ))
}

/// Backend `kind`: 0 PM, 1 in-core, 2 Etree.
fn backend(kind: usize) -> Box<dyn OctreeBackend> {
    match kind {
        0 => Box::new(pm_backend(128)),
        1 => Box::new(InCoreOctree::new()),
        _ => Box::new(EtreeOctree::create(SimFs::on_nvbm())),
    }
}

/// A starting pressure drawn from the key: zero, values within a few
/// convergence floors of zero (so relaxation stops after 0, 1, 2 or 3
/// iterations), and large values of either sign.
fn start_pressure(k: OctKey, seed: u64) -> f64 {
    const P: [f64; 9] = [0.0, 1e-7, -4e-7, 2.5e-6, -3e-6, 7e-6, 0.3, -1.7, 2.0];
    let mut h = (k.level() as u64) ^ (pmoctree_morton::anchor::<3>(&k) << 5) ^ seed;
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    P[(h % P.len() as u64) as usize]
}

/// Build a random mesh on `b`: a uniform base, balanced refines along
/// `paths`, the interface at `t`, persisted; then start pressures from
/// `seed`, stored on every leaf (so on PM each leaf is the current
/// epoch's own, as after a step's `advect`).
fn grow(b: &mut dyn OctreeBackend, base: u8, paths: &[Vec<usize>], t: f64, seed: u64) {
    construct_uniform(b, base);
    for p in paths {
        let k = p.iter().fold(OctKey::root(), |k, &i| k.child(i));
        ftt_cell_refine(b, k);
    }
    advect(b, &DropletEjection::default(), t);
    b.end_of_step(0);
    b.update_leaves(&mut |k, d| Some([d[0], start_pressure(k, seed), d[2], d[3]]));
}

/// Every leaf's key and payload bits, in Z-order.
fn payload_bits(b: &mut dyn OctreeBackend) -> Vec<(OctKey, [u64; 4])> {
    let mut out = Vec::new();
    b.for_each_leaf(&mut |k, d| out.push((k, d.map(f64::to_bits))));
    out.sort_by_key(|e| e.0);
    out
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `iters` relaxation iterations in one walk leave every leaf's
    /// payload bit-equal to `iters` one-iteration walks on a twin mesh,
    /// and count the same per-iteration writes, on every backend.
    #[test]
    fn folded_relaxation_equals_separate_passes(
        kind in 0usize..3,
        base in 1u8..4,
        paths in prop::collection::vec(prop::collection::vec(0usize..8, 0..5), 0..12),
        t in 0.05f64..1.0,
        seed in any::<u64>(),
        iters in 0usize..=4,
    ) {
        let (mut folded, mut passes) = (backend(kind), backend(kind));
        for b in [&mut folded, &mut passes] {
            grow(b.as_mut(), base, &paths, t, seed);
            // Persisted again: the relaxation copies shared leaves.
            b.end_of_step(1);
        }
        let name = folded.name();
        prop_assert_eq!(payload_bits(folded.as_mut()), payload_bits(passes.as_mut()), "{} twins", name);
        let writes = relax_pressure(folded.as_mut(), iters);
        let separate: usize = (0..iters).map(|_| relax_pressure(passes.as_mut(), 1)).sum();
        prop_assert_eq!(writes, separate, "{} write count", name);
        prop_assert_eq!(payload_bits(folded.as_mut()), payload_bits(passes.as_mut()), "{} payloads", name);
    }
}

/// On NVBM-resident leaves, three relaxation iterations read exactly the
/// NVBM and DRAM lines of one leaf walk: the iterations share one visit,
/// and storing a leaf of the current epoch reads nothing.
#[test]
fn relaxation_reads_one_walk() {
    let paths: Vec<Vec<usize>> = vec![vec![0, 7], vec![3, 4, 1], vec![6, 0, 2], vec![7]];
    for t in [0.2, 0.45, 0.8] {
        let (mut walked, mut relaxed) = (pm_backend(0), pm_backend(0));
        for b in [&mut walked, &mut relaxed] {
            grow(b, 3, &paths, t, 11);
            // A current leaf index: no query in the measured call rebuilds it.
            b.leaf_keys_sorted();
        }
        let lines = |b: &PmBackend| {
            let s = b.mem_stats();
            (s.nvbm.read_lines, s.dram.read_lines)
        };
        let before = lines(&walked);
        walked.for_each_leaf(&mut |_, _| {});
        let walk = (lines(&walked).0 - before.0, lines(&walked).1 - before.1);
        let before = lines(&relaxed);
        let writes = relax_pressure(&mut relaxed, 3);
        let relax = (lines(&relaxed).0 - before.0, lines(&relaxed).1 - before.1);
        assert!(writes > relaxed.leaf_count(), "t={t}: {writes} writes is no multi-iteration case");
        assert_eq!(relax, walk, "t={t}: (NVBM, DRAM) lines read");
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
