//! The paper's driving scientific workload: droplet ejection in inkjet
//! printing, run on all three octree implementations side by side.
//!
//! The liquid jet grows from the nozzle, necks by Rayleigh–Plateau
//! instability, pinches off, and breaks into droplets; the adaptive mesh
//! tracks the interface at the finest level. Prints per-step element
//! counts, an ASCII slice of the mesh refinement, and the final
//! virtual-time comparison.
//!
//! ```text
//! cargo run --release --example droplet_ejection
//! ```

use pmoctree::amr::{OctreeBackend, PmBackend};
use pmoctree::baselines::{EtreeOctree, InCoreOctree};
use pmoctree::nvbm::{DeviceModel, NvbmArena};
use pmoctree::pm::{PmConfig, PmOctree};
use pmoctree::simfs::SimFs;
use pmoctree::solver::{SimConfig, Simulation};

/// ASCII rendering of the x = 0.5 slice: one character per finest-level
/// column, showing the deepest refinement level in that column.
fn render_slice(b: &mut dyn OctreeBackend, max_level: u8) -> String {
    let n = 1usize << max_level.min(6);
    let mut depth = vec![vec![0u8; n]; n]; // [z][y]
    b.for_each_leaf(&mut |k, _| {
        let c = k.center();
        if (c[0] - 0.5).abs() < 0.51 * k.extent() {
            let y = ((c[1] * n as f64) as usize).min(n - 1);
            let z = ((c[2] * n as f64) as usize).min(n - 1);
            // A leaf covers several columns when coarse.
            let span = (n >> k.level().min(max_level)).max(1);
            for dz in 0..span {
                for dy in 0..span {
                    let zz = (z / span) * span + dz;
                    let yy = (y / span) * span + dy;
                    depth[zz][yy] = depth[zz][yy].max(k.level());
                }
            }
        }
    });
    let glyphs = [b' ', b'.', b':', b'-', b'=', b'#', b'@', b'%'];
    let mut out = String::new();
    for z in (0..n).rev() {
        for y in 0..n {
            out.push(glyphs[(depth[z][y] as usize).min(glyphs.len() - 1)] as char);
        }
        out.push('\n');
    }
    out
}

fn main() {
    let cfg = SimConfig { steps: 12, max_level: 5, base_level: 2, ..SimConfig::default() };
    let sim = Simulation::new(cfg);

    let mut pm = PmBackend::new(PmOctree::create(
        NvbmArena::new(128 << 20, DeviceModel::default()),
        PmConfig::default(),
    ));
    let mut ic = InCoreOctree::new();
    let mut et = EtreeOctree::create(SimFs::on_nvbm());

    sim.construct(&mut pm);
    sim.construct(&mut ic);
    sim.construct(&mut et);
    println!("constructed: {} elements\n", pm.leaf_count());

    for s in 0..cfg.steps {
        let bp = sim.step(&mut pm, s);
        sim.step(&mut ic, s);
        sim.step(&mut et, s);
        println!(
            "step {s:>2}: {:>6} elements | pm step {:>8.2} virt-ms (refine {:>5.2}, balance {:>5.2}, solve {:>5.2}, persist {:>5.2})",
            bp.leaves,
            bp.total_ns() as f64 * 1e-6,
            bp.refine_ns as f64 * 1e-6,
            bp.balance_ns as f64 * 1e-6,
            bp.solve_ns as f64 * 1e-6,
            bp.persist_ns as f64 * 1e-6,
        );
        if s == 4 || s == cfg.steps - 1 {
            let t = cfg.t0 + cfg.dt * (s as f64 + 1.0);
            println!("\nmesh slice at x=0.5 (t={t:.2}; denser glyph = deeper refinement):");
            println!("{}", render_slice(&mut pm, cfg.max_level));
        }
    }

    println!("final virtual execution time (lower is better):");
    for b in [&mut pm as &mut dyn OctreeBackend, &mut ic, &mut et] {
        println!("  {:<12} {:>10.3} virt-ms", b.name(), b.elapsed_ns() as f64 * 1e-6);
    }
    println!(
        "\npm-octree: {} persists, last overlap {:.0}%, {} layout transformations, max NVBM wear {}",
        pm.tree.events.persists,
        100.0 * pm.tree.events.overlap_ratio(),
        pm.tree.events.transforms,
        pm.tree.store.arena.stats.max_wear().0,
    );
}
