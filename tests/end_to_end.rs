//! Workspace-level integration tests: the full stack (solver → amr →
//! pm-octree → nvbm) exercised end to end, including the paper's
//! headline behaviours.

use pmoctree::amr::{check_balance, extract, OctreeBackend, PmBackend};
use pmoctree::baselines::{EtreeOctree, InCoreOctree};
use pmoctree::cluster::{ClusterSim, Scheme};
use pmoctree::nvbm::{CrashMode, DeviceModel, NvbmArena};
use pmoctree::pm::{PmConfig, PmOctree};
use pmoctree::simfs::SimFs;
use pmoctree::solver::{SimConfig, Simulation};

fn pm_backend(transform: bool) -> PmBackend {
    PmBackend::new(PmOctree::create(
        NvbmArena::new(96 << 20, DeviceModel::default()),
        PmConfig { dynamic_transform: transform, ..PmConfig::default() },
    ))
}

fn sim(steps: usize) -> Simulation {
    Simulation::new(SimConfig { steps, max_level: 4, base_level: 2, ..SimConfig::default() })
}

#[test]
fn full_simulation_crash_restore_resume() {
    // Simulate, crash mid-run, restore, resume, and finish: the restored
    // tree must behave exactly like a live one.
    let s = sim(8);
    let mut b = pm_backend(false);
    s.construct(&mut b);
    for step in 0..4 {
        s.step(&mut b, step);
    }
    let persisted = {
        let mut v = Vec::new();
        b.for_each_leaf(&mut |k, d| v.push((k, *d)));
        v.sort_by_key(|a| a.0);
        v
    };
    // Crash with random partial commits.
    let PmBackend { tree } = b;
    let mut arena = tree.store.arena;
    arena.crash(CrashMode::CommitRandom { p: 0.3, seed: 99 });
    let restored = PmOctree::restore(arena, PmConfig::default()).expect("restore after crash");
    let mut b = PmBackend::new(restored);
    let mut recovered = Vec::new();
    b.for_each_leaf(&mut |k, d| recovered.push((k, *d)));
    recovered.sort_by_key(|a| a.0);
    assert_eq!(recovered, persisted, "restore must reproduce the persisted mesh");
    // Resume the simulation on the restored tree.
    for step in 4..8 {
        s.step(&mut b, step);
    }
    assert!(check_balance(&mut b).is_none(), "resumed simulation keeps 2:1");
    assert!(b.leaf_count() > 64);
}

#[test]
fn mesh_extraction_from_simulated_tree() {
    let s = sim(3);
    let mut b = InCoreOctree::new();
    s.construct(&mut b);
    for step in 0..3 {
        s.step(&mut b, step);
    }
    let mesh = extract(&mut b);
    assert_eq!(mesh.cell_count(), b.leaf_count());
    assert!(mesh.vertex_count() > mesh.cell_count());
    // An adapted mesh has hanging nodes; a 2:1 mesh has bounded ones.
    assert!(mesh.dangling_count() > 0, "adapted mesh should hang nodes");
    assert!(mesh.dangling_count() < mesh.vertex_count() / 2);
    assert_eq!(mesh.anchored.len(), mesh.vertex_count());
}

#[test]
fn transformation_never_changes_results() {
    // The dynamic layout transformation is a pure performance lever: the
    // mesh and field data must be bit-identical with and without it.
    let leaves = |transform: bool| {
        let s = sim(5);
        let mut b = pm_backend(transform);
        if transform {
            b.tree.add_feature(pmoctree::solver::refinement_feature(
                s.interface,
                s.time.clone(),
                s.cfg.band_cells,
            ));
        }
        s.construct(&mut b);
        for step in 0..5 {
            s.step(&mut b, step);
        }
        let mut v = Vec::new();
        b.for_each_leaf(&mut |k, d| v.push((k, *d)));
        v.sort_by_key(|a| a.0);
        v
    };
    assert_eq!(leaves(false), leaves(true));
}

#[test]
fn three_schemes_one_cluster_same_elements() {
    let cfg = SimConfig { steps: 2, max_level: 4, base_level: 2, ..SimConfig::default() };
    let counts: Vec<usize> = [Scheme::pm_default(), Scheme::InCore, Scheme::Etree]
        .into_iter()
        .map(|scheme| {
            let mut c = ClusterSim::new(scheme, 3, cfg, 48 << 20);
            let r = c.run(2);
            r.steps.last().unwrap().elements
        })
        .collect();
    assert_eq!(counts[0], counts[1], "pm vs in-core cluster");
    assert_eq!(counts[0], counts[2], "pm vs etree cluster");
}

#[test]
fn nvbm_wear_stays_bounded() {
    // Deferred deletion + GC block reuse must not hammer one block: after
    // a full run, the hottest wear block stays within a small multiple of
    // the mean (no pathological hotspot besides the header).
    let s = sim(8);
    let mut b = pm_backend(false);
    s.construct(&mut b);
    for step in 0..8 {
        s.step(&mut b, step);
    }
    let stats = &b.tree.store.arena.stats;
    let max = stats.max_wear().0 as f64;
    let mean = stats.mean_wear().max(1.0);
    assert!(max / mean < 3_000.0, "wear hotspot: max {max} vs mean {mean}");
}

#[test]
fn etree_and_incore_survive_full_simulation() {
    let s = sim(6);
    let mut et = EtreeOctree::create(SimFs::on_nvbm());
    let mut ic = InCoreOctree::new();
    s.run(&mut et);
    let r = s.run(&mut ic);
    assert!(r.total_secs() > 0.0);
    assert_eq!(et.leaf_count(), ic.leaf_count());
    // Etree paid vastly more virtual time through the FS interface.
    assert!(et.elapsed_ns() > ic.elapsed_ns());
}

#[test]
fn memory_extension_story() {
    // The headline capability: the working set exceeds the DRAM budget
    // and the simulation still runs, with the overflow in NVBM.
    let cfg = PmConfig {
        c0_capacity_octants: 128, // tiny DRAM
        dynamic_transform: false,
        ..PmConfig::default()
    };
    let mut b =
        PmBackend::new(PmOctree::create(NvbmArena::new(96 << 20, DeviceModel::default()), cfg));
    let s = Simulation::new(SimConfig {
        steps: 4,
        max_level: 5,
        base_level: 2,
        ..SimConfig::default()
    });
    s.construct(&mut b);
    for step in 0..4 {
        s.step(&mut b, step);
    }
    let total = b.leaf_count();
    let in_dram = b.tree.c0_octants();
    assert!(total > 500, "mesh should outgrow DRAM: {total}");
    assert!(in_dram <= 128, "C0 respects its budget: {in_dram}");
    assert!(b.tree.events.evictions > 0, "DRAM pressure must have evicted");
}
