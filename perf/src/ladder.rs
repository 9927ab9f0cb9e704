//! The micro ladder of the traced run: each layer's batch kernels timed
//! alone, on inputs made from the seed. Host ns per item, median of
//! [`REPS`] repetitions. No roofline claim is made: the arrays are sized
//! to exceed the last-level cache where the issue asks for it (2²⁰ Morton
//! keys ≈ 16 MiB, 2²⁰ NVBM lines = 64 MiB) and the LLC size is printed
//! beside them.

use std::hint::black_box;
use std::time::Instant;

use pm_octree::CellData;
use pmoctree_amr::{partition, OctreeBackend};
use pmoctree_morton::{simd, OctKey};
use pmoctree_nvbm::{DeviceModel, NvbmArena, CACHELINE};
use pmoctree_solver::Simulation;

use crate::inputs::{sim_config, Rng, Scale};
use crate::mesh::pm_backend;
use crate::report::Layer;
use crate::stats::median;

const REPS: usize = 5;
/// Keys per `pm-octree` batch and dirty lines per `nvbm` flush/snapshot:
/// the arena's default dirty-line cache capacity.
const BATCH: usize = 4096;
/// Level of the random Morton keys (coordinates below 2¹⁶).
const KEY_LEVEL: u8 = 16;

/// Median host ns of `f` over [`REPS`] runs, divided by `items` (pass
/// 1 000 or 1 000 000 for one call's µs or ms).
fn ns_per_item<T>(items: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples) / items.max(1) as f64
}

fn morton(sc: &Scale, rng: &mut Rng, out: &mut Layer) {
    let n = sc.ladder_keys;
    let items: Vec<([u64; 3], u8)> = (0..n)
        .map(|_| {
            let r = rng.next_u64();
            ([r & 0xFFFF, (r >> 16) & 0xFFFF, (r >> 32) & 0xFFFF], KEY_LEVEL)
        })
        .collect();
    let keys: Vec<OctKey> = simd::encode_many::<3>(&items);
    let mut rotated = keys.clone();
    rotated.rotate_left(n / 3);
    out.insert(
        "morton.encode_ns_per_key",
        ns_per_item(n, || simd::encode_many::<3>(black_box(&items))),
    );
    out.insert("morton.decode_ns_per_key", ns_per_item(n, || simd::decode_many(black_box(&keys))));
    out.insert(
        "morton.cmp_ns_per_key",
        ns_per_item(n, || simd::cmp_keys_many(black_box(&keys), black_box(&rotated))),
    );
    out.insert(
        "morton.argsort_ns_per_key",
        ns_per_item(n, || simd::zorder_argsort(black_box(&keys))),
    );
    let sources = &keys[..n / 4];
    out.insert(
        "morton.neighbors_ns_per_key",
        ns_per_item(sources.len(), || simd::neighbors_many(black_box(sources), false)),
    );
}

fn nvbm(sc: &Scale, rng: &mut Rng, out: &mut Layer) {
    let n = sc.ladder_keys;
    // One line of slack below and the recorder ring above stay untouched.
    let base = 1u64 << 20;
    let mut arena = NvbmArena::new(n * CACHELINE + (2 << 20), DeviceModel::default());
    // A random permutation of the `n` distinct lines.
    let mut order: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let offset = |line: u64| base + line * CACHELINE as u64;
    let line = [0xA5u8; CACHELINE];
    let t = Instant::now();
    for &l in &order {
        arena.write(offset(l), &line);
    }
    out.insert("nvbm.write_ns_per_line", t.elapsed().as_nanos() as f64 / n as f64);
    let mut buf = [0u8; CACHELINE];
    let t = Instant::now();
    for &l in &order {
        arena.read(offset(l), &mut buf);
    }
    black_box(buf);
    out.insert("nvbm.read_ns_per_line", t.elapsed().as_nanos() as f64 / n as f64);

    // Flush and snapshot with the dirty-line cache exactly full.
    arena.flush_all();
    let dirty = BATCH.min(n);
    let fill = |arena: &mut NvbmArena| {
        for &l in &order[..dirty] {
            arena.write(offset(l), &line);
        }
        assert_eq!(arena.dirty_lines(), dirty);
    };
    fill(&mut arena);
    out.insert("nvbm.snapshot_us", ns_per_item(1000, || black_box(arena.snapshot()).capacity()));
    let mut flushes = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        fill(&mut arena);
        let t = Instant::now();
        arena.flush_all();
        flushes.push(t.elapsed().as_nanos() as f64 / dirty as f64);
    }
    out.insert("nvbm.flush_ns_per_line", median(&flushes));
}

fn octree(sc: &Scale, seed: u64, out: &mut Layer) {
    let sim = Simulation::new(sim_config(seed, sc.ladder_level, 1));
    let mut b = pm_backend(&sim, 64 << 20);
    sim.construct(&mut b);
    b.end_of_step(0);
    let leaves = b.leaf_keys_sorted();
    let batch: Vec<OctKey> =
        leaves.iter().copied().step_by((leaves.len() / BATCH).max(1)).take(BATCH).collect();
    let n = batch.len();

    // Refine then coarsen the same keys: the tree is back where it was
    // after every repetition.
    let (mut refine, mut coarsen) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for _ in 0..REPS {
        let t = Instant::now();
        let ok = b.refine_many(&batch);
        refine.push(t.elapsed().as_nanos() as f64 / n as f64);
        assert!(ok.iter().all(|&s| s), "ladder refine_many rejected a leaf");
        let t = Instant::now();
        let ok = b.coarsen_many(&batch);
        coarsen.push(t.elapsed().as_nanos() as f64 / n as f64);
        assert!(ok.iter().all(|&s| s), "ladder coarsen_many rejected a family");
    }
    out.insert("pm-octree.refine_ns_per_key", median(&refine));
    out.insert("pm-octree.coarsen_ns_per_key", median(&coarsen));
    let payloads: Vec<(OctKey, CellData)> = batch
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, CellData { pressure: i as f64, ..CellData::default() }))
        .collect();
    out.insert(
        "pm-octree.set_data_ns_per_key",
        ns_per_item(n, || b.tree.set_data_many(black_box(&payloads))),
    );
    out.insert(
        "pm-octree.leaf_index_ms",
        ns_per_item(1_000_000, || {
            b.tree.invalidate_leaf_index();
            b.tree.leaf_keys_sorted()
        }),
    );
    out.insert(
        "pm-octree.lookup_ns_per_key",
        ns_per_item(n, || b.tree.containing_leaf_many(black_box(&batch))),
    );
    out.insert(
        "pm-octree.get_data_ns_per_key",
        ns_per_item(n, || b.tree.get_data_many(black_box(&batch))),
    );
    out.insert("amr.partition_ms", ns_per_item(1_000_000, || partition(&mut b, 8)));
}

/// Size of the last-level cache as sysfs reports it, for the reader to
/// set beside the ladder's array sizes.
fn llc_size() -> String {
    (0..=4)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Run every rung and add its metrics to `out`.
pub fn run(sc: &Scale, seed: u64, out: &mut Layer) {
    let mut rng = Rng::new(seed, 4);
    println!(
        "# ladder: {} Morton keys ({} MiB), {} NVBM lines ({} MiB), LLC {}",
        sc.ladder_keys,
        (sc.ladder_keys * std::mem::size_of::<OctKey>()) >> 20,
        sc.ladder_keys,
        (sc.ladder_keys * CACHELINE) >> 20,
        llc_size()
    );
    morton(sc, &mut rng, out);
    nvbm(sc, &mut rng, out);
    octree(sc, seed, out);
}
