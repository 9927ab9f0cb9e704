//! `cluster_r8_l9`: eight PM-octree ranks in bulk-synchronous steps.
//! Unit = global element-step (owned elements summed over the BSP steps),
//! unit operation = one `ClusterSim::step`.

use std::time::Instant;

use pmoctree_amr::check_balance;
use pmoctree_cluster::{ClusterSim, ClusterStep, Scheme};
use pmoctree_nvbm::MemStats;
use pmoctree_solver::SimConfig;

use crate::inputs::{sim_config, Scale};
use crate::mesh::journal_layer;
use crate::report::{MemMark, Pass, Window};
use crate::spans::{Spans, OP};
use crate::stats::{median, ratio};

fn new_cluster(cfg: SimConfig, sc: &Scale) -> ClusterSim {
    ClusterSim::new(Scheme::pm_default(), sc.ranks, cfg, sc.rank_arena)
}

/// The ranks' device statistics folded into one block.
fn merged_stats(c: &ClusterSim) -> MemStats {
    let mut all = MemStats::new(0);
    for r in &c.ranks {
        all.merge(&r.backend.mem_stats());
    }
    all
}

/// The cluster's virtual clock: the slowest rank's.
fn virt_now(c: &ClusterSim) -> u64 {
    c.ranks.iter().map(|r| r.backend.elapsed_ns()).max().unwrap_or(0)
}

/// Host seconds of the first steps of a fresh cluster on `workers` threads.
fn first_steps_s(cfg: SimConfig, sc: &Scale, workers: usize) -> f64 {
    rayon::set_num_threads(workers);
    let mut c = new_cluster(cfg, sc);
    let t = Instant::now();
    for s in 0..sc.cluster_steps.min(3) {
        c.step(s);
    }
    t.elapsed().as_secs_f64()
}

/// One fresh pass.
pub fn pass(seed: u64, sc: &Scale, spans: &mut Spans, _first: bool) -> Pass {
    let cfg = sim_config(seed, sc.level, sc.cluster_steps);

    let mut window = Window::new();
    let mut c = window.set_up(|| new_cluster(cfg, sc));

    if spans.enabled() {
        c.enable_tracing();
    }
    let mark0 = MemMark::of(&merged_stats(&c));
    let v0 = virt_now(&c);
    let mut steps: Vec<ClusterStep> = Vec::with_capacity(sc.cluster_steps);
    let mut step_virt = Vec::with_capacity(sc.cluster_steps);
    for s in 0..sc.cluster_steps {
        let v = virt_now(&c);
        window.resume();
        let op = spans.open(OP);
        steps.push(spans.run("cluster.step", || c.step(s)));
        spans.close(op);
        window.pause(s as u32, true); // step `s` is the same work in every pass
        step_virt.push(virt_now(&c) - v);
    }

    let mut p = Pass::new(window);
    p.units = steps.iter().map(|s| s.elements as u64).sum();
    p.ops = steps.len() as u64;
    p.virt_ns = virt_now(&c) - v0;
    let stats1 = merged_stats(&c);
    let mark1 = MemMark::of(&stats1);
    p.nvbm_bytes = mark1.bytes_since(&mark0);
    for (s, v) in steps.iter().zip(&step_virt) {
        p.fingerprint.extend([s.elements as u64, s.migrated as u64, *v]);
    }
    p.checks.attempted += steps.len() as u64; // a BSP step cannot return an error

    if spans.enabled() {
        let n = steps.len() as f64;
        let total_s: f64 = steps.iter().map(ClusterStep::total_s).sum();
        let share = |f: fn(&ClusterStep) -> f64| ratio(steps.iter().map(f).sum(), total_s);
        let owned: Vec<f64> = c.ranks.iter_mut().map(|r| r.owned_leaf_count() as f64).collect();
        let mean_owned = owned.iter().sum::<f64>() / owned.len() as f64;
        let l = &mut p.layer;
        l.insert("cluster.step_ms_p50", median(&spans.durations_ms("cluster.step")));
        l.insert("cluster.virt_partition_share", share(|s| s.partition_s));
        l.insert("cluster.virt_balance_share", share(|s| s.balance_s));
        l.insert("cluster.virt_persist_share", share(|s| s.persist_s));
        l.insert(
            "cluster.migrated_per_step",
            steps.iter().map(|s| s.migrated).sum::<usize>() as f64 / n,
        );
        l.insert("cluster.imbalance", ratio(owned.iter().copied().fold(0.0, f64::max), mean_owned));
        mark1.layer_since(&mark0, &stats1, l);
        l.insert("pm-octree.persist_bytes_per_leaf", ratio(p.nvbm_bytes as f64, p.units as f64));
        let journals: Vec<_> = c.trace_threads().into_iter().map(|(_, events)| events).collect();
        journal_layer(&journals, l);
        // Serial global phases bound this; with one worker it is 1 by definition.
        let workers = rayon::current_num_threads();
        let speedup = if workers > 1 {
            let serial = first_steps_s(cfg, sc, 1);
            ratio(serial, first_steps_s(cfg, sc, workers))
        } else {
            1.0
        };
        l.insert("cluster.worker_speedup", speedup);
        p.host_layer();
    }

    // Output checks, after the last persist: every rank's local tree.
    for r in &mut c.ranks {
        let unbalanced = check_balance(r.backend.as_mut());
        p.checks.expect(unbalanced.is_none(), || {
            format!("rank {}: 2:1 balance violated at {unbalanced:?}", r.id)
        });
    }
    p
}
