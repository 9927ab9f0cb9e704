//! Regenerate every table and figure of the paper's evaluation at
//! laptop scale. Usage:
//!
//! ```text
//! repro [table2|fig3|write_fraction|layout|fig6|fig7|fig8|fig9|fig10|fig11|recovery|ablations|all]
//! [--quick] [--workers N]
//! repro crash-sweep [--smoke]
//! repro recovery-rt [--smoke]
//! repro service [--smoke]
//! repro wear-level [--smoke]
//! repro droplet [--quick] [--trace out.json] [--metrics out.prom]
//! repro blackbox [--quick]
//! repro cluster-smoke [--workers N]
//! repro trace-check FILE
//! ```
//!
//! `--workers N` pins the worker-pool size for any subcommand (default:
//! `RAYON_NUM_THREADS` or the machine's cores). By the determinism
//! invariant it may only change wall-clock time, never results.
//!
//! `cluster-smoke` (not part of `all`) runs a fixed 4-rank scaling point
//! and writes `BENCH_cluster_smoke.json` containing virtual-time results
//! only; `ci.sh` runs it under 1 and 4 workers and fails if the two files
//! differ by a byte.
//!
//! `crash-sweep` (not part of `all`) enumerates every crash opportunity
//! of a droplet workload under every crash mode and verifies recovery at
//! each one, writing `BENCH_crash_sweep.json`; it then repeats the sweep
//! over the multi-tenant service front-end (`svc::*` failpoints, batch
//! all-or-nothing oracle). It exits non-zero on any contract violation.
//!
//! `service` (not part of `all`) drives the multi-tenant versioned state
//! service with a Zipf-skewed workload (≥100 tenants, s≈1.0): batched
//! commands, MVCC snapshot pin/reread gates, per-tenant quotas. Writes
//! throughput, p50/p99 virtual-clock latency, and bytes-per-commit to
//! `BENCH_service.json`; exits non-zero if a pinned snapshot ever
//! changes. Single-threaded and virtual-clock only, so the JSON is part
//! of the `ci.sh` determinism gates.
//!
//! `wear-level` (not part of `all`) measures the log-structured region
//! manager's endurance levers: rt-heap bytes written per commit on the
//! service workload and wear-histogram flatness on the droplet workload,
//! both against recorded pre-log baselines, plus the wear GC's
//! relocation counters. Writes `BENCH_wear_level.json` and merges the
//! `wear-level` entry (with its `wear_leveling` section) into
//! `BENCH_wear.json`; exits non-zero if a pinned snapshot changed under
//! relocation or the wear GC never relocated a blob. Virtual-clock
//! deterministic, part of the `ci.sh` 1-vs-4-worker byte-diff gates.
//!
//! `recovery-rt` (not part of `all`) exercises the pm-rt
//! orthogonal-persistence runtime: sampled crashes (including at
//! `rt::commit`) must resume through `pm_restore` to a byte-identical
//! report, and whole-application restart must beat the file-checkpoint
//! baseline ≥10x. Writes `BENCH_recovery_rt.json`; exits non-zero if
//! either claim fails.
//!
//! `droplet` (not part of `all`) runs the droplet workload with tracing
//! on, prints the span attribution and per-timestep tables, and writes
//! `BENCH_droplet.json`; `--trace` additionally exports the journal as
//! Chrome trace-event JSON (load in `chrome://tracing` or Perfetto) and
//! `--metrics` dumps a Prometheus text snapshot. `trace-check` validates
//! such an exported trace file and exits non-zero if it is malformed.
//!
//! `blackbox` (not part of `all`) runs the droplet workload with the
//! persistent flight recorder enabled, recovers the ring from the
//! arena's own media, prints the tail of the recovered entries, and
//! measures the recorder's virtual-clock overhead against a
//! recorder-off run of the same workload. Writes `BENCH_blackbox.json`
//! (virtual-clock deterministic, part of the `ci.sh` 1-vs-4-worker
//! byte-diff gates); exits non-zero if the recovered dump is malformed
//! or the overhead exceeds the 5% bound.
//!
//! `trace-check FILE` validates an exported Chrome trace, or — when the
//! file is a `BENCH_*.json` document carrying an `"experiment"` key —
//! checks that document's shape instead (wear reports must carry all
//! four regions and the 16-bucket wear histogram).
//!
//! `--quick` shrinks problem sizes (used by CI/tests); default sizes take
//! a few minutes. Output is plain text in the papers' row format —
//! `repro all | tee results.txt` regenerates the data behind
//! EXPERIMENTS.md.

use pmoctree_bench::fmt::*;
use pmoctree_bench::json::*;
use pmoctree_bench::*;

struct Scale {
    fig3_steps: usize,
    fig3_level: u8,
    weak_points: Vec<(usize, u8)>,
    strong_procs: Vec<usize>,
    strong_level: u8,
    fig10_level: u8,
    fig10_sizes: Vec<usize>,
    fig11_levels: Vec<u8>,
    steps: usize,
    recovery_level: u8,
}

impl Scale {
    fn quick() -> Self {
        Scale {
            fig3_steps: 10,
            fig3_level: 4,
            weak_points: vec![(1, 3), (4, 4), (16, 5)],
            strong_procs: vec![2, 4, 8],
            strong_level: 5,
            fig10_level: 5,
            fig10_sizes: vec![32, 128, 512, 4096],
            fig11_levels: vec![4, 5, 6],
            steps: 3,
            recovery_level: 4,
        }
    }

    fn full() -> Self {
        Scale {
            fig3_steps: 40,
            fig3_level: 5,
            weak_points: vec![(1, 3), (4, 4), (16, 5), (64, 6)],
            strong_procs: vec![2, 4, 8, 16, 32],
            strong_level: 6,
            fig10_level: 6,
            fig10_sizes: vec![32, 128, 512, 4096, 16384],
            fig11_levels: vec![4, 5, 6, 7],
            steps: 10,
            recovery_level: 5,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };

    // `--trace`, `--metrics` and `--workers` consume a value, so the
    // value must not be mistaken for the positional subcommand.
    let mut positionals: Vec<String> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace_path = it.next().cloned(),
            "--metrics" => metrics_path = it.next().cloned(),
            "--workers" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => rayon::set_num_threads(n),
                _ => {
                    eprintln!("usage: repro --workers N (N >= 1)");
                    std::process::exit(2);
                }
            },
            _ if a.starts_with("--") => {}
            _ => positionals.push(a.clone()),
        }
    }
    let what = positionals.first().cloned().unwrap_or_else(|| "all".into());
    let all = what == "all";

    if all || what == "table2" {
        println!("{}", table2_str(&table2()));
    }
    if all || what == "fig3" {
        println!("{}", fig3_str(&fig3_overlap(scale.fig3_steps, scale.fig3_level)));
    }
    if all || what == "write_fraction" {
        let w = write_fraction(8, 4);
        println!("{}", write_fraction_str(&w));
        write_bench_json("write_fraction", &write_fraction_json(&w));
        // Wear attribution rides along: write_fraction itself runs on
        // DRAM snapshots, so an NVBM droplet run supplies the per-phase
        // per-region bytes-written and the hottest-block report.
        let run = droplet_untraced(scale.steps, scale.recovery_level);
        println!("NVBM wear attribution (droplet driver):");
        println!("{}", wear_str(&run.wear));
        write_wear_json("droplet", &run.wear);
    }
    if all || what == "layout" {
        println!("{}", layout_str(&layout_ablation()));
    }
    if all || what == "fig6" || what == "fig7" {
        let rows = fig6_weak_scaling(&scale.weak_points, scale.steps);
        println!(
            "{}",
            scaling_str(
                "Fig 6/7: weak scaling (elements grow with processors; breakdown per scheme)",
                &rows
            )
        );
        write_bench_json("fig6", &scaling_json("fig6", &rows));
    }
    if all || what == "fig8" || what == "fig9" {
        let rows = fig8_strong_scaling(&scale.strong_procs, scale.strong_level, scale.steps);
        write_bench_json("fig8", &scaling_json("fig8", &rows));
        println!(
            "{}",
            scaling_str("Fig 8/9: strong scaling (fixed problem size, varying processors)", &rows)
        );
        // Ideal-speedup companion (Fig 8a): PM rows normalized to the
        // smallest processor count.
        let pm: Vec<&ScalingRow> = rows.iter().filter(|r| r.scheme == "pm-octree").collect();
        if let Some(base) = pm.first() {
            println!("Fig 8 ideal-speedup check (pm-octree):");
            println!("procs | exec (s) | speedup | ideal");
            for r in &pm {
                println!(
                    "{:>5} | {:>8.3} | {:>7.2} | {:>5.2}",
                    r.procs,
                    r.exec_secs,
                    base.exec_secs / r.exec_secs,
                    r.procs as f64 / base.procs as f64
                );
            }
            println!();
        }
    }
    if all || what == "fig10" {
        let rows = fig10_dram_size(&scale.fig10_sizes, scale.fig10_level, scale.steps);
        println!("{}", fig10_str(&rows));
        write_bench_json("fig10", &fig10_json(&rows));
    }
    if all || what == "fig11" {
        let rows = fig11_transform(&scale.fig11_levels, 0.3, 8);
        println!("{}", fig11_str(&rows));
        write_bench_json("fig11", &fig11_json(&rows));
    }
    if all || what == "recovery" {
        let rows = recovery(scale.recovery_level, 12);
        println!("{}", recovery_str(&rows));
        write_bench_json("recovery", &recovery_json(&rows));
    }
    if all || what == "ablations" {
        println!("{}", sampling_str(&ablation_sampling(&[1, 10, 100, 1000])));
        println!("{}", versions_str(&ablation_versions(5, 8, 4)));
        println!("{}", snapshot_interval_str(&ablation_snapshot_interval(&[1, 2, 5, 10], 20, 4)));
    }
    if what == "crash-sweep" {
        let cfg = if args.iter().any(|a| a == "--smoke") || quick {
            CrashSweepConfig::smoke()
        } else {
            CrashSweepConfig::full()
        };
        let sweep = crash_sweep(&cfg);
        println!("{}", crash_sweep_str(&sweep));
        write_bench_json("crash_sweep", &crash_sweep_json(&sweep));
        if sweep.total_violations() > 0 {
            eprintln!("crash sweep found {} contract violations", sweep.total_violations());
            std::process::exit(1);
        }
        if sweep.interleavings == 0 {
            eprintln!(
                "crash sweep fired no per-thread interleaving opportunities: the \
                 domain-parallel sweeps did not run through the sharded path"
            );
            std::process::exit(1);
        }
        let svc = service_crash_sweep(&cfg);
        println!("{}", service_sweep_str(&svc));
        if svc.total_violations() > 0 {
            eprintln!("service crash sweep found {} violations", svc.total_violations());
            std::process::exit(1);
        }
        // The log-structured heap's failpoints must appear in both
        // sweeps' opportunity spaces — a sweep that never crossed them
        // proved nothing about the log's crash surface.
        for label in ["heap::append", "heap::compact", "wear::relocate"] {
            for (sweep_name, counts) in
                [("droplet", &sweep.label_counts), ("service", &svc.label_counts)]
            {
                if !counts.iter().any(|(l, n)| l == label && *n > 0) {
                    eprintln!(
                        "crash sweep ({sweep_name}): failpoint {label} fired no opportunities"
                    );
                    std::process::exit(1);
                }
            }
        }
    }
    if what == "wear-level" {
        let cfg = if args.iter().any(|a| a == "--smoke") || quick {
            WearLevelConfig::smoke()
        } else {
            WearLevelConfig::full()
        };
        let b = wear_level_bench(&cfg);
        println!("{}", wear_level_str(&b));
        write_bench_json("wear_level", &wear_level_json(&b));
        write_wear_json_leveled("wear-level", &b.wear, &b.leveling);
        if !b.service_snapshot_ok {
            eprintln!("wear-level: a pinned snapshot changed under relocation");
            std::process::exit(1);
        }
        if b.leveling.relocations == 0 {
            eprintln!("wear-level: the wear GC never relocated a blob");
            std::process::exit(1);
        }
    }
    if what == "service" {
        let cfg = if args.iter().any(|a| a == "--smoke") || quick {
            ServiceBenchConfig::smoke()
        } else {
            ServiceBenchConfig::full()
        };
        let b = service_bench(&cfg);
        println!("{}", service_str(&b));
        write_bench_json("service", &service_json(&b));
        write_wear_json("service", &b.wear);
        if !b.snapshot_ok {
            eprintln!("service: a pinned snapshot changed under later commits");
            std::process::exit(1);
        }
        if b.tenants < 100 {
            eprintln!("service: acceptance needs >= 100 tenants, ran {}", b.tenants);
            std::process::exit(1);
        }
    }
    if what == "recovery-rt" {
        let cfg = if args.iter().any(|a| a == "--smoke") || quick {
            RecoveryRtConfig::smoke()
        } else {
            RecoveryRtConfig::full()
        };
        let r = recovery_rt(&cfg);
        println!("{}", recovery_rt_str(&r));
        write_bench_json("recovery_rt", &recovery_rt_json(&r));
        if !r.all_identical() {
            eprintln!("recovery-rt: a crashed run did not resume to the identical report");
            std::process::exit(1);
        }
        if r.speedup() < 10.0 {
            eprintln!(
                "recovery-rt: whole-app PM restart only {:.2}x faster than the file baseline",
                r.speedup()
            );
            std::process::exit(1);
        }
    }
    if what == "droplet" {
        let run = droplet_traced(scale.steps, scale.recovery_level);
        println!("{}", droplet_str(&run));
        write_bench_json("droplet", &droplet_json(&run));
        if let Some(path) = &trace_path {
            let json = pmoctree_obsv::chrome::trace_json_with_metrics(
                &[(0, run.events.clone())],
                &run.metrics,
            );
            match std::fs::write(path, &json) {
                Ok(()) => println!("wrote Chrome trace to {path} ({} bytes)", json.len()),
                Err(e) => {
                    eprintln!("could not write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &metrics_path {
            let text = pmoctree_obsv::prom::text(&run.metrics);
            match std::fs::write(path, &text) {
                Ok(()) => println!("wrote Prometheus snapshot to {path}"),
                Err(e) => {
                    eprintln!("could not write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    if what == "blackbox" {
        let b = blackbox(scale.steps, scale.recovery_level);
        print!("{}", blackbox_str(&b));
        write_bench_json("blackbox", &blackbox_json(&b));
        if !b.dump.header_ok || b.dump.entries.is_empty() {
            eprintln!("blackbox: recovered flight-recorder dump is malformed");
            std::process::exit(1);
        }
        if b.overhead.inflation_percent() > 5.0 {
            eprintln!(
                "blackbox: recorder inflates the traced droplet run by {:.2}% (bound: 5%)",
                b.overhead.inflation_percent()
            );
            std::process::exit(1);
        }
    }
    if what == "cluster-smoke" {
        let smoke = cluster_smoke();
        println!("{}", cluster_smoke_str(&smoke));
        write_bench_json("cluster_smoke", &cluster_smoke_json(&smoke));
    }
    if what == "trace-check" {
        let Some(path) = positionals.get(1) else {
            eprintln!("usage: repro trace-check FILE");
            std::process::exit(2);
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("could not read {path}: {e}");
                std::process::exit(1);
            }
        };
        if looks_like_bench_doc(&text) {
            match check_bench_doc(&text) {
                Ok(kind) => println!("{path}: valid BENCH document (experiment {kind:?})"),
                Err(e) => {
                    eprintln!("{path}: INVALID bench document: {e}");
                    std::process::exit(1);
                }
            }
        } else {
            match check_trace(&text) {
                Ok(summary) => print!("{}", trace_check_str(path, &summary)),
                Err(e) => {
                    eprintln!("{path}: INVALID trace: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}
