//! Regenerate every table and figure of the paper's evaluation at
//! laptop scale, and run the two crash sweeps. Usage is [`USAGE`]; an
//! unknown subcommand or option, a `--trace` without a FILE, or a second
//! positional other than `trace-check`'s FILE prints it and exits 2.
//!
//! Each experiment prints its table (`fmt::table` renders every row table)
//! and writes its result to `BENCH_<experiment>.json` in the current
//! directory (`json::write_bench_json`). At the default scale, the stdout
//! of `repro all` is `repro_results.txt` byte for byte, and `ci.sh` diffs
//! the two. `--quick` shrinks problem sizes for tests. `--workers N` pins
//! the worker pool (default: `RAYON_NUM_THREADS` or the machine's cores);
//! by the determinism invariant it changes only wall-clock time.
//! `write_fraction` also writes `BENCH_wear.json`, the droplet driver's
//! per-region/per-phase wear attribution, whole on every run.
//!
//! Not part of `all`:
//! - `crash-sweep` checks recovery at every crash opportunity of a droplet
//!   workload under every crash mode (`BENCH_crash_sweep.json`), then at
//!   every opportunity of the multi-tenant service front-end (`svc::*`
//!   failpoints, batch all-or-nothing oracle). It exits 1 on any contract
//!   violation.
//! - `droplet` runs the droplet workload traced, prints its span
//!   attribution and per-timestep tables and writes `BENCH_droplet.json`;
//!   `--trace FILE` also exports the journal as Chrome trace-event JSON
//!   (load in `chrome://tracing` or Perfetto).
//! - `trace-check FILE` validates such a trace or, for a `BENCH_*.json`
//!   document, its shape (wear documents need all four regions and the
//!   16-bucket histogram); it exits 1 if the file is malformed.
//!
//! The multi-tenant service workload (Zipf-skewed tenants, MVCC snapshot
//! rereads, quota rejections, wear-GC relocations) is the benchmark
//! package's `perf --workload service_zipf`.

use pmoctree_bench::fmt::*;
use pmoctree_bench::json::*;
use pmoctree_bench::*;

const USAGE: &str = "\
usage: repro [table2|fig3|write_fraction|layout|fig6|fig7|fig8|fig9|fig10|fig11|recovery|ablations|all]
             [--quick] [--workers N]
       repro crash-sweep [--smoke]
       repro droplet [--quick] [--trace out.json]
       repro trace-check FILE
";

/// Every subcommand `main` dispatches on.
const SUBCOMMANDS: &str = "table2 fig3 write_fraction layout fig6 fig7 fig8 fig9 fig10 fig11 \
                           recovery ablations all crash-sweep droplet trace-check";

struct Scale {
    fig3_steps: usize,
    fig3_level: u8,
    weak_points: Vec<(usize, u8)>,
    strong_points: Vec<(usize, u8)>,
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
            strong_points: [2, 4, 8].map(|p| (p, 5)).to_vec(),
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
            strong_points: [2, 4, 8, 16, 32].map(|p| (p, 6)).to_vec(),
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

    // `--trace` and `--workers` consume a value, so the value must not be
    // mistaken for the positional subcommand.
    let (mut quick, mut smoke) = (false, false);
    let mut positionals: Vec<String> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--smoke" => smoke = true,
            "--trace" => match it.next().filter(|v| !v.starts_with("--")) {
                Some(path) => trace_path = Some(path.clone()),
                None => fail(2, format!("repro: --trace needs a file\n{USAGE}")),
            },
            "--workers" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => rayon::set_num_threads(n),
                _ => fail(2, "usage: repro --workers N (N >= 1)\n"),
            },
            _ if a.starts_with("--") => fail(2, format!("repro: unknown option {a:?}\n{USAGE}")),
            _ => positionals.push(a.clone()),
        }
    }
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let what = positionals.first().cloned().unwrap_or_else(|| "all".into());
    if !SUBCOMMANDS.split_whitespace().any(|s| s == what) {
        fail(2, format!("repro: unknown subcommand {what:?}\n{USAGE}"));
    }
    // Only `trace-check` takes a second positional (its FILE).
    if let Some(extra) = positionals.get(if what == "trace-check" { 2 } else { 1 }) {
        fail(2, format!("repro: unexpected argument {extra:?}\n{USAGE}"));
    }
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
        write_bench_json("write_fraction", &w);
        // Wear attribution rides along: write_fraction itself runs on
        // DRAM snapshots, so an NVBM droplet run supplies the per-phase
        // per-region bytes-written and the hottest-block report.
        let run = droplet_untraced(scale.steps, scale.recovery_level);
        println!("NVBM wear attribution (droplet driver):");
        println!("{}", wear_str(&run.wear));
        write_bench_json("wear", &WearDoc::new("droplet", &run.wear));
    }
    if all || what == "layout" {
        println!("{}", layout_str(&layout_ablation()));
    }
    if all || what == "fig6" || what == "fig7" {
        let rows = scaling(&scale.weak_points, scale.steps);
        let title = "Fig 6/7: weak scaling (elements grow with processors; breakdown per scheme)";
        println!("{}", scaling_str(title, &rows));
        write_bench_json("fig6", &Rows(&rows));
    }
    if all || what == "fig8" || what == "fig9" {
        let rows = scaling(&scale.strong_points, scale.steps);
        write_bench_json("fig8", &Rows(&rows));
        let title = "Fig 8/9: strong scaling (fixed problem size, varying processors)";
        println!("{}", scaling_str(title, &rows));
        // Ideal-speedup companion (Fig 8a).
        println!("{}", speedup_str(&rows));
    }
    if all || what == "fig10" {
        let rows = fig10_dram_size(&scale.fig10_sizes, scale.fig10_level, scale.steps);
        println!("{}", fig10_str(&rows));
        write_bench_json("fig10", &Rows(&rows));
    }
    if all || what == "fig11" {
        let rows = fig11_transform(&scale.fig11_levels, 0.3, 8);
        println!("{}", fig11_str(&rows));
        write_bench_json("fig11", &Rows(&rows));
    }
    if all || what == "recovery" {
        let rows = recovery(scale.recovery_level, 12);
        println!("{}", recovery_str(&rows));
        write_bench_json("recovery", &Rows(&rows));
    }
    if all || what == "ablations" {
        println!("{}", sampling_str(&ablation_sampling(&[1, 10, 100, 1000])));
        println!("{}", versions_str(&ablation_versions(5, 8, 4)));
        println!("{}", snapshot_interval_str(&ablation_snapshot_interval(&[1, 2, 5, 10], 20, 4)));
    }
    if what == "crash-sweep" {
        let cfg = if smoke || quick { CrashSweepConfig::smoke() } else { CrashSweepConfig::full() };
        let sweep = crash_sweep(&cfg);
        println!("{}", crash_sweep_str(&sweep));
        write_bench_json("crash_sweep", &CrashSweepDoc::new(&sweep));
        let violations = sweep.total_violations();
        if violations > 0 {
            fail(1, format!("crash sweep found {violations} contract violations\n"));
        }
        let svc = service_crash_sweep(&cfg);
        println!("{}", crash_sweep_str(&svc));
        if svc.total_violations() > 0 {
            fail(1, format!("service crash sweep found {} violations\n", svc.total_violations()));
        }
        // The log-structured heap's failpoints must appear in both
        // sweeps' opportunity spaces — a sweep that never crossed them
        // proved nothing about the log's crash surface.
        for label in ["heap::append", "heap::compact", "wear::relocate"] {
            for (sweep_name, counts) in
                [("droplet", &sweep.label_counts), ("service", &svc.label_counts)]
            {
                if !counts.iter().any(|(l, n)| l == label && *n > 0) {
                    let msg = format!("failpoint {label} fired no opportunities");
                    fail(1, format!("crash sweep ({sweep_name}): {msg}\n"));
                }
            }
        }
    }
    if what == "droplet" {
        let run = droplet_traced(scale.steps, scale.recovery_level);
        println!("{}", droplet_str(&run));
        write_bench_json("droplet", &run.summary);
        if let Some(path) = &trace_path {
            let json = pmoctree_obsv::chrome::trace_json(&[(0, run.events.clone())]);
            match std::fs::write(path, &json) {
                Ok(()) => println!("wrote Chrome trace to {path} ({} bytes)", json.len()),
                Err(e) => fail(1, format!("could not write {path}: {e}\n")),
            }
        }
    }
    if what == "trace-check" {
        let Some(path) = positionals.get(1) else { fail(2, "usage: repro trace-check FILE\n") };
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(1, format!("could not read {path}: {e}\n")));
        let verdict = if looks_like_bench_doc(&text) {
            check_bench_doc(&text)
                .map(|kind| format!("{path}: valid BENCH document (experiment {kind:?})\n"))
                .map_err(|e| format!("{path}: INVALID bench document: {e}\n"))
        } else {
            check_trace(&text)
                .map(|summary| trace_check_str(path, &summary))
                .map_err(|e| format!("{path}: INVALID trace: {e}\n"))
        };
        match verdict {
            Ok(ok) => print!("{ok}"),
            Err(e) => fail(1, e),
        }
    }
}

/// Print `msg` to stderr and exit with `code`.
fn fail(code: i32, msg: impl std::fmt::Display) -> ! {
    eprint!("{msg}");
    std::process::exit(code)
}
