//! Host-clock + virtual-clock benchmark of the PM-octree stack.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! cargo run --release --manifest-path perf/Cargo.toml -- --compare A.jsonl B.jsonl
//! cargo run --release --manifest-path perf/Cargo.toml -- --history COMMIT A.jsonl
//! ```
//!
//! Run from the repository root. See `perf/README.md`.

mod alloc;
mod cluster;
mod compare;
mod droplet;
mod inputs;
mod ladder;
mod mesh;
mod report;
mod restart;
mod service;
mod spans;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Scale;
use report::{Checks, EndToEnd, Layer, Pass};
use spans::Spans;
use spec::{Metric, Spec};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// One workload of `BENCHMARK.json`.
struct Workload {
    name: &'static str,
    /// The work unit `throughput` and `nvbm_bytes_per_unit` count.
    unit: &'static str,
    /// The unit operation `op_ms` times.
    op: &'static str,
    /// Wall seconds of one fresh pass (set-up and output checks included)
    /// on the 2-core reference box; `--seconds` is turned into a whole
    /// number of passes with it, so one `--seconds` is always the same work.
    nominal_pass_s: f64,
    /// One fresh pass. The flag marks the first pass of a run: the one that
    /// makes the output checks too long to repeat in every pass.
    pass: fn(u64, &Scale, &mut Spans, bool) -> Pass,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "droplet_l9",
        unit: "element-step",
        op: "time step",
        nominal_pass_s: 2.4,
        pass: droplet::pass,
    },
    Workload {
        name: "cluster_r8_l9",
        unit: "global element-step",
        op: "BSP step",
        nominal_pass_s: 3.1,
        pass: cluster::pass,
    },
    Workload {
        name: "service_zipf",
        unit: "command",
        op: "256-command batch incl. flush",
        nominal_pass_s: 17.5,
        pass: service::pass,
    },
    Workload {
        name: "restart_l9",
        unit: "element read",
        op: "crash -> first answer",
        nominal_pass_s: 24.0,
        pass: restart::pass,
    },
];

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads every load is generated with: `min(nproc, 2)`.
fn workers() -> usize {
    nproc().min(2)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    history: Option<(String, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        compare: None,
        history: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(value()?.into()),
            "--compare" => a.compare = Some((value()?.into(), value()?.into())),
            "--history" => a.history = Some((value()?, value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// The result of one workload in one run.
struct Outcome {
    /// End-to-end metrics of the untraced passes; its `checks` also tally
    /// the traced pass and the name check.
    e2e: EndToEnd,
    /// Per-layer metrics of the traced pass, complete per `BENCHMARK.json`;
    /// `None` with `--trace 0`.
    layer: Option<BTreeMap<String, f64>>,
}

fn run_workload(w: &Workload, args: &Args, spec: &Spec, sc: &Scale) -> Outcome {
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let passes =
        if sc.quick { 1 } else { (seconds / w.nominal_pass_s).round().clamp(1.0, 32.0) as usize };
    let untraced: Vec<Pass> =
        (0..passes).map(|i| (w.pass)(args.seed, sc, &mut Spans::new(false), i == 0)).collect();
    let windows: Vec<f64> = untraced.iter().map(Pass::window_s).collect();
    let fingerprint = untraced[0].fingerprint.clone();
    let mut e2e = report::fold(untraced);
    let checks = &mut e2e.checks;

    let layer = args.trace.then(|| {
        let (layer, spans) = traced_layer(w, args.seed, sc, &fingerprint, &windows, checks);
        let dir = PathBuf::from("perf/out"); // the command runs from the repository root
        let path = dir.join(format!("trace_{}.json", w.name));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans.chrome_trace()));
        checks.expect(written.is_ok(), || format!("writing {}: {written:?}", path.display()));
        complete(layer, spec, checks)
    });
    Outcome { e2e, layer }
}

/// One traced pass plus the micro ladder: the per-layer metrics they
/// produce and the spans behind them. `windows` are the untraced passes'
/// measured windows, the base of the tracing overhead.
fn traced_layer(
    w: &Workload,
    seed: u64,
    sc: &Scale,
    fingerprint: &[u64],
    windows: &[f64],
    checks: &mut Checks,
) -> (Layer, Spans) {
    let mut spans = Spans::new(true);
    let traced = (w.pass)(seed, sc, &mut spans, true);
    checks.expect(traced.fingerprint == fingerprint, || {
        "traced pass: per-step leaves / virtual ns differ from the untraced passes".into()
    });
    let traced_window_s = traced.window_s();
    checks.absorb(traced.checks);
    let mut layer: Layer = traced.layer;
    ladder::run(sc, seed, &mut layer);
    layer
        .insert("obsv.trace_overhead_ratio", stats::ratio(traced_window_s, stats::median(windows)));
    layer.insert("harness.residual_share", spans.residual_share());
    layer.insert("harness.pass_spread", stats::spread(windows));
    (layer, spans)
}

/// Every per-layer metric of `BENCHMARK.json`, in one map: a metric this
/// workload's layers did not produce reads 0 (the layer was idle); a
/// produced name the file does not declare is a failed check.
fn complete(layer: Layer, spec: &Spec, checks: &mut Checks) -> BTreeMap<String, f64> {
    for name in layer.keys() {
        checks.expect(spec.per_layer.iter().any(|m| m.name == *name), || {
            format!("per-layer metric {name} is not declared in BENCHMARK.json")
        });
    }
    spec.per_layer
        .iter()
        .map(|m| (m.name.clone(), layer.get(m.name.as_str()).copied().unwrap_or(0.0)))
        .collect()
}

fn print_rows(
    workload: &str,
    specs: &[Metric],
    value: impl Fn(&str) -> f64,
    note: impl Fn(&str) -> String,
) {
    for m in specs {
        println!(
            "{workload:<14} {:<34} {:<12} {:<20} {}",
            m.name,
            m.unit,
            value(&m.name),
            note(&m.name)
        );
    }
}

/// The contract's result object, on one line.
fn result_json(specs: &[Metric], value: impl Fn(&str) -> f64, checks: &Checks) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, value(&m.name), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args, spec: &Spec) -> Result<bool, String> {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if spec.workloads != names {
        return Err(format!("BENCHMARK.json workloads {:?} != harness {names:?}", spec.workloads));
    }
    let chosen: Vec<&Workload> = match &args.workload {
        Some(name) => vec![WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name:?}; one of {names:?}"))?],
        None => WORKLOADS.iter().collect(),
    };
    let sc = if args.quick { Scale::quick() } else { Scale::full() };
    rayon::set_num_threads(workers());
    println!(
        "# seed {}  nproc {}  workers {}  scale {}  trace {}",
        args.seed,
        nproc(),
        workers(),
        if sc.quick { "quick (numbers not for comparison)" } else { "full" },
        u8::from(args.trace)
    );
    println!("# {:<12} {:<34} {:<12} {:<20} note", "workload", "metric", "unit", "value");
    let mut all_ok = true;
    for w in chosen {
        let o = run_workload(w, args, spec, &sc);
        let checks = &o.e2e.checks;
        let e2e = |name: &str| o.e2e.metrics[name];
        print_rows(w.name, &spec.end_to_end, e2e, |name| match name {
            "setup_s" => format!("quiet reading of {} set-up(s)", o.e2e.setups),
            "throughput" => format!("{}s/s, quiet reading of {} pass(es)", w.unit, o.e2e.passes),
            "op_ms" => format!(
                "{}, {} a pass, quiet reading of {}..{} repeats",
                w.op, o.e2e.ops, o.e2e.repeats.0, o.e2e.repeats.1
            ),
            "nvbm_bytes_per_unit" => format!("per {}", w.unit),
            _ => String::new(),
        });
        println!(
            "{:<14} {:<34} {:<12} {}/{}",
            w.name, "fail_ratio", "failed/att.", checks.failed, checks.attempted
        );
        if let Some(layer) = &o.layer {
            print_rows(w.name, &spec.per_layer, |name| layer[name], |_| String::new());
        }
        for note in &checks.notes {
            println!("FAILED {}: {note}", w.name);
        }
        all_ok &= checks.failed == 0;
        let line = match &o.layer {
            Some(layer) => result_json(&spec.per_layer, |n| layer[n], checks),
            None => result_json(&spec.end_to_end, e2e, checks),
        };
        if let Some(path) = &args.out {
            let row = format!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"quick\": {}, {}\n",
                w.name,
                args.seed,
                u8::from(args.trace),
                nproc(),
                sc.quick,
                &line[1..]
            );
            append(path, &row)?;
        }
        println!("{line}");
    }
    Ok(all_ok)
}

fn append(path: &std::path::Path, row: &str) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(row.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let spec = Spec::load();
        if let Some((a, b)) = &args.compare {
            compare::compare(&spec, a, b)
        } else if let Some((commit, file)) = &args.history {
            compare::history_row(&spec, commit, file).map(|row| {
                println!("{row}");
                true
            })
        } else {
            run(&args, &spec)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("pmoctree-perf: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// No drift either way: at `--quick` scale the four workloads and the
    /// ladder together produce exactly the per-layer names of
    /// `BENCHMARK.json`, the fold exactly its end-to-end names, and the
    /// harness exactly its workloads — with no failed check.
    #[test]
    fn emitted_names_are_the_names_in_benchmark_json() {
        let spec = Spec::load();
        let sc = Scale::quick();
        rayon::set_num_threads(workers());
        assert_eq!(spec.workloads, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        let mut produced = BTreeSet::new();
        for w in &WORKLOADS {
            let untraced = (w.pass)(1, &sc, &mut Spans::new(false), true);
            let (fingerprint, window) = (untraced.fingerprint.clone(), untraced.window_s());
            let e2e = report::fold(vec![untraced]);
            assert_eq!(
                e2e.metrics.keys().copied().collect::<BTreeSet<_>>(),
                spec.end_to_end.iter().map(|m| m.name.as_str()).collect::<BTreeSet<_>>(),
            );
            let mut checks = e2e.checks;
            let (layer, spans) = traced_layer(w, 1, &sc, &fingerprint, &[window], &mut checks);
            assert_eq!(checks.failed, 0, "{}: {:?}", w.name, checks.notes);
            assert!(spans.residual_share() < 0.03, "{}: {}", w.name, spans.residual_share());
            produced.extend(layer.keys().copied());
        }
        let declared: BTreeSet<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(produced, declared);
    }
}
