//! Machine-readable experiment output: `BENCH_<experiment>.json` files
//! next to the `repro` run, so regressions in virtual execution time or
//! NVBM traffic can be diffed without parsing the human tables.
//!
//! Serialization is serde-derived: each experiment's row struct carries
//! `#[derive(Serialize)]` and the functions here wrap the rows in a small
//! document struct (`{"experiment": ..., "rows": [...]}`), so fields
//! added to a row automatically appear in its JSON.

use crate::experiments::*;
use pmoctree_nvbm::TraversalStats;
use serde::Serialize;

/// Write an already-rendered JSON document to `BENCH_<experiment>.json`
/// in the current directory. Errors are reported to stderr but never
/// abort the run (the text tables remain the primary output).
pub fn write_bench_json(experiment: &str, body: &str) {
    let path = format!("BENCH_{experiment}.json");
    if let Err(e) = std::fs::write(&path, format!("{body}\n")) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

#[derive(Serialize)]
struct WriteFractionDoc {
    experiment: &'static str,
    avg: f64,
    max: f64,
    aggregate: f64,
    trav: TraversalStats,
}

/// JSON for the write-fraction experiment, including the traversal
/// counters that make the leaf-index optimisation observable.
pub fn write_fraction_json(w: &WriteFraction) -> String {
    json_doc(&WriteFractionDoc {
        experiment: "write_fraction",
        avg: w.avg,
        max: w.max,
        aggregate: w.aggregate,
        trav: w.trav,
    })
}

#[derive(Serialize)]
struct ScalingDoc {
    experiment: String,
    rows: Vec<ScalingRow>,
}

/// JSON for a scaling experiment (Figs 6/7 or 8/9).
pub fn scaling_json(experiment: &str, rows: &[ScalingRow]) -> String {
    json_doc(&ScalingDoc { experiment: experiment.to_string(), rows: rows.to_vec() })
}

/// JSON for the cluster smoke. Only the virtual-time rows are
/// serialized — wall-clock and worker count deliberately stay out, so a
/// 1-worker and a 4-worker run must emit byte-identical files (the
/// `ci.sh` determinism gate diffs them).
pub fn cluster_smoke_json(s: &ClusterSmoke) -> String {
    json_doc(&ScalingDoc { experiment: "cluster_smoke".to_string(), rows: s.rows.to_vec() })
}

#[derive(Serialize)]
struct Fig10Doc {
    experiment: &'static str,
    rows: Vec<Fig10Row>,
}

/// JSON for Figure 10 (DRAM size sweep).
pub fn fig10_json(rows: &[Fig10Row]) -> String {
    json_doc(&Fig10Doc { experiment: "fig10", rows: rows.to_vec() })
}

#[derive(Serialize)]
struct Fig11Doc {
    experiment: &'static str,
    rows: Vec<Fig11Row>,
}

/// JSON for Figure 11 (dynamic transformation off/on).
pub fn fig11_json(rows: &[Fig11Row]) -> String {
    json_doc(&Fig11Doc { experiment: "fig11", rows: rows.to_vec() })
}

#[derive(Serialize)]
struct RecoveryDoc {
    experiment: &'static str,
    rows: Vec<pmoctree_cluster::RecoveryReport>,
}

/// JSON for the §5.6 recovery comparison.
pub fn recovery_json(rows: &[pmoctree_cluster::RecoveryReport]) -> String {
    json_doc(&RecoveryDoc { experiment: "recovery", rows: rows.to_vec() })
}

#[derive(Serialize)]
struct LabelCount {
    label: String,
    count: u64,
}

#[derive(Serialize)]
struct CrashSweepDoc {
    experiment: &'static str,
    steps: usize,
    elements: usize,
    opportunities: u64,
    total_violations: u64,
    labels: Vec<LabelCount>,
    rows: Vec<crate::crash_sweep::CrashModeRow>,
}

/// JSON for the crash-point sweep: per-mode recovery outcomes plus
/// failpoint coverage.
pub fn crash_sweep_json(sweep: &crate::crash_sweep::CrashSweep) -> String {
    json_doc(&CrashSweepDoc {
        experiment: "crash_sweep",
        steps: sweep.steps,
        elements: sweep.elements,
        opportunities: sweep.opportunities,
        total_violations: sweep.total_violations(),
        labels: sweep
            .label_counts
            .iter()
            .map(|(l, n)| LabelCount { label: l.clone(), count: *n })
            .collect(),
        rows: sweep.rows.clone(),
    })
}

#[derive(Serialize)]
struct AttrRowDoc {
    name: String,
    total_ns: u64,
    count: u64,
}

#[derive(Serialize)]
struct DropletDoc {
    experiment: &'static str,
    steps: usize,
    elements: usize,
    total_secs: f64,
    phases: [f64; 5],
    trav: TraversalStats,
    persist_ns: u64,
    persist_covered_ns: u64,
    attribution: Vec<AttrRowDoc>,
}

/// JSON for the traced droplet run: driver phase totals plus the span
/// attribution and the persist coverage figures (see the acceptance
/// tests for the ≥97% contract).
pub fn droplet_json(run: &DropletRun) -> String {
    let (persist_ns, persist_covered_ns) =
        pmoctree_obsv::coverage(&run.events, "persist").unwrap_or((0, 0));
    let attribution = pmoctree_obsv::inclusive_totals(&run.events)
        .unwrap_or_default()
        .into_iter()
        .map(|r| AttrRowDoc { name: r.name.to_string(), total_ns: r.total_ns, count: r.count })
        .collect();
    let comps = run.report.component_secs();
    json_doc(&DropletDoc {
        experiment: "droplet",
        steps: run.report.steps.len(),
        elements: run.elements,
        total_secs: run.report.total_secs(),
        phases: [comps[0], comps[1], 0.0, comps[2], comps[3]],
        trav: run.trav,
        persist_ns,
        persist_covered_ns,
        attribution,
    })
}

#[derive(Serialize)]
struct RecoveryRtStepDoc {
    step: usize,
    refine_ns: u64,
    balance_ns: u64,
    solve_ns: u64,
    persist_ns: u64,
    leaves: usize,
}

#[derive(Serialize)]
struct RecoveryRtDoc {
    experiment: &'static str,
    steps: usize,
    elements: usize,
    opportunities: u64,
    all_identical: bool,
    pm_restart_secs: f64,
    baseline_restart_secs: f64,
    baseline_lost_steps: usize,
    speedup: f64,
    crashes: Vec<crate::recovery_rt::CrashResumeRow>,
    report: Vec<RecoveryRtStepDoc>,
}

/// JSON for the whole-application restart experiment. The `report`
/// rows come from the *reference* run, which every sampled crashed run
/// reproduced byte-for-byte when `all_identical` holds — so a crashed
/// repro of this experiment emits this exact file.
pub fn recovery_rt_json(r: &crate::recovery_rt::RecoveryRt) -> String {
    json_doc(&RecoveryRtDoc {
        experiment: "recovery_rt",
        steps: r.steps,
        elements: r.elements,
        opportunities: r.opportunities,
        all_identical: r.all_identical(),
        pm_restart_secs: r.pm_restart_secs,
        baseline_restart_secs: r.baseline_restart_secs,
        baseline_lost_steps: r.baseline_lost_steps,
        speedup: r.speedup(),
        crashes: r.rows.clone(),
        report: r
            .report
            .steps
            .iter()
            .enumerate()
            .map(|(i, s)| RecoveryRtStepDoc {
                step: i,
                refine_ns: s.refine_ns,
                balance_ns: s.balance_ns,
                solve_ns: s.solve_ns,
                persist_ns: s.persist_ns,
                leaves: s.leaves,
            })
            .collect(),
    })
}

#[derive(Serialize)]
struct WearDriverDoc {
    driver: String,
    wear: pmoctree_nvbm::WearReport,
}

#[derive(Serialize)]
struct WearDoc {
    experiment: &'static str,
    drivers: Vec<WearDriverDoc>,
}

/// JSON for `BENCH_wear.json`: one driver's wear attribution, rendered
/// whole (no entry from an earlier run survives a rewrite).
pub fn wear_json(driver: &str, wear: &pmoctree_nvbm::WearReport) -> String {
    json_doc(&WearDoc {
        experiment: "wear",
        drivers: vec![WearDriverDoc { driver: driver.to_string(), wear: wear.clone() }],
    })
}

#[derive(Serialize)]
struct BlackboxDoc {
    experiment: &'static str,
    steps: usize,
    elements: usize,
    recorder_overhead_percent: f64,
    dump: pmoctree_nvbm::RecorderDump,
    wear: pmoctree_nvbm::WearReport,
}

/// JSON for the `repro blackbox` run: the recovered flight-recorder ring
/// plus the run's wear attribution and the recorder's measured
/// virtual-clock overhead. Virtual-clock deterministic — part of the
/// `ci.sh` 1-vs-4-worker byte-diff gates.
pub fn blackbox_json(b: &crate::experiments::BlackboxRun) -> String {
    json_doc(&BlackboxDoc {
        experiment: "blackbox",
        steps: b.steps,
        elements: b.elements,
        recorder_overhead_percent: b.overhead.inflation_percent(),
        dump: b.dump.clone(),
        wear: b.wear.clone(),
    })
}

fn json_doc<T: Serialize>(doc: &T) -> String {
    serde_json::to_string(doc).unwrap_or_else(|e| format!("{{\"error\": \"{e}\"}}"))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn row() -> ScalingRow {
        ScalingRow {
            scheme: "pm-octree",
            procs: 4,
            elements: 624,
            exec_secs: 0.01,
            phase_percent: [0.0; 5],
            phases: [0.0, 0.0, 0.0, 0.005, 0.005],
            nvbm_read_lines: 100,
            nvbm_write_lines: 50,
            trav: TraversalStats::default(),
        }
    }

    #[test]
    fn scaling_json_is_wellformed() {
        let j = scaling_json("fig6", &[row()]);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"nvbm_read_lines\":100"));
        let v = serde_json::from_str(&j).expect("valid JSON");
        assert_eq!(v.get("experiment").and_then(|e| e.as_str()), Some("fig6"));
        let rows = v.get("rows").and_then(|r| r.as_array()).expect("rows array");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("procs").and_then(|p| p.as_u64()), Some(4));
        assert_eq!(
            rows[0].get("trav").and_then(|t| t.get("index_hits")).and_then(|h| h.as_u64()),
            Some(0)
        );
        let phases = rows[0].get("phases").and_then(|p| p.as_array()).expect("phases");
        assert_eq!(phases.len(), 5);
    }

    #[test]
    fn recovery_json_roundtrips_null() {
        let rows = vec![pmoctree_cluster::RecoveryReport {
            scheme: "out-of-core",
            same_node_secs: 0.5,
            new_node_secs: None,
            elements: 9,
            trav: TraversalStats::default(),
        }];
        let v = serde_json::from_str(&recovery_json(&rows)).expect("valid JSON");
        let r0 = &v.get("rows").and_then(|r| r.as_array()).unwrap()[0];
        assert_eq!(r0.get("new_node_secs"), Some(&serde_json::Value::Null));
        assert_eq!(r0.get("elements").and_then(|e| e.as_u64()), Some(9));
    }
}
