//! Machine-readable experiment output: `BENCH_<experiment>.json` files
//! next to the `repro` run, so regressions in virtual execution time or
//! NVBM traffic can be diffed without parsing the human tables.
//!
//! Serialization is serde-derived: each experiment's row struct carries
//! `#[derive(Serialize)]` and the functions here wrap the rows in a small
//! document (`{"experiment": ..., "rows": [...]}`), so fields added to a
//! row automatically appear in its JSON.

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

/// The `{"experiment": ..., "rows": [...]}` document every row-table
/// experiment writes (Figs 6–11 and the §5.6 recovery comparison).
pub fn rows_json<T: Serialize>(experiment: &str, rows: &[T]) -> String {
    format!(r#"{{"experiment":{},"rows":{}}}"#, json_doc(experiment), json_doc(rows))
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

fn json_doc<T: Serialize + ?Sized>(doc: &T) -> String {
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
        let j = rows_json("fig6", &[row()]);
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
        let v = serde_json::from_str(&rows_json("recovery", &rows)).expect("valid JSON");
        let r0 = &v.get("rows").and_then(|r| r.as_array()).unwrap()[0];
        assert_eq!(r0.get("new_node_secs"), Some(&serde_json::Value::Null));
        assert_eq!(r0.get("elements").and_then(|e| e.as_u64()), Some(9));
    }
}
