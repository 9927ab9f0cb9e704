//! Machine-readable experiment output: `BENCH_<experiment>.json` files
//! next to the `repro` run, so regressions in virtual execution time or
//! NVBM traffic can be diffed without parsing the human tables.
//!
//! Serialization is serde-derived: an experiment's result type carries
//! `#[derive(Serialize)]` and [`write_bench_json`] writes its JSON object
//! with `"experiment"` spliced in as the first key, so fields added to a
//! result automatically appear in its document.

use serde::Serialize;

/// `body`'s JSON object with `"experiment": experiment` as its first key:
/// the document [`write_bench_json`] writes.
pub(crate) fn bench_doc(experiment: &str, body: &impl Serialize) -> String {
    let mut doc = String::from("{");
    serde::ser::field(&mut doc, true, "experiment", experiment);
    let start = doc.len();
    body.json(&mut doc);
    assert!(doc[start..].starts_with("{\""), "a BENCH body is a non-empty JSON object");
    // The body's opening brace becomes the separator after "experiment".
    doc.replace_range(start..=start, ",");
    doc
}

/// Write `bench_doc` to `BENCH_<experiment>.json` in the current
/// directory. Errors are reported to stderr but never abort the run (the
/// text tables remain the primary output).
pub fn write_bench_json(experiment: &str, body: &impl Serialize) {
    let path = format!("BENCH_{experiment}.json");
    if let Err(e) = std::fs::write(&path, bench_doc(experiment, body) + "\n") {
        eprintln!("warning: could not write {path}: {e}");
    }
}

/// The `{"rows": [...]}` body of every row-table experiment (Figs 6–11
/// and the §5.6 recovery comparison).
pub struct Rows<'a, T>(pub &'a [T]);

impl<T: Serialize> Serialize for Rows<'_, T> {
    fn json(&self, out: &mut String) {
        out.push('{');
        serde::ser::field(out, true, "rows", self.0);
        out.push('}');
    }
}

#[derive(Serialize)]
struct LabelCount {
    label: String,
    count: u64,
}

/// The crash-point sweep's body: per-mode recovery outcomes plus
/// failpoint coverage.
#[derive(Serialize)]
pub struct CrashSweepDoc {
    steps: usize,
    elements: usize,
    opportunities: u64,
    total_violations: u64,
    labels: Vec<LabelCount>,
    rows: Vec<crate::crash_sweep::CrashModeRow>,
}

impl CrashSweepDoc {
    /// Summarize `sweep`.
    pub fn new(sweep: &crate::crash_sweep::CrashSweep) -> Self {
        CrashSweepDoc {
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
        }
    }
}

#[derive(Serialize)]
struct WearDriver {
    driver: String,
    wear: pmoctree_nvbm::WearReport,
}

/// `BENCH_wear.json`'s body: one driver's wear attribution, rendered
/// whole (no entry from an earlier run survives a rewrite).
#[derive(Serialize)]
pub struct WearDoc {
    drivers: Vec<WearDriver>,
}

impl WearDoc {
    /// The wear attribution of `driver`'s run.
    pub fn new(driver: &str, wear: &pmoctree_nvbm::WearReport) -> Self {
        WearDoc { drivers: vec![WearDriver { driver: driver.to_string(), wear: wear.clone() }] }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::experiments::*;
    use pmoctree_nvbm::TraversalStats;

    #[test]
    fn every_writer_tags_its_document_and_passes_trace_check() {
        let scaling = ScalingRow {
            scheme: "pm-octree",
            procs: 4,
            elements: 624,
            exec_secs: 0.01,
            phase_percent: [0.0; 5],
            phases: [0.0, 0.0, 0.0, 0.005, 0.005],
            nvbm_read_lines: 100,
            nvbm_write_lines: 50,
            trav: TraversalStats::default(),
        };
        let recovery = pmoctree_cluster::RecoveryReport {
            scheme: "out-of-core",
            same_node_secs: 0.5,
            new_node_secs: None,
            elements: 9,
            trav: TraversalStats::default(),
        };
        let fig10 = Fig10Row {
            c0_octants: Some(32),
            scheme: "pm-octree",
            exec_secs: 0.04,
            phases: [0.0; 5],
            merges: 39,
            nvbm_read_lines: 1,
            nvbm_write_lines: 2,
            trav: TraversalStats::default(),
        };
        let fig11 = Fig11Row {
            elements: 428,
            without_secs: 0.003,
            with_secs: 0.003,
            without_writes: 10,
            with_writes: 11,
            phases_without: [0.0; 5],
            phases_with: [0.0; 5],
            trav_without: TraversalStats::default(),
            trav_with: TraversalStats::default(),
        };
        let wf =
            WriteFraction { avg: 0.1, max: 0.4, aggregate: 0.1, trav: TraversalStats::default() };
        let mut st = pmoctree_nvbm::MemStats::default();
        st.wear_commit(0, 64);
        let droplet = DropletSummary {
            steps: 3,
            elements: 372,
            total_secs: 0.001,
            phases: [0.0; 5],
            trav: TraversalStats::default(),
            persist_ns: 10,
            persist_covered_ns: 9,
            attribution: vec![SpanTotal { name: "step", total_ns: 10, count: 3 }],
        };
        let sweep = crate::crash_sweep::CrashSweep {
            label_counts: vec![("persist::flush".to_string(), 2)],
            ..Default::default()
        };
        let docs = [
            ("write_fraction", bench_doc("write_fraction", &wf), "\"avg\":0.1"),
            ("fig6", bench_doc("fig6", &Rows(&[scaling])), "\"nvbm_read_lines\":100"),
            ("fig10", bench_doc("fig10", &Rows(&[fig10])), "\"c0_octants\":32"),
            ("fig11", bench_doc("fig11", &Rows(&[fig11])), "\"with_writes\":11"),
            ("recovery", bench_doc("recovery", &Rows(&[recovery])), "\"new_node_secs\":null"),
            ("droplet", bench_doc("droplet", &droplet), "\"name\":\"step\""),
            ("crash_sweep", bench_doc("crash_sweep", &CrashSweepDoc::new(&sweep)), "\"count\":2"),
            ("wear", bench_doc("wear", &WearDoc::new("droplet", &st.wear_report())), "octree"),
        ];
        for (name, doc, field) in docs {
            assert!(doc.starts_with(&format!("{{\"experiment\":\"{name}\",")), "{doc}");
            assert!(doc.contains(field), "{name} lacks {field}: {doc}");
            assert_eq!(crate::check_bench_doc(&doc).unwrap(), name);
        }
    }
}
