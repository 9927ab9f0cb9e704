//! A/A and A/B reading of result files written with `--out`: one JSON
//! object per line, the contract's result object plus `workload`, `seed`,
//! `trace`, `nproc` and `quick`.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::spec::Spec;
use crate::stats::median;

/// Metrics that are functions of the seed alone: two result sets of the
/// same seeds must agree on them exactly, whatever their bound.
const DETERMINISTIC: [&str; 2] = ["virt_s", "nvbm_bytes_per_unit"];

/// The untraced rows of one workload in one file.
#[derive(Default)]
struct Rows {
    seeds: Vec<u64>,
    nproc: u64,
    values: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

fn load(path: &Path) -> Result<BTreeMap<String, Rows>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out: BTreeMap<String, Rows> = BTreeMap::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), i + 1);
        let v = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        let num = |k: &str| v.get(k).and_then(Value::as_u64).ok_or_else(|| bad(&format!("no {k}")));
        if num("trace")? != 0 {
            continue; // end-to-end metrics are never taken from a traced run
        }
        let workload =
            v.get("workload").and_then(Value::as_str).ok_or_else(|| bad("no workload"))?;
        let rows = out.entry(workload.to_string()).or_default();
        rows.seeds.push(num("seed")?);
        rows.nproc = num("nproc")?;
        rows.attempted += num("attempted")?;
        rows.failed += num("failed")?;
        let metrics =
            v.get("metrics").and_then(Value::as_object).ok_or_else(|| bad("no metrics"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("metric without value"))?;
            rows.values.entry(name.clone()).or_default().push(value);
        }
    }
    for rows in out.values_mut() {
        rows.seeds.sort_unstable();
    }
    Ok(out)
}

/// Print, per workload × end-to-end metric, both medians, how much worse
/// B reads than A, and the verdict against the metric's bound. `Ok(true)`
/// iff every pair agrees within its bound and no operation or check
/// failed in either set.
pub fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<bool, String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let mut all_pass = true;
    println!(
        "{:<14} {:<20} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "bound"
    );
    for w in &spec.workloads {
        let (Some(xa), Some(xb)) = (ra.get(w), rb.get(w)) else {
            println!("{w:<14} missing from one of the result sets: FAIL");
            all_pass = false;
            continue;
        };
        let same_seeds = xa.seeds == xb.seeds;
        for m in &spec.end_to_end {
            let value = |rows: &Rows| {
                rows.values
                    .get(&m.name)
                    .map(|v| median(v))
                    .ok_or_else(|| format!("{w}: no {} in a result set", m.name))
            };
            let (va, vb) = (value(xa)?, value(xb)?);
            let worse = if m.lower_is_better { (vb - va) / va } else { (va - vb) / va };
            let verdict = if same_seeds && DETERMINISTIC.contains(&m.name.as_str()) {
                if va == vb {
                    "PASS (exactly equal)"
                } else {
                    "FAIL (deterministic metric differs)"
                }
            } else if worse.abs() <= m.bound {
                "PASS"
            } else if worse > 0.0 {
                "FAIL (worse)"
            } else {
                "FAIL (better by more than the bound)"
            };
            all_pass &= verdict.starts_with("PASS");
            println!(
                "{w:<14} {:<20} {va:>16.6} {vb:>16.6} {:>8.2}% {:>6.0}%  {verdict}",
                m.name,
                100.0 * worse,
                100.0 * m.bound
            );
        }
        let verdict = if xa.failed + xb.failed == 0 { "PASS" } else { "FAIL" };
        all_pass &= xa.failed + xb.failed == 0;
        println!(
            "{w:<14} {:<20} {:>16} {:>16} {:>9} {:>7}  {verdict}",
            "fail_ratio",
            format!("{}/{}", xa.failed, xa.attempted),
            format!("{}/{}", xb.failed, xb.attempted),
            "",
            "0"
        );
    }
    println!("{}", if all_pass { "all PASS" } else { "some FAIL" });
    Ok(all_pass)
}

/// One `history.jsonl` row: the medians of every end-to-end metric per
/// workload in `file`, labelled with `commit`.
pub fn history_row(spec: &Spec, commit: &str, file: &Path) -> Result<String, String> {
    let rows = load(file)?;
    let mut workloads = Vec::new();
    let (mut seeds, mut nproc) = (Vec::new(), 0);
    for w in &spec.workloads {
        let r = rows.get(w).ok_or_else(|| format!("{}: no rows for {w}", file.display()))?;
        seeds = r.seeds.clone();
        nproc = r.nproc;
        let metrics: Vec<String> = spec
            .end_to_end
            .iter()
            .map(|m| {
                let v = r.values.get(&m.name).map(|v| median(v)).unwrap_or(0.0);
                format!("\"{}\": {v}", m.name)
            })
            .collect();
        workloads.push(format!(
            "\"{w}\": {{{}, \"failed\": {}, \"attempted\": {}}}",
            metrics.join(", "),
            r.failed,
            r.attempted
        ));
    }
    Ok(format!(
        "{{\"commit\": \"{commit}\", \"seeds\": {seeds:?}, \"nproc\": {nproc}, \"workloads\": {{{}}}}}",
        workloads.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workload: &str, seed: u64, throughput: f64, virt_s: f64) -> String {
        let spec = Spec::load();
        let metrics: Vec<String> = spec
            .end_to_end
            .iter()
            .map(|m| {
                let v = match m.name.as_str() {
                    "throughput" => throughput,
                    "virt_s" => virt_s,
                    _ => 1.0,
                };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": 0, \"nproc\": 2, \
             \"quick\": true, \"correct\": true, \"attempted\": 5, \"failed\": 0, \
             \"metrics\": {{{}}}}}\n",
            metrics.join(", ")
        )
    }

    fn file(name: &str, throughput: f64, virt_s: f64) -> std::path::PathBuf {
        let spec = Spec::load();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).expect("perf/out");
        let path = dir.join(name);
        let text: String = spec.workloads.iter().map(|w| row(w, 1, throughput, virt_s)).collect();
        std::fs::write(&path, text).expect("write result set");
        path
    }

    #[test]
    fn same_code_passes_and_a_slowdown_or_a_virtual_drift_fails() {
        let spec = Spec::load();
        let base = file("cmp_base.jsonl", 1000.0, 2.0);
        let noisy = file("cmp_noisy.jsonl", 990.0, 2.0);
        let slow = file("cmp_slow.jsonl", 500.0, 2.0);
        let drift = file("cmp_drift.jsonl", 1000.0, 2.0000001);
        assert_eq!(compare(&spec, &base, &noisy), Ok(true));
        assert_eq!(compare(&spec, &base, &slow), Ok(false));
        assert_eq!(compare(&spec, &base, &drift), Ok(false), "same seeds: virt_s must be equal");
        let history = history_row(&spec, "abc123", &base).expect("history row");
        let v = serde_json::from_str(&history).expect("history row is JSON");
        assert_eq!(v.get("commit").and_then(Value::as_str), Some("abc123"));
        assert!(compare(&spec, &base, Path::new("perf/out/does-not-exist.jsonl")).is_err());
    }
}
