//! Prometheus text-exposition exporter for a [`Metrics`] snapshot.
//!
//! Output follows the text format: every family gets a `# HELP` and a
//! `# TYPE` line, histogram families expand into `_bucket`/`_sum`/`_count`
//! series with cumulative `le` labels. Names are sanitized
//! (`persist::merge` → `persist_merge`) since Prometheus metric names
//! admit only `[a-zA-Z0-9_:]` and we reserve `:` for recording rules.
//!
//! The dump is byte-diffable in CI: families are emitted in sanitized-name
//! order and series within a family in label-set order, independent of
//! insertion order or worker count. Histogram families get a `_ns` unit
//! suffix unless the name already carries a unit (`*_ns`, `*_bytes`).

use crate::metrics::{Histogram, Metrics, BUCKET_BOUNDS_NS};
use std::collections::BTreeMap;

fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

/// Histogram family name: append the `_ns` unit unless the raw name
/// already ends in a unit suffix.
fn hist_name(raw: &str) -> String {
    let n = sanitize(raw);
    if n.ends_with("_ns") || n.ends_with("_bytes") {
        n
    } else {
        format!("{n}_ns")
    }
}

/// One-line help text per family. Known families get a specific line; the
/// fallback still guarantees a `# HELP` for every exported metric.
fn help(name: &str) -> String {
    let text = match name {
        n if n.starts_with("nvbm_") => "emulated NVM device activity (cachelines, flushes)",
        n if n.starts_with("wear_") => {
            "per-block wear and bytes-written attribution at commit time"
        }
        n if n.starts_with("recorder_") => "persistent flight-recorder ring activity",
        n if n.starts_with("svc_") => "multi-tenant state-service activity",
        n if n.starts_with("tier_") => "tiered storage traffic",
        n if n.ends_with("_ns") => "virtual-clock span duration in nanoseconds",
        _ => "pm-octree observability metric",
    };
    text.to_string()
}

enum Family {
    Counter(Vec<(String, u64)>),
    Gauge(f64),
    Histogram(Vec<(String, Histogram)>),
}

fn push_series(out: &mut String, name: &str, labels: &str, value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn push_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let le = |bound: &str| {
        if labels.is_empty() {
            format!("le=\"{bound}\"")
        } else {
            format!("{labels},le=\"{bound}\"")
        }
    };
    let mut cumulative = 0u64;
    for (i, bound) in BUCKET_BOUNDS_NS.iter().enumerate() {
        cumulative += h.buckets[i];
        push_series(
            out,
            &format!("{name}_bucket"),
            &le(&bound.to_string()),
            &cumulative.to_string(),
        );
    }
    push_series(out, &format!("{name}_bucket"), &le("+Inf"), &h.count.to_string());
    push_series(out, &format!("{name}_sum"), labels, &h.sum.to_string());
    push_series(out, &format!("{name}_count"), labels, &h.count.to_string());
}

/// Render the registry as Prometheus text exposition. Families are sorted
/// by metric name, series within a family by label set.
pub fn text(m: &Metrics) -> String {
    let mut fams: BTreeMap<String, Family> = BTreeMap::new();
    for (name, v) in m.counters() {
        match fams.entry(sanitize(name)).or_insert_with(|| Family::Counter(Vec::new())) {
            Family::Counter(series) => series.push((String::new(), v)),
            _ => unreachable!("family kind collision"),
        }
    }
    for (name, labels, v) in m.labeled_counters() {
        match fams.entry(sanitize(name)).or_insert_with(|| Family::Counter(Vec::new())) {
            Family::Counter(series) => series.push((labels.to_string(), v)),
            _ => unreachable!("family kind collision"),
        }
    }
    for (name, v) in m.gauges() {
        fams.insert(sanitize(name), Family::Gauge(v));
    }
    for (name, h) in m.histograms() {
        match fams.entry(hist_name(name)).or_insert_with(|| Family::Histogram(Vec::new())) {
            Family::Histogram(series) => series.push((String::new(), h.clone())),
            _ => unreachable!("family kind collision"),
        }
    }
    for (name, labels, h) in m.labeled_histograms() {
        match fams.entry(hist_name(name)).or_insert_with(|| Family::Histogram(Vec::new())) {
            Family::Histogram(series) => series.push((labels.to_string(), h.clone())),
            _ => unreachable!("family kind collision"),
        }
    }

    let mut out = String::new();
    for (name, fam) in &mut fams {
        out.push_str(&format!("# HELP {name} {}\n", help(name)));
        match fam {
            Family::Counter(series) => {
                out.push_str(&format!("# TYPE {name} counter\n"));
                series.sort_by(|a, b| a.0.cmp(&b.0));
                for (labels, v) in series {
                    push_series(&mut out, name, labels, &v.to_string());
                }
            }
            Family::Gauge(v) => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
            }
            Family::Histogram(series) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                series.sort_by(|a, b| a.0.cmp(&b.0));
                for (labels, h) in series {
                    push_histogram(&mut out, name, labels, h);
                }
            }
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_three_kinds() {
        let mut m = Metrics::new();
        m.counter_add("nvbm.write_lines", 42);
        m.gauge_set("wear/max", 3.0);
        m.observe("persist::merge", 150);
        m.observe("persist::merge", 100_000);
        let t = text(&m);
        assert!(t.contains("# HELP nvbm_write_lines "));
        assert!(t.contains("# TYPE nvbm_write_lines counter\nnvbm_write_lines 42\n"));
        assert!(t.contains("# TYPE wear_max gauge\nwear_max 3\n"));
        assert!(t.contains("# TYPE persist_merge_ns histogram\n"));
        assert!(t.contains("persist_merge_ns_bucket{le=\"256\"} 1\n"));
        assert!(t.contains("persist_merge_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(t.contains("persist_merge_ns_sum 100150\n"));
        assert!(t.contains("persist_merge_ns_count 2\n"));
    }

    #[test]
    fn every_family_gets_help_and_type() {
        let mut m = Metrics::new();
        m.counter_add("a", 1);
        m.gauge_set("b", 2.0);
        m.observe("c", 3);
        m.counter_add_labeled("d", "tenant=\"x\"", 4);
        let t = text(&m);
        for fam in ["a", "b", "c_ns", "d"] {
            assert!(t.contains(&format!("# HELP {fam} ")), "missing HELP for {fam}:\n{t}");
            assert!(t.contains(&format!("# TYPE {fam} ")), "missing TYPE for {fam}:\n{t}");
        }
    }

    #[test]
    fn labeled_series_sort_within_family() {
        let mut m = Metrics::new();
        m.counter_add_labeled("svc.bytes", "tenant=\"beta\"", 7);
        m.counter_add_labeled("svc.bytes", "tenant=\"alpha\"", 3);
        m.observe_labeled("svc.flush_bytes", "tenant=\"alpha\"", 512);
        let t = text(&m);
        let alpha = t.find("svc_bytes{tenant=\"alpha\"} 3").expect("alpha series");
        let beta = t.find("svc_bytes{tenant=\"beta\"} 7").expect("beta series");
        assert!(alpha < beta, "label sets must sort within a family:\n{t}");
        // `_bytes` histograms keep their unit instead of gaining `_ns`.
        assert!(t.contains("# TYPE svc_flush_bytes histogram\n"));
        assert!(t.contains("svc_flush_bytes_bucket{tenant=\"alpha\",le=\"+Inf\"} 1\n"));
        assert!(t.contains("svc_flush_bytes_sum{tenant=\"alpha\"} 512\n"));
    }

    #[test]
    fn export_is_insertion_order_independent() {
        let mut a = Metrics::new();
        a.counter_add("z.last", 1);
        a.counter_add("a.first", 1);
        a.counter_add_labeled("mid", "k=\"2\"", 1);
        a.counter_add_labeled("mid", "k=\"1\"", 1);
        let mut b = Metrics::new();
        b.counter_add_labeled("mid", "k=\"1\"", 1);
        b.counter_add_labeled("mid", "k=\"2\"", 1);
        b.counter_add("a.first", 1);
        b.counter_add("z.last", 1);
        assert_eq!(text(&a), text(&b));
        let first = text(&a).find("a_first").unwrap();
        let last = text(&a).find("z_last").unwrap();
        assert!(first < last);
    }
}
