//! `BENCHMARK.json` is the one place that names workloads and metrics,
//! their units, directions and bounds. It is compiled in, so the harness
//! can neither emit a name the file lacks nor forget one it has.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the reference median (end-to-end
    /// metrics only; per-layer metrics carry no bound).
    pub bound: f64,
}

/// The parsed file.
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in file order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, in file order.
    pub per_layer: Vec<Metric>,
    /// Seconds one run measures unless `--seconds` says otherwise.
    pub run_seconds: f64,
}

fn field<'v>(metric: &'v Value, key: &str) -> &'v str {
    metric.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("metric without {key}"))
}

fn metrics(v: &Value, key: &str) -> Vec<Metric> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key} array"))
        .iter()
        .map(|m| Metric {
            name: field(m, "name").to_string(),
            unit: field(m, "unit").to_string(),
            lower_is_better: field(m, "better") == "lower",
            bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
        })
        .collect()
}

impl Spec {
    /// Parse the compiled-in `BENCHMARK.json`.
    pub fn load() -> Spec {
        let v = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let workloads = v
            .get("workloads")
            .and_then(Value::as_array)
            .expect("BENCHMARK.json: workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("workload name").to_string())
            .collect();
        Spec {
            workloads,
            end_to_end: metrics(&v, "end_to_end"),
            per_layer: metrics(&v, "per_layer"),
            run_seconds: v.get("run_seconds").and_then(Value::as_f64).expect("run_seconds"),
        }
    }
}
