//! The metrics registry: counters, gauges, and latency histograms.
//!
//! This registry absorbs the totals the repo used to accumulate ad hoc in
//! `MemStats` — arenas publish their tier/traversal counters here (see
//! `NvbmArena::publish_metrics`) so one snapshot carries everything the
//! Prometheus exporter needs. `BTreeMap` keys keep every export
//! deterministic.

use std::collections::BTreeMap;

/// Bucket upper bounds (ns) for [`Histogram`]: powers of four from 64 ns,
/// plus a +Inf overflow bucket. Spans in this repo range from a single
/// cacheline write (150 ns) to multi-second persists, which this covers.
pub const BUCKET_BOUNDS_NS: [u64; 15] = [
    64,
    256,
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
    1 << 32,
    1 << 34,
];

/// Fixed-bucket latency histogram (nanoseconds).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples (ns).
    pub sum: u64,
    /// Per-bucket counts: `buckets[i]` counts samples in
    /// `(BUCKET_BOUNDS_NS[i-1], BUCKET_BOUNDS_NS[i]]`; the final slot is
    /// the +Inf overflow bucket. The Prometheus exporter cumulates.
    pub buckets: [u64; 16],
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        let i = BUCKET_BOUNDS_NS.iter().position(|&b| v <= b).unwrap_or(BUCKET_BOUNDS_NS.len());
        self.buckets[i] += 1;
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// Counters, gauges, and histograms, keyed by static label.
///
/// Labeled series (`counter_add_labeled`, `observe_labeled`) carry a
/// Prometheus-style label set rendered by the caller (e.g.
/// `tenant="alpha"`); keys are `(name, labels)` tuples so iteration — and
/// therefore every export — is ordered by metric name first, label set
/// second.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    labeled_counters: BTreeMap<(String, String), u64>,
    labeled_histograms: BTreeMap<(String, String), Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add to a monotone counter.
    pub fn counter_add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Set a counter to an absolute cumulative value (publishing a total
    /// accumulated elsewhere, e.g. `MemStats`).
    pub fn counter_set(&mut self, name: &'static str, v: u64) {
        self.counters.insert(name, v);
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    /// Record a histogram sample.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().observe(v);
    }

    /// Add to a labeled monotone counter. `labels` is the rendered label
    /// set without braces, e.g. `tenant="alpha"`.
    pub fn counter_add_labeled(&mut self, name: &str, labels: &str, v: u64) {
        *self.labeled_counters.entry((name.to_string(), labels.to_string())).or_insert(0) += v;
    }

    /// Set a labeled counter to an absolute cumulative value.
    pub fn counter_set_labeled(&mut self, name: &str, labels: &str, v: u64) {
        self.labeled_counters.insert((name.to_string(), labels.to_string()), v);
    }

    /// Record a sample into a labeled histogram.
    pub fn observe_labeled(&mut self, name: &str, labels: &str, v: u64) {
        self.labeled_histograms
            .entry((name.to_string(), labels.to_string()))
            .or_default()
            .observe(v);
    }

    /// Counter value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterate gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Iterate labeled counters ordered by (name, label set).
    pub fn labeled_counters(&self) -> impl Iterator<Item = (&str, &str, u64)> + '_ {
        self.labeled_counters.iter().map(|((n, l), v)| (n.as_str(), l.as_str(), *v))
    }

    /// Iterate labeled histograms ordered by (name, label set).
    pub fn labeled_histograms(&self) -> impl Iterator<Item = (&str, &str, &Histogram)> + '_ {
        self.labeled_histograms.iter().map(|((n, l), h)| (n.as_str(), l.as_str(), h))
    }

    /// Merge another registry into this one: counters and histogram cells
    /// add; for gauges the other side wins ties by `max` (the use case is
    /// aggregating per-rank registries, where max matches how the cluster
    /// reduces rank clocks).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k).or_insert(f64::NEG_INFINITY);
            *e = e.max(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k).or_default().merge(h);
        }
        for ((n, l), v) in &other.labeled_counters {
            *self.labeled_counters.entry((n.clone(), l.clone())).or_insert(0) += v;
        }
        for ((n, l), h) in &other.labeled_histograms {
            self.labeled_histograms.entry((n.clone(), l.clone())).or_default().merge(h);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_range() {
        let mut h = Histogram::default();
        h.observe(1); // <= 64
        h.observe(150); // <= 256
        h.observe(1 << 35); // +Inf
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[15], 1);
        assert_eq!(h.sum, 1 + 150 + (1 << 35));
    }

    #[test]
    fn labeled_series_sort_by_name_then_label_set() {
        let mut m = Metrics::new();
        m.counter_add_labeled("svc.bytes", "tenant=\"beta\"", 7);
        m.counter_add_labeled("svc.bytes", "tenant=\"alpha\"", 3);
        m.counter_add_labeled("svc.bytes", "tenant=\"alpha\"", 2);
        m.counter_set_labeled("aaa.first", "x=\"1\"", 9);
        m.observe_labeled("svc.lat", "tenant=\"alpha\"", 100);
        let order: Vec<_> =
            m.labeled_counters().map(|(n, l, v)| (n.to_string(), l.to_string(), v)).collect();
        assert_eq!(
            order,
            vec![
                ("aaa.first".into(), "x=\"1\"".into(), 9),
                ("svc.bytes".into(), "tenant=\"alpha\"".into(), 5),
                ("svc.bytes".into(), "tenant=\"beta\"".into(), 7),
            ]
        );
        let mut other = Metrics::new();
        other.counter_add_labeled("svc.bytes", "tenant=\"beta\"", 1);
        other.observe_labeled("svc.lat", "tenant=\"alpha\"", 50);
        m.merge(&other);
        assert!(m.labeled_counters().any(|c| c == ("svc.bytes", "tenant=\"beta\"", 8)));
        let h = m.labeled_histograms().next().unwrap().2;
        assert_eq!((h.count, h.sum), (2, 150));
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let mut a = Metrics::new();
        a.counter_add("x", 2);
        a.gauge_set("g", 1.0);
        let mut b = Metrics::new();
        b.counter_add("x", 3);
        b.gauge_set("g", 4.0);
        b.observe("h", 100);
        a.merge(&b);
        assert_eq!(a.counter("x"), Some(5));
        assert_eq!(a.gauge("g"), Some(4.0));
        assert_eq!(a.histograms().next().unwrap().1.count, 1);
    }
}
