//! What one pass of a workload yields, and how passes fold into the
//! end-to-end metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pmoctree_nvbm::{MemStats, TierStats, TraversalStats};

use crate::alloc::{self, Counts};
use crate::stats::{median, quiet, ratio};

/// Per-layer metrics of one traced pass, `layer.metric` → value.
pub type Layer = BTreeMap<&'static str, f64>;

/// Output checks and unit operations: attempted vs failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Unit operations plus output checks attempted.
    pub attempted: u64,
    /// Of those, how many returned an unexpected error or were wrong.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one operation or check; `what` describes it if it failed.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Add another tally to this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// One timed section of a window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Section {
    /// Sections of equal work share a class: phase `j` of time step `i` of
    /// every pass, every full batch of the service, every cycle's reattach.
    pub class: u32,
    /// Is the section (part of) a unit operation of the workload?
    pub op: bool,
    /// Host ms.
    pub ms: f64,
}

/// The measured window of a pass: wall time, allocations and peak live
/// heap, accumulated over its timed sections. Whatever the harness does
/// between sections (generating the next inputs, copying a crashed device
/// image, building an initial state) stays outside all three.
pub struct Window {
    elapsed: Duration,
    allocs: Counts,
    peak: u64,
    sections: Vec<Section>,
    section: Option<(Instant, Counts)>,
    setups: Vec<f64>,
}

impl Window {
    /// An empty window.
    pub fn new() -> Window {
        Window {
            elapsed: Duration::ZERO,
            allocs: Counts::default(),
            peak: 0,
            sections: Vec::new(),
            section: None,
            setups: Vec::new(),
        }
    }

    /// Build an initial state, outside the window, and keep the host
    /// seconds it took as one reading of `setup_s`.
    pub fn set_up<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let built = build();
        self.setups.push(t.elapsed().as_secs_f64());
        built
    }

    /// Start a timed section.
    pub fn resume(&mut self) {
        alloc::reset_peak();
        self.section = Some((Instant::now(), Counts::now()));
    }

    /// End the timed section and file it under `class`; `op` marks the
    /// sections unit operations are made of.
    pub fn pause(&mut self, class: u32, op: bool) {
        let (t, before) = self.section.take().expect("pause without resume");
        let dt = t.elapsed();
        self.elapsed += dt;
        let c = Counts::since(before);
        self.allocs.allocs += c.allocs;
        self.allocs.bytes += c.bytes;
        self.peak = self.peak.max(alloc::peak_bytes());
        self.sections.push(Section { class, op, ms: dt.as_secs_f64() * 1e3 });
    }
}

/// The counters of a device the harness reads before and after a window.
#[derive(Clone, Copy, Default)]
pub struct MemMark {
    nvbm: TierStats,
    regions: [u64; 4],
    trav: TraversalStats,
}

impl MemMark {
    /// Read the counters.
    pub fn of(stats: &MemStats) -> MemMark {
        MemMark { nvbm: stats.nvbm, regions: stats.bytes_by_region(), trav: stats.trav }
    }

    /// Bytes committed to media since `earlier`.
    pub fn bytes_since(&self, earlier: &MemMark) -> u64 {
        self.regions.iter().sum::<u64>() - earlier.regions.iter().sum::<u64>()
    }

    /// Fill the `nvbm.*` counts and the traversal ratios of a traced pass.
    /// `wear` is the device's (or the merged ranks') statistics at the end.
    pub fn layer_since(&self, earlier: &MemMark, wear: &MemStats, out: &mut Layer) {
        out.insert("nvbm.read_lines", (self.nvbm.read_lines - earlier.nvbm.read_lines) as f64);
        out.insert("nvbm.write_lines", (self.nvbm.write_lines - earlier.nvbm.write_lines) as f64);
        // `pmoctree_nvbm::stats::REGIONS` order.
        for (i, name) in [
            "nvbm.bytes_root_table",
            "nvbm.bytes_octree",
            "nvbm.bytes_rt_heap",
            "nvbm.bytes_recorder",
        ]
        .into_iter()
        .enumerate()
        {
            out.insert(name, (self.regions[i] - earlier.regions[i]) as f64);
        }
        out.insert("nvbm.max_wear", wear.max_wear().0 as f64);
        out.insert("nvbm.wear_flatness", wear.wear_flatness());
        out.insert("nvbm.relocations", wear.relocations() as f64);
        let descents = self.trav.root_descents - earlier.trav.root_descents;
        let hits = self.trav.index_hits - earlier.trav.index_hits;
        let lines = self.trav.descent_lines - earlier.trav.descent_lines;
        out.insert("pm-octree.lines_per_descent", ratio(lines as f64, descents as f64));
        out.insert("pm-octree.index_hit_ratio", ratio(hits as f64, (hits + descents) as f64));
    }
}

/// One fresh pass of a workload.
pub struct Pass {
    /// Work units done in the window (the workload defines the unit).
    pub units: u64,
    /// Unit operations done in the window; their time is the `op` sections'.
    pub ops: u64,
    /// Virtual-clock ns of the window.
    pub virt_ns: u64,
    /// Bytes committed to NVBM media in the window.
    pub nvbm_bytes: u64,
    /// Unit operations and output checks.
    pub checks: Checks,
    /// Deterministic outputs (per-step leaves, per-step virtual ns, …):
    /// must be identical in every pass of one seed.
    pub fingerprint: Vec<u64>,
    /// Per-layer metrics; empty unless the pass was traced.
    pub layer: Layer,
    window: Window,
}

impl Pass {
    /// A pass whose window is `window`; the caller fills the rest.
    pub fn new(window: Window) -> Pass {
        Pass {
            units: 0,
            ops: 0,
            virt_ns: 0,
            nvbm_bytes: 0,
            checks: Checks::default(),
            fingerprint: Vec::new(),
            layer: Layer::new(),
            window,
        }
    }

    /// Host seconds of the measured window, as the clock read them.
    pub fn window_s(&self) -> f64 {
        self.window.elapsed.as_secs_f64()
    }

    /// The timed sections of the window, in order.
    pub fn sections(&self) -> &[Section] {
        &self.window.sections
    }

    /// Peak live heap inside the window, MiB.
    pub fn heap_peak_mb(&self) -> f64 {
        self.window.peak as f64 / (1u64 << 20) as f64
    }

    /// Virtual seconds of the window.
    pub fn virt_s(&self) -> f64 {
        self.virt_ns as f64 * 1e-9
    }

    /// Committed bytes per work unit.
    pub fn nvbm_bytes_per_unit(&self) -> f64 {
        ratio(self.nvbm_bytes as f64, self.units as f64)
    }

    /// Fill the `host.*` window metrics of a traced pass.
    pub fn host_layer(&mut self) {
        let units = self.units as f64;
        self.layer.insert("host.allocs_per_unit", ratio(self.window.allocs.allocs as f64, units));
        self.layer
            .insert("host.alloc_bytes_per_unit", ratio(self.window.allocs.bytes as f64, units));
    }
}

/// The end-to-end metrics of a workload. Host times are quiet readings:
/// the sections of one class, over all the passes, are repeats of equal
/// work, and the class's time is [`quiet`] of them; so are the set-ups. `throughput` is the
/// units of one pass over the sum of its sections' class times; `op_ms` is
/// the mean unit operation of a pass: the class times of its `op` sections
/// over its operations.
/// Deterministic metrics must agree across passes, which `checks` records.
pub struct EndToEnd {
    /// `name → value`, every end-to-end metric of `BENCHMARK.json`.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Unit operations of one pass.
    pub ops: u64,
    /// Readings behind the class times: fewest and most per class.
    pub repeats: (usize, usize),
    /// Readings behind `setup_s`.
    pub setups: usize,
    /// Passes folded.
    pub passes: usize,
    /// Operations and checks over all passes, plus the cross-pass checks.
    pub checks: Checks,
}

/// Fold the untraced passes of one workload and seed.
pub fn fold(passes: Vec<Pass>) -> EndToEnd {
    let mut checks = Checks::default();
    let first = &passes[0];
    let classes = |p: &Pass| p.sections().iter().map(|s| (s.class, s.op)).collect::<Vec<_>>();
    for (i, p) in passes.iter().enumerate().skip(1) {
        checks.expect(p.fingerprint == first.fingerprint && classes(p) == classes(first), || {
            format!("pass {i}: per-step leaves / virtual ns / sections differ from pass 0")
        });
        checks.expect(p.virt_ns == first.virt_ns && p.nvbm_bytes == first.nvbm_bytes, || {
            format!(
                "pass {i}: virt_ns {} / nvbm_bytes {} differ from pass 0 ({} / {})",
                p.virt_ns, p.nvbm_bytes, first.virt_ns, first.nvbm_bytes
            )
        });
    }
    let mut readings: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for s in passes.iter().flat_map(|p| p.sections()) {
        readings.entry(s.class).or_default().push(s.ms);
    }
    let class_ms: BTreeMap<u32, f64> = readings.iter().map(|(c, ms)| (*c, quiet(ms))).collect();
    let window_ms: f64 = first.sections().iter().map(|s| class_ms[&s.class]).sum();
    let ops_ms: f64 = first.sections().iter().filter(|s| s.op).map(|s| class_ms[&s.class]).sum();
    let setups: Vec<f64> = passes.iter().flat_map(|p| p.window.setups.iter().copied()).collect();
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", quiet(&setups));
    metrics.insert("throughput", ratio(first.units as f64, window_ms * 1e-3));
    metrics.insert("op_ms", ratio(ops_ms, first.ops as f64));
    metrics.insert("virt_s", first.virt_s());
    metrics.insert("nvbm_bytes_per_unit", first.nvbm_bytes_per_unit());
    metrics
        .insert("heap_peak_mb", median(&passes.iter().map(Pass::heap_peak_mb).collect::<Vec<_>>()));
    let repeats = (
        readings.values().map(Vec::len).min().unwrap_or(0),
        readings.values().map(Vec::len).max().unwrap_or(0),
    );
    let (n, ops) = (passes.len(), first.ops);
    for p in passes {
        checks.absorb(p.checks);
    }
    EndToEnd { metrics, ops, repeats, setups: setups.len(), passes: n, checks }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass of one unit operation in two sections (classes 0 and 1) and
    /// one other timed section (class 2).
    fn pass(setup_s: f64, ms: [f64; 3], virt_ns: u64) -> Pass {
        let mut w = Window::new();
        for (class, ms) in ms.into_iter().enumerate() {
            w.sections.push(Section { class: class as u32, op: class < 2, ms });
        }
        w.setups.push(setup_s);
        let mut p = Pass::new(w);
        p.units = 10;
        p.ops = 1;
        p.virt_ns = virt_ns;
        p.nvbm_bytes = 640;
        p.fingerprint = vec![1, 2, 3];
        p.checks.expect(true, String::new);
        p
    }

    #[test]
    fn fold_takes_quiet_readings_per_class_and_checks_determinism() {
        let e = fold(vec![
            pass(1.0, [10.0, 40.0, 5.0], 5),
            pass(3.0, [30.0, 20.0, 5.0], 5),
            pass(2.0, [20.0, 60.0, 1.0], 5),
        ]);
        assert_eq!(e.metrics["setup_s"], 1.0);
        // Class times 10, 20 and 1 ms: the fastest of each class's repeats.
        assert_eq!(e.metrics["op_ms"], 30.0);
        assert_eq!(e.metrics["throughput"], 10.0 / 0.031);
        assert_eq!((e.ops, e.repeats, e.setups, e.passes), (1, (3, 3), 3, 3));
        assert_eq!(e.metrics["nvbm_bytes_per_unit"], 64.0);
        // 3 per-pass checks + 2 × 2 cross-pass checks, none failed.
        assert_eq!((e.checks.attempted, e.checks.failed), (7, 0));
        let bad = fold(vec![pass(1.0, [1.0; 3], 5), pass(1.0, [1.0; 3], 6)]);
        assert_eq!(bad.checks.failed, 1);
        assert_eq!(bad.checks.notes.len(), 1);
    }

    #[test]
    fn window_accumulates_sections() {
        let mut w = Window::new();
        w.resume();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        std::hint::black_box(&v);
        w.pause(7, true);
        w.resume();
        w.pause(8, false);
        assert_eq!(
            w.sections.iter().map(|s| (s.class, s.op)).collect::<Vec<_>>(),
            [(7, true), (8, false)]
        );
        assert!(w.allocs.allocs >= 1 && w.allocs.bytes >= 1 << 20);
        assert!(w.peak >= 1 << 20);
        let sum: f64 = w.sections.iter().map(|s| s.ms).sum();
        assert!((w.elapsed.as_secs_f64() * 1e3 - sum).abs() < 1e-6);
    }
}
