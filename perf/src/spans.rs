//! Harness-owned spans: the harness times its own calls into the layers'
//! public functions, so every layer is measured from outside.
//!
//! A span is `(name, start, end, parent, op)`; the spans of one unit
//! operation share its `op` id. Spans are kept in memory and written out
//! as a Chrome trace when the run ends. With tracing off every method is
//! a no-op, so the end-to-end passes pay nothing for the instrumentation.

use std::time::Instant;

use crate::alloc::Counts;

/// Name of the span that wraps one unit operation of a workload.
pub const OP: &str = "op";

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`, or [`OP`] for the unit operation itself.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the unit operation this span belongs to (0 = outside any).
    pub op: u64,
    /// Heap allocations made while the span was open.
    pub allocs: u64,
}

impl Span {
    /// Inclusive duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span store.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, outermost first.
    open: Vec<(usize, Counts)>,
    next_op: u64,
}

/// Handle returned by [`Spans::open`]; pass it back to [`Spans::close`].
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    /// A recorder that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), next_op: 0 }
    }

    /// Is this the traced run?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under whatever span is open now.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.open.last().map(|&(i, _)| i);
        let op = match parent {
            Some(p) => self.spans[p].op,
            None if name == OP => {
                self.next_op += 1;
                self.next_op
            }
            None => 0,
        };
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op, allocs: 0 });
        self.open.push((idx, Counts::now()));
        Open(Some(idx))
    }

    /// Close the innermost open span, which must be `handle`'s.
    pub fn close(&mut self, handle: Open) {
        let Some(idx) = handle.0 else { return };
        let end_ns = self.now_ns();
        let (top, before) = self.open.pop().expect("close without open");
        assert_eq!(top, idx, "spans must close innermost first");
        self.spans[idx].end_ns = end_ns;
        self.spans[idx].allocs = Counts::since(before).allocs;
    }

    /// Run `f` inside a span.
    pub fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let h = self.open(name);
        let out = f();
        self.close(h);
        out
    }

    /// All recorded spans, in opening order.
    #[cfg(test)]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Inclusive durations of every span called `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Summed inclusive duration of every span called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum()
    }

    /// Summed allocations of every span called `name`.
    pub fn allocs(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.allocs).sum()
    }

    /// Self time per span: its duration minus the part of it that its
    /// direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Share of the unit operations' time that no layer span covers: the
    /// self time of the [`OP`] spans over their duration.
    pub fn residual_share(&self) -> f64 {
        let own = self.self_ns();
        let (mut uncovered, mut total) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(own) {
            if s.name == OP {
                uncovered += own;
                total += s.dur_ns();
            }
        }
        crate::stats::ratio(uncovered as f64, total as f64)
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("", |p| self.spans[p].name);
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"parent\":\"{}\",\"allocs\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                parent,
                s.allocs
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic tree with known times:
    /// op[0,100] ⊃ a[10,40] ⊃ a1[15,25]; op ⊃ b[50,90]; lone[200,210].
    fn synthetic() -> Spans {
        let mk = |name, start_ns, end_ns, parent, op| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            allocs: 0,
        };
        let mut s = Spans::new(true);
        s.spans = vec![
            mk(OP, 0, 100, None, 1),
            mk("x.a", 10, 40, Some(0), 1),
            mk("x.a1", 15, 25, Some(1), 1),
            mk("y.b", 50, 90, Some(0), 1),
            mk("z.lone", 200, 210, None, 0),
        ];
        s
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(synthetic().self_ns(), vec![30, 20, 10, 40, 10]);
    }

    #[test]
    fn residual_is_uncovered_op_time() {
        // 100 ns of op, 30 + 40 covered by its direct children.
        assert_eq!(synthetic().residual_share(), 0.3);
        assert_eq!(Spans::new(true).residual_share(), 0.0);
    }

    #[test]
    fn open_close_links_parent_and_op() {
        let mut s = Spans::new(true);
        let op = s.open(OP);
        let inner = s.run("x.a", || 7);
        assert_eq!(inner, 7);
        s.close(op);
        s.run("z.lone", || ());
        let op2 = s.open(OP);
        s.close(op2);
        let all = s.all();
        assert_eq!(all.len(), 4);
        assert_eq!((all[1].parent, all[1].op), (Some(0), 1));
        assert_eq!((all[2].parent, all[2].op), (None, 0));
        assert_eq!(all[3].op, 2);
        assert!(all[0].end_ns >= all[1].end_ns && all[0].start_ns <= all[1].start_ns);
        assert_eq!(s.durations_ms("x.a").len(), 1);
        let trace = s.chrome_trace();
        assert!(serde_json::from_str(&trace).is_ok(), "trace must be valid JSON");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let h = s.open(OP);
        assert_eq!(s.run("x.a", || 3), 3);
        s.close(h);
        assert!(s.all().is_empty());
    }
}
