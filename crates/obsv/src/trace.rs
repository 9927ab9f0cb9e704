//! The tracer: an event journal fed by RAII span guards.

use std::sync::{Arc, Mutex};

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// The most recently opened span closed.
    End,
    /// A point event (no duration).
    Instant,
}

/// One journal entry. `t_ns` is virtual time; `name` is a static label
/// from the span taxonomy (e.g. `persist::merge`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual-clock timestamp in nanoseconds.
    pub t_ns: u64,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Span or event label.
    pub name: &'static str,
    /// Optional numeric payload (step index, byte count, …).
    pub arg: Option<u64>,
}

struct Inner {
    tid: u32,
    journal: Mutex<Vec<Event>>,
}

/// Handle onto a per-rank event journal. Cloning shares the journal.
///
/// The default tracer is *disabled*: every operation is a branch on a
/// `None` and spans are no-op guards, so instrumentation left in place
/// costs nothing when tracing is off. The journal behind an enabled
/// tracer is "lock-free-ish": each simulated rank owns its own tracer, so
/// the mutex is uncontended and exists only to keep the handle `Send`.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(disabled)"),
            Some(i) => write!(f, "Tracer(tid={}, events={})", i.tid, self.events().len()),
        }
    }
}

impl Tracer {
    /// An enabled tracer with an empty journal. `tid` labels the rank in
    /// multi-rank traces.
    pub fn enabled(tid: u32) -> Self {
        Tracer { inner: Some(Arc::new(Inner { tid, journal: Mutex::new(Vec::new()) })) }
    }

    /// Is this tracer recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The rank id this journal belongs to (0 when disabled).
    pub fn tid(&self) -> u32 {
        self.inner.as_ref().map_or(0, |i| i.tid)
    }

    fn push(&self, e: Event) {
        if let Some(inner) = &self.inner {
            inner.journal.lock().expect("tracer journal poisoned").push(e);
        }
    }

    /// Record a span-begin event.
    pub fn begin(&self, name: &'static str, t_ns: u64, arg: Option<u64>) {
        self.push(Event { t_ns, kind: EventKind::Begin, name, arg });
    }

    /// Record a span-end event.
    pub fn end(&self, name: &'static str, t_ns: u64) {
        self.push(Event { t_ns, kind: EventKind::End, name, arg: None });
    }

    /// Record a point event.
    pub fn instant(&self, name: &'static str, t_ns: u64, arg: Option<u64>) {
        self.push(Event { t_ns, kind: EventKind::Instant, name, arg });
    }

    /// Snapshot of the event journal.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(i) => i.journal.lock().expect("tracer journal poisoned").clone(),
        }
    }

    /// Open a span. `now` reads the owning device's virtual clock; it is
    /// called once here and once when the guard drops. On a disabled
    /// tracer this allocates nothing and `now` is never called.
    pub fn span<F>(&self, name: &'static str, now: F) -> Span
    where
        F: Fn() -> u64 + Send + 'static,
    {
        if !self.is_enabled() {
            return Span::noop();
        }
        self.begin(name, now(), None);
        Span { tracer: self.clone(), name, now: Some(Box::new(now)) }
    }
}

/// RAII span guard: emits a Begin event when created (by
/// [`Tracer::span`]) and an End event when dropped. Early returns and `?`
/// therefore cannot leave the journal unbalanced.
pub struct Span {
    tracer: Tracer,
    name: &'static str,
    now: Option<Box<dyn Fn() -> u64 + Send>>,
}

impl Span {
    /// A guard that does nothing (what a disabled tracer hands out).
    pub fn noop() -> Span {
        Span { tracer: Tracer::default(), name: "", now: None }
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Span({:?})", self.name)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(now) = &self.now {
            self.tracer.end(self.name, now());
        }
    }
}

/// Deterministically merge per-rank journals gathered at a barrier.
///
/// Under the worker pool ranks record concurrently into their own
/// journals, so the *collection* order of `(tid, events)` threads is
/// whatever order the coordinator polled them in — possibly influenced by
/// which ranks recorded anything at all. This helper makes the merged
/// stream a pure function of journal *content*: threads are stably sorted
/// by tid and journals of duplicate tids are concatenated in input order,
/// so exporters downstream (`chrome::trace_json`, attribution tables)
/// see the same byte stream for any worker count.
pub fn merge_threads(threads: Vec<(u32, Vec<Event>)>) -> Vec<(u32, Vec<Event>)> {
    let mut threads = threads;
    threads.sort_by_key(|(tid, _)| *tid);
    let mut out: Vec<(u32, Vec<Event>)> = Vec::with_capacity(threads.len());
    for (tid, events) in threads {
        match out.last_mut() {
            Some((last_tid, last_events)) if *last_tid == tid => last_events.extend(events),
            _ => out.push((tid, events)),
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn clock() -> (Arc<AtomicU64>, impl Fn() -> u64 + Send + Clone + 'static) {
        let c = Arc::new(AtomicU64::new(0));
        let h = c.clone();
        (c, move || h.load(Ordering::Relaxed))
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::default();
        let (_c, now) = clock();
        {
            let _s = t.span("persist", now);
        }
        t.instant("x", 1, None);
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
        assert_eq!(t.tid(), 0);
    }

    #[test]
    fn span_guard_balances_on_early_return() {
        let t = Tracer::enabled(3);
        let (c, now) = clock();
        let run = |t: &Tracer| {
            let _outer = t.span("persist", now.clone());
            c.store(100, Ordering::Relaxed);
            let _inner = t.span("persist::merge", now.clone());
            c.store(250, Ordering::Relaxed);
            // early return: both guards drop, inner first
        };
        run(&t);
        let ev = t.events();
        assert_eq!(ev.len(), 4);
        assert_eq!((ev[0].kind, ev[0].name, ev[0].t_ns), (EventKind::Begin, "persist", 0));
        assert_eq!((ev[1].kind, ev[1].name, ev[1].t_ns), (EventKind::Begin, "persist::merge", 100));
        assert_eq!((ev[2].kind, ev[2].name), (EventKind::End, "persist::merge"));
        assert_eq!((ev[3].kind, ev[3].name), (EventKind::End, "persist"));
        assert_eq!(t.tid(), 3);
    }

    #[test]
    fn merge_threads_is_collection_order_independent() {
        let ev = |t_ns| Event { t_ns, kind: EventKind::Instant, name: "x", arg: None };
        let a = (0u32, vec![ev(1), ev(2)]);
        let b = (1u32, vec![ev(5)]);
        let b2 = (1u32, vec![ev(9)]);
        let merged = merge_threads(vec![b.clone(), a.clone(), b2.clone()]);
        // Sorted by tid; duplicate tids concatenated in input order.
        assert_eq!(merged, vec![a.clone(), (1, vec![ev(5), ev(9)])]);
        // A different polling order of distinct tids yields the same merge.
        assert_eq!(
            merge_threads(vec![b, b2, a.clone()]),
            merge_threads(vec![a, (1, vec![ev(5)]), (1, vec![ev(9)])])
        );
    }
}
