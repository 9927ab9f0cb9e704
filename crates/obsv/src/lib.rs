//! Observability for the PM-octree repro: spans and an event journal,
//! stamped with the deterministic virtual clock.
//!
//! The paper's headline numbers are *attributions* — virtual time spent in
//! C0→C1 merges, GC sweeps, root swaps, layout transforms — so this crate
//! makes every protocol phase a first-class [`Span`] whose begin/end
//! timestamps come from `pmoctree_nvbm`'s virtual clock. Because the clock
//! is deterministic, traces are byte-identical run-to-run, and because
//! tracing only *reads* the clock (never advances it), enabling it inflates
//! virtual time by exactly zero.
//!
//! A disabled [`Tracer`] (the default) is a `None`: span creation returns
//! a no-op guard without allocating, and every record call is a single
//! branch. The span names mirror the `FailPlan` crash-opportunity labels
//! one-to-one (`persist::merge`, `gc::sweep`, `c0::evict`, …) so a trace
//! can be read against the crash-matrix taxonomy.
//!
//! The journal records time only. What the device counts — bytes and lines
//! per tier, wear per region and phase — lives in `pmoctree_nvbm::MemStats`,
//! bumped at the write site; the tracer keeps no copy of it.
//!
//! Exporters: [`chrome::trace_json`] (loadable in `chrome://tracing` /
//! Perfetto) and [`attribution`] tables for the `repro` harness.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod attribution;
pub mod chrome;
pub mod trace;

pub use attribution::{coverage, inclusive_totals, step_table, AttrRow, SpanNode, StepAttr};
pub use trace::{merge_threads, Event, EventKind, Span, Tracer};
