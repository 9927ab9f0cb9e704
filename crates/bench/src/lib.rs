//! Experiment harness: one function per table/figure of the paper's §5
//! evaluation, driven by the `repro` binary. Each runs its experiment
//! scaled down and returns rows that `fmt::table` renders in the paper's
//! shape and [`json::write_bench_json`] writes to `BENCH_<experiment>.json`.
//!
//! See DESIGN.md for the experiment index and EXPERIMENTS.md for the
//! recorded paper-vs-measured comparison.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod crash_sweep;
pub mod experiments;
pub mod fmt;
pub mod json;
pub mod trace_check;

pub use crash_sweep::*;
pub use experiments::*;
pub use trace_check::{check_bench_doc, check_trace, looks_like_bench_doc, TraceSummary};
