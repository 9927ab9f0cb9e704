//! Experiment harness: one function per table/figure of the paper's
//! evaluation (§5), driven by the `repro` binary. Each function runs
//! the scaled-down experiment and returns structured rows; `fmt` helpers
//! print them in the paper's shape.
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
