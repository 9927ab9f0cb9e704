//! Multi-rank scaling simulation.
//!
//! The paper evaluates PM-octree on up to 1000 Titan processors; this
//! crate reproduces the *shape* of those experiments on one machine:
//! every rank runs the real meshing/solver code on its Morton-range
//! subdomain (in parallel threads), while the Gemini-class interconnect
//! is modeled with α–β costs charged to per-rank virtual clocks (see
//! DESIGN.md substitution table).
//!
//! * [`rank`] — one simulated processor (backend + owned curve range).
//! * [`scaling`] — bulk-synchronous stepping, repartitioning, and the
//!   weak/strong scaling reports behind Figures 6–10.
//! * [`failure`] — the §5.6 kill-and-restart experiments.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod failure;
pub mod rank;
pub mod scaling;

pub use failure::{
    etree_recovery, incore_recovery, pm_recovery, recovery_comparison, rt_recovery, RecoveryReport,
    RtRecoveryReport,
};
pub use rank::{RangedCriterion, Rank, Scheme};
pub use scaling::{max_level_for, ClusterReport, ClusterSim, ClusterStep};
