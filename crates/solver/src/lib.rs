//! The droplet-ejection workload (§5.1's "driving scientific problem").
//!
//! An inkjet liquid jet grows from a nozzle, necks under a
//! Rayleigh–Plateau perturbation, pinches off, and breaks into primary
//! and satellite droplets. The interface is prescribed analytically
//! ([`interface::DropletEjection`]); refinement criteria
//! ([`criteria::InterfaceCriterion`]) keep the mesh fine in a band around
//! it, and finite-volume-style sweeps ([`sweeps`]) reproduce the
//! write-intensive access mix the paper measured. [`driver::Simulation`]
//! ties it together with per-routine virtual-time breakdowns.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod criteria;
pub mod driver;
pub mod interface;
pub mod persistent;
pub mod sweeps;

pub use criteria::{refinement_feature, solver_feature, InterfaceCriterion, SharedTime};
pub use driver::{RunReport, SimConfig, Simulation, StepBreakdown};
pub use interface::{DropletEjection, DropletParams};
pub use persistent::{
    canonical_pm_cfg, reattach, resume_persistent, run_persistent, run_persistent_partial,
    PersistentRun, Reattach, RunState, RUN_ROOT, RUN_TENANT,
};
pub use sweeps::{advect, estimate_work, relax_pressure};
