//! Adaptive-mesh-refinement meshing routines over octree backends.
//!
//! §2 of the paper decomposes octree meshing into five routines; this
//! crate implements each one generically over [`OctreeBackend`], so the
//! identical simulation code runs against PM-octree, the in-core
//! baseline, and the Etree out-of-core baseline:
//!
//! | routine            | module        |
//! |---------------------|--------------|
//! | Construct           | [`construct`] |
//! | Refine & Coarsen    | [`refine`]    |
//! | Balance (2:1)       | [`mod@balance`]   |
//! | Partition           | [`mod@partition`] |
//! | Extract             | [`mod@extract`]   |
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod backend;
pub mod balance;
pub mod construct;
pub mod extract;
pub mod gerris;
pub mod partition;
pub mod refine;
pub mod vtk;

pub use backend::{neighbor_queries, Cell, EtreeBackend, InCoreBackend, OctreeBackend, PmBackend};
pub use balance::{
    balance, balance26, balance_subset, can_coarsen, can_coarsen_many, check_balance,
    check_balance26, coarsen_balanced, refine_balanced,
};
pub use construct::{construct_path, construct_uniform};
pub use extract::{extract, Mesh};
pub use partition::{migration_plan, partition, weighted_leaves, Migration};
pub use refine::{adapt, AdaptCriterion, AdaptReport, BandCriterion, Target};
pub use vtk::export_vtk_with_fields;
