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

pub use backend::{leaf_only, Cell, OctreeBackend, PmBackend};
pub use balance::{balance_subset, can_coarsen_many, check_balance, coarse_neighbors};
pub use construct::{construct_path, construct_uniform};
pub use extract::{extract, Mesh};
pub use partition::{partition, weighted_leaves};
pub use refine::{adapt, AdaptCriterion, AdaptReport, Target};
pub use vtk::export_vtk_with_fields;
