//! # PM-octree — a persistent merged octree for NVBM
//!
//! Reproduction of the data structure from *"Large-Scale Adaptive Mesh
//! Simulations Through Non-Volatile Byte-Addressable Memory"* (SC'17):
//! a multi-version octree that lives partly in DRAM (the hot `C0`
//! subtrees) and partly in emulated NVBM (the `C1` tree plus the previous
//! persistent version `V_{i-1}`).
//!
//! Key properties, each enforced by tests in the corresponding module:
//!
//! * **Crash consistency without fences** — updates are copy-on-write;
//!   `V_{i-1}` is immutable until the single atomic root swap at
//!   [`PmOctree::persist`]. Arbitrary loss/reordering of unflushed
//!   cachelines cannot corrupt the persisted version (`c1`).
//! * **Structural sharing** — unchanged subtrees are shared between
//!   versions; merging diffs against a shadow image so that quiet time
//!   steps persist almost for free (`c1::merge_subtree`).
//! * **Deferred deletion + mark-and-sweep GC** — a delete rewrites the
//!   (exclusive) parent's links and never the octant it unlinks; space is
//!   reclaimed by `gc`, whose mark pass also rebuilds the allocator
//!   after a crash.
//! * **Feature-directed dynamic layout transformation** — application
//!   feature functions are pre-executed on sampled octants to decide
//!   which subtrees deserve DRAM (`sampling`, `transform`).
//! * **Orthogonal persistence** — the Table 1 interface
//!   (`pm_create` / `pm_persistent` / `pm_restore` / `pm_delete`) is
//!   [`PmOctree::create`] / [`PmOctree::persist`] / [`PmOctree::restore`]
//!   / [`PmOctree::delete`]; persistent-pointer management is entirely
//!   internal.
//!
//! ```
//! use pm_octree::{PmConfig, PmOctree};
//! use pmoctree_morton::OctKey;
//! use pmoctree_nvbm::{DeviceModel, NvbmArena};
//!
//! let arena = NvbmArena::new(8 << 20, DeviceModel::default());
//! let mut tree = PmOctree::create(arena, PmConfig::default());
//! tree.refine(OctKey::root()).unwrap();
//! tree.persist(); // V_{i-1} := V_i, crash-safe from here
//! assert_eq!(tree.leaf_count(), 8);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Restore and recovery must never panic on what they find on the media;
// corruption is reported as `PmError::Corrupt`. The lint keeps `unwrap()`
// out of the crate wholesale — the few provably-infallible sites carry an
// explicit `#[allow]` with their proof, and tests opt out per-module.
#![warn(clippy::unwrap_used)]

mod api;
mod c0;
mod c1;
mod config;
mod gc;
mod octant;
mod replica;
mod sampling;
mod transform;
mod verify;

pub use api::{Events, PersistHook, PmError, PmOctree};
pub use config::{PmConfig, PmConfigBuilder};
pub use gc::GcReport;
pub use octant::{CellData, OctAccess, Octant, PmStore, OCTANT_SIZE};
pub use replica::ReplicaSet;
pub use sampling::FeatureFn;
pub use verify::check_invariants;
