//! Locational-code arithmetic for linear and pointer-based octrees.
//!
//! This crate is the shared foundation of the PM-octree workspace: every
//! octree implementation (the PM-octree itself, the Gerris-style in-core
//! baseline, and the Etree-style out-of-core baseline) identifies cells by
//! a [`Key`]: a Morton-encoded locational code plus a refinement level.
//!
//! Provided here:
//! * [`bits`] — branch-free bit interleaving (2D and 3D),
//! * [`code`] — the [`Key`] type: parent/child/ancestor/neighbor calculus,
//!   Z-order total order,
//! * [`range`] — Morton-curve intervals and the weighted splitting used by
//!   the `Partition` meshing routine,
//! * [`index`] — [`LeafIndex`]: a Morton-sorted linear view of a leaf set
//!   with incremental refine/coarsen maintenance and merge-scan batch
//!   containment queries,
//! * [`simd`] — batch entry points (`encode_many`, `decode_many`,
//!   `cmp_keys_many`, `zorder_argsort`, `neighbors_many`): the per-key
//!   calculus of [`bits`] and [`code`] over a whole slice, one portable
//!   path. The name is historical and stays because `perf/` imports it.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod bits;
pub mod code;
pub mod index;
pub mod range;
pub mod simd;

pub use code::{Key, OctKey, QuadKey};
pub use index::LeafIndex;
pub use range::{anchor, anchor_end, partition_by_weight, ZRange};
