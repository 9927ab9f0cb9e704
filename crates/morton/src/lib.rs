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
//! * [`simd`] — batched kernels (`encode_many`, `decode_many`,
//!   `cmp_keys_many`, `children_many`, `neighbors_many`) behind a
//!   **one-time runtime dispatch**: BMI2 `pdep`/`pext` + AVX2 shifts on
//!   x86-64 CPUs that report them, the portable scalar cascades
//!   everywhere else. The two paths are bit-identical; set
//!   `PMOCTREE_MORTON_FORCE_SCALAR=1` to pin the fallback (CI does, so
//!   dispatch is exercised even without the hardware).
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
