//! Baseline octree implementations from the paper's evaluation (§5.1).
//!
//! * [`incore::InCoreOctree`] — Gerris' ephemeral in-core pointer octree:
//!   all octants in DRAM, persistence via whole-tree snapshot files on an
//!   NVBM-backed file system every N steps.
//! * [`etree::EtreeOctree`] — the Etree-style out-of-core linear octree:
//!   octants in 4 KiB pages behind a disk-backed B-tree index
//!   ([`btree::DiskBTree`]), every access through the file-system
//!   interface.
//!
//! Both charge the same virtual-clock cost models as PM-octree, so the
//! three implementations can be compared head-to-head by the `cluster`
//! and `bench` crates.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod btree;
pub mod etree;
pub mod incore;
pub mod snapshot;

pub use btree::DiskBTree;
pub use etree::{EtreeOctree, RECORDS_PER_PAGE};
pub use incore::InCoreOctree;
pub use snapshot::{decode_octants, encode_octants, OctantRecord, RECORD_SIZE};
