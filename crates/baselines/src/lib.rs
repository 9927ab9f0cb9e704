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
//! Both implement `pmoctree_amr::OctreeBackend` with PM-octree's cost
//! models, so the three implementations can be compared head-to-head by
//! the `cluster` and `bench` crates.
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

use pmoctree_nvbm::MemStats;
use pmoctree_simfs::SimFs;

/// A baseline's DRAM-side counters with its file-system traffic
/// (snapshots, Etree pages) folded into the NVBM tier at cacheline
/// granularity, so schemes stay comparable.
fn with_fs_traffic(tree: &MemStats, fs: &SimFs) -> MemStats {
    let mut s = tree.clone();
    s.nvbm_read(fs.stats.bytes_read as usize, fs.stats.bytes_read.div_ceil(64));
    s.nvbm_write(fs.stats.bytes_written as usize, fs.stats.bytes_written.div_ceil(64));
    s
}
