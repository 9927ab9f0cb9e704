//! A simulated file system over a block-device cost model.
//!
//! Two of the paper's three octree implementations go through a file
//! system: the in-core baseline writes whole-tree **snapshot files**
//! (Gerris' `gfs_output_write`), and the Etree baseline stores octant
//! **pages** behind a B-tree index. Both pay (a) per-operation software
//! overhead (syscall + FS path) and (b) page-granularity transfer costs —
//! even when the backing device is NVBM, which is the paper's point: "I/O
//! optimization techniques used in these algorithms only incur additional
//! memory latency, which may offset the benefits of NVBM".
//!
//! The device is chosen by a [`BlockDeviceModel`]; costs are charged to a
//! [`VirtualClock`](pmoctree_nvbm::VirtualClock) the same way `pmoctree-nvbm` charges byte-level
//! accesses.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod file;
pub mod posix;

pub use file::{FsStats, SimFs};
pub use posix::{Fd, OpenMode, PosixError, PosixFs};

pub use pmoctree_nvbm::model::BlockDeviceModel;
