//! Orthogonal-persistence runtime (`pm-rt`): the paper's §4 programming
//! interface for *any* serializable object, not just octants.
//!
//! The paper presents four verbs — `pm_create`, `pm_persistent`,
//! `pm_restore`, `pm_delete` — with "automatic persistent-pointer
//! management". `pm-octree` implements them for the octree; this crate
//! generalizes the same discipline to arbitrary application state, so a
//! crashed simulation resumes the *run* (config, step index, timing
//! breakdowns), not merely the mesh:
//!
//! * a **typed persistent root registry**: named roots map to entries in
//!   an epoch-versioned object table;
//! * [`PPtr<T>`] **persistent pointers**: arena-relative offsets, never
//!   raw addresses, re-validated ("swizzled") against the arena base on
//!   every restore;
//! * **copy-on-write updates**: a `put` writes a fresh object blob and a
//!   fresh table; nothing committed is ever modified in place;
//! * **one atomic commit point**: publishing the new table is a single
//!   8-byte flushed header store ([`NvbmArena::set_rt_root`]
//!   (pmoctree_nvbm::NvbmArena::set_rt_root)) — exactly the root-swap
//!   `pm-octree` already proves crash-consistent, so no new consistency
//!   argument is needed (see DESIGN.md). The commit and swizzle points
//!   register as `FailPlan` failpoints `rt::commit` / `rt::swizzle` and
//!   are covered by the crash-point sweep.
//!
//! Objects live in a downward-growing heap carved from the **top** of the
//! same arena the octree bump-allocates from the bottom, so one crash,
//! one image, and one replica ship cover both subsystems.
//!
//! On top of the runtime sit three service-era layers (see DESIGN.md
//! "Multi-tenant service & MVCC snapshots"):
//!
//! * [`tenant`] — the typed-handle API ([`Session`] → [`TenantHandle`] →
//!   [`RootHandle`]) replacing the stringly `put::<T>(arena, name, v)`
//!   surface;
//! * [`mvcc`] — pinned [`Snapshot`] readers over retained COW root-table
//!   versions, with refcounted GC deferral;
//! * [`service`] — the batched multi-tenant front-end ([`StateService`])
//!   with per-tenant quotas, leases, and one root swap per batch.
//!
//! All public verbs report the workspace [`PmError`] taxonomy.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod data;
pub mod heap;
pub mod log;
pub mod mvcc;
pub mod rt;
pub mod service;
pub mod tenant;

pub use data::{ByteReader, ByteWriter, PmData};
pub use heap::LogHeap;
pub use log::{Record, RecordKind};
pub use mvcc::Snapshot;
pub use pm_octree::PmError;
pub use rt::{PPtr, PmRt, RtError, CHECKPOINT_EVERY, COMPACT_WATERMARK};
pub use service::{
    BatchReport, CmdResult, ServiceCmd, ServiceConfig, ServiceConfigBuilder, ServiceReply,
    ServiceStats, StateService, TenantLease,
};
pub use tenant::{RootHandle, Session, TenantHandle};
