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
//! * **one commit point**: publishing the new table is the arena's one
//!   sealed header record
//!   ([`NvbmArena::publish`](pmoctree_nvbm::NvbmArena::publish)), the
//!   same publication `pm-octree` persists through — inside a combined persist it is one
//!   record naming the tree and the table, so no new consistency
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
//!   with per-tenant quotas and one root swap per batch.
//!
//! All public verbs report the workspace [`PmError`] taxonomy.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod data;
mod heap;
mod log;
pub mod mvcc;
pub mod rt;
pub mod service;
pub mod tenant;

pub use data::{ByteReader, ByteWriter, PmData};
pub use mvcc::Snapshot;
pub use pmoctree_nvbm::PmError;
pub use rt::{PPtr, PmRt, CHECKPOINT_EVERY};
pub use service::{
    BatchReport, CmdResult, ServiceCmd, ServiceConfig, ServiceConfigBuilder, ServiceReply,
    ServiceStats, StateService,
};
pub use tenant::{RootHandle, Session, TenantHandle};
