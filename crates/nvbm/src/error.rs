//! The one error type of the persistent stack: the octree's meshing and
//! recovery interface and the runtime and service above it all report
//! [`PmError`]. It lives with the device so that every layer names the
//! same type without depending on the layers above the device.

/// Errors surfaced by the meshing, recovery, runtime and service
/// interfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmError {
    /// No octant exists at this key in `V_i`.
    NotFound(String),
    /// Refinement of a non-leaf or of a leaf at `OctKey::MAX_LEVEL`, or
    /// coarsening of a leaf.
    NotALeaf(String),
    /// Coarsening would violate structure (children not all leaves).
    NotCoarsenable(String),
    /// On-media state failed structural validation: an out-of-bounds or
    /// misaligned pointer, a key inconsistent with its position, a cycle,
    /// a non-zero reserved byte, or a live octant on the free list.
    /// Recovery and the invariant checker report this instead of
    /// panicking on corrupt media.
    Corrupt(String),
    /// Recovery could not start (unformatted device, no persisted
    /// version) or a configuration was rejected.
    Recovery(String),
    /// A tenant's write would exceed its byte quota (`pm-rt` service
    /// layer). The operation was rejected before touching media.
    QuotaExceeded(String),
    /// An MVCC snapshot handle outlived the state it pinned (media
    /// restored from a replica, or the runtime registry destroyed).
    SnapshotGone(String),
    /// The NVBM device is full. The failed mutation left nothing
    /// half-linked: COW paths allocate every copy before the single
    /// publication write, so the pre-mutation version stays intact and
    /// restorable; orphaned copies are retired like any unlinked octant.
    Full(String),
}

impl std::fmt::Display for PmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmError::NotFound(k) => write!(f, "octant not found: {k}"),
            PmError::NotALeaf(k) => write!(f, "octant is not a leaf: {k}"),
            PmError::NotCoarsenable(k) => write!(f, "octant cannot be coarsened: {k}"),
            PmError::Corrupt(what) => write!(f, "persistent state corrupt: {what}"),
            PmError::Recovery(what) => write!(f, "recovery failed: {what}"),
            PmError::QuotaExceeded(what) => write!(f, "tenant quota exceeded: {what}"),
            PmError::SnapshotGone(what) => write!(f, "snapshot no longer valid: {what}"),
            PmError::Full(what) => write!(f, "NVBM full: {what}"),
        }
    }
}

impl std::error::Error for PmError {}
