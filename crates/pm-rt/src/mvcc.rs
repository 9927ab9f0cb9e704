//! MVCC snapshot reads: pin a committed root-table version and keep
//! reading it while later commits move the world forward.
//!
//! COW commits make this nearly free — a committed blob is never
//! modified in place, so a snapshot only has to (1) copy the committed
//! name → entry map (volatile, small) and (2) *pin* its epoch in the
//! device's [`EpochPins`](pmoctree_nvbm::EpochPins) registry so the
//! runtime's GC defers every blob retired by a later commit
//! ([`PmRt::collect`] frees a blob retired at epoch `e` only once no pin
//! `< e` remains). Dropping the [`Snapshot`] releases the pin; the next
//! collect (or commit) reclaims whatever it was protecting.
//!
//! A snapshot never observes in-flight state: it is built from the
//! *committed* table only, so staged writes — even ones already sitting
//! in NVBM — are invisible until their root swap. If the media is
//! replaced under a live snapshot (replica restore, registry destroy)
//! the pin registry is invalidated and every read reports
//! [`PmError::SnapshotGone`] instead of touching reused blobs.

use std::collections::BTreeMap;

use pm_octree::PmError;
use pmoctree_nvbm::{NvbmArena, PinGuard};

use crate::data::PmData;
use crate::rt::{read_blob, Entry, PmRt};

/// A pinned, immutable view of the committed registry at one epoch.
///
/// Obtained from [`PmRt::snapshot`] / [`PmRt::snapshot_prefix`] (or
/// `TenantHandle::snapshot`, which scopes it to the tenant's namespace
/// and strips the prefix from names). Reads are byte-identical for the
/// snapshot's whole lifetime, regardless of commits and GC passes that
/// happen after it was taken.
pub struct Snapshot {
    epoch: u64,
    /// Names (prefix-stripped) → committed entries at `epoch`.
    entries: BTreeMap<String, Entry>,
    pin: PinGuard,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("roots", &self.entries.len())
            .field("live", &self.pin.is_live())
            .finish()
    }
}

impl Snapshot {
    /// The committed epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Is the pin still protecting the epoch? `false` after the media
    /// was replaced or the registry destroyed — reads then fail with
    /// [`PmError::SnapshotGone`].
    pub fn is_live(&self) -> bool {
        self.pin.is_live()
    }

    /// Number of roots captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Does the snapshot capture no roots?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Captured root names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Read a root's raw payload bytes as of the pinned epoch. `Ok(None)`
    /// if the name was not registered at that epoch.
    pub fn get_bytes(&self, arena: &mut NvbmArena, name: &str) -> Result<Option<Vec<u8>>, PmError> {
        if !self.pin.is_live() {
            return Err(PmError::SnapshotGone(format!(
                "snapshot of epoch {} outlived its lineage",
                self.epoch
            )));
        }
        let Some(&e) = self.entries.get(name) else {
            return Ok(None);
        };
        read_blob(arena, e.off, Some(e.len)).map(Some).map_err(PmError::from)
    }

    /// Read and decode a root as of the pinned epoch. `Ok(None)` if the
    /// name was not registered at that epoch.
    pub fn get<T: PmData>(&self, arena: &mut NvbmArena, name: &str) -> Result<Option<T>, PmError> {
        match self.get_bytes(arena, name)? {
            Some(payload) => T::from_bytes(&payload).map(Some).map_err(PmError::from),
            None => Ok(None),
        }
    }
}

impl PmRt {
    /// Pin the entire committed registry at the current epoch. The
    /// returned [`Snapshot`] rereads byte-identical values until dropped,
    /// deferring GC of everything it can still reach.
    pub fn snapshot(&self, arena: &mut NvbmArena) -> Snapshot {
        self.snapshot_prefix(arena, "")
    }

    /// Pin the committed roots whose name starts with `prefix`, stored
    /// with the prefix stripped (so a tenant snapshot is addressed by
    /// bare root names). Fires the `svc::snapshot_pin` failpoint — the
    /// pin itself is volatile, but the sweep proves that crashing at the
    /// moment a reader attaches never perturbs recovery.
    pub fn snapshot_prefix(&self, arena: &mut NvbmArena, prefix: &str) -> Snapshot {
        let _s = arena.span("svc::snapshot_pin");
        let entries = self.committed_with_prefix(prefix);
        let pin = arena.rt_pins().pin(self.epoch());
        arena.failpoint("svc::snapshot_pin");
        Snapshot { epoch: self.epoch(), entries, pin }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pmoctree_nvbm::{CrashMode, DeviceModel};

    fn arena() -> NvbmArena {
        NvbmArena::new(1 << 20, DeviceModel::default())
    }

    #[test]
    fn snapshot_rereads_byte_identical_across_commits_and_gc() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "t/x", &0xAABBu64).unwrap();
        rt.stage(&mut a, "t/y", &"hello".to_string()).unwrap();
        rt.commit(&mut a).unwrap();
        let snap = rt.snapshot_prefix(&mut a, "t/");
        let e = snap.epoch();
        let x0 = snap.get_bytes(&mut a, "x").unwrap().unwrap();
        let y0 = snap.get_bytes(&mut a, "y").unwrap().unwrap();
        // ≥10 subsequent commits rewriting both roots, plus GC passes.
        for i in 0..12u64 {
            rt.stage(&mut a, "t/x", &i).unwrap();
            rt.stage(&mut a, "t/y", &format!("v{i}")).unwrap();
            rt.commit(&mut a).unwrap();
            rt.collect(&mut a);
        }
        assert!(!rt.deferred.is_empty(), "pin must defer frees");
        assert_eq!(snap.get_bytes(&mut a, "x").unwrap().unwrap(), x0);
        assert_eq!(snap.get_bytes(&mut a, "y").unwrap().unwrap(), y0);
        assert_eq!(snap.get::<u64>(&mut a, "x").unwrap(), Some(0xAABB));
        assert_eq!(snap.epoch(), e);
        // Dropping the snapshot lets collect reclaim the old versions.
        drop(snap);
        assert!(rt.collect(&mut a) > 0);
        assert!(rt.deferred.is_empty());
    }

    #[test]
    fn snapshot_never_observes_staged_writes() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "x", &1u64).unwrap();
        rt.commit(&mut a).unwrap();
        rt.stage(&mut a, "x", &2u64).unwrap(); // in-flight, not committed
        rt.stage(&mut a, "new", &3u64).unwrap();
        let snap = rt.snapshot(&mut a);
        assert_eq!(snap.get::<u64>(&mut a, "x").unwrap(), Some(1));
        assert_eq!(snap.get::<u64>(&mut a, "new").unwrap(), None);
    }

    #[test]
    fn snapshot_gone_after_media_restore() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "x", &1u64).unwrap();
        rt.commit(&mut a).unwrap();
        let image = a.clone_media();
        let snap = rt.snapshot(&mut a);
        assert!(snap.is_live());
        a.restore_media(&image);
        assert!(!snap.is_live());
        assert!(matches!(snap.get::<u64>(&mut a, "x"), Err(PmError::SnapshotGone(_))));
    }

    /// Acceptance property: a blob a pinned snapshot references is never
    /// relocated or reclaimed until the pin drops — the wear/compaction
    /// GC only ever *copies* live blobs and defers the original, so the
    /// snapshot rereads byte-identical data at the original offset all
    /// along.
    #[test]
    fn pinned_blob_survives_relocation_until_pin_drops() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        let cold: Vec<u8> = (0..300).map(|i| (i * 31 + 5) as u8).collect();
        rt.stage(&mut a, "cold", &cold).unwrap();
        rt.commit(&mut a).unwrap();
        let snap = rt.snapshot(&mut a);
        let ptr = rt.resolve::<Vec<u8>>("cold").unwrap();
        let raw0 = snap.get_bytes(&mut a, "cold").unwrap().unwrap();
        // Churn other roots until the GC relocates "cold" (the hottest
        // unmodified blob from the wear pass's viewpoint, and the oldest
        // from compaction's).
        let mut churned = 0u64;
        while rt.resolve::<Vec<u8>>("cold").unwrap() == ptr {
            rt.stage(&mut a, "hot", &churned).unwrap();
            rt.commit(&mut a).unwrap();
            churned += 1;
            assert!(churned < 64, "GC never relocated the cold blob");
        }
        assert!(a.stats.relocations() > 0);
        // The snapshot still reads the *original* bytes at the original
        // offset: the pinned record was copied, not moved.
        assert_eq!(snap.get_bytes(&mut a, "cold").unwrap().unwrap(), raw0);
        assert_eq!(snap.get::<Vec<u8>>(&mut a, "cold").unwrap(), Some(cold.clone()));
        assert!(!rt.deferred.is_empty(), "old record must sit deferred, not freed");
        // More churn while pinned: still byte-identical.
        for i in 0..40u64 {
            rt.stage(&mut a, "hot", &i).unwrap();
            rt.commit(&mut a).unwrap();
        }
        assert_eq!(snap.get_bytes(&mut a, "cold").unwrap().unwrap(), raw0);
        // Only once the pin drops does collect reclaim the original.
        drop(snap);
        assert!(rt.collect(&mut a) > 0);
        assert!(rt.deferred.is_empty());
        assert_eq!(rt.load::<Vec<u8>>(&mut a, "cold").unwrap(), Some(cold));
    }

    #[test]
    fn heap_recovers_fully_once_pins_drop() {
        let mut a = arena();
        let mut rt = PmRt::create(&mut a).unwrap();
        rt.stage(&mut a, "x", &0u64).unwrap();
        rt.commit(&mut a).unwrap();
        let snap = rt.snapshot(&mut a);
        for i in 0..200u64 {
            rt.stage(&mut a, "x", &i).unwrap();
            rt.commit(&mut a).unwrap();
        }
        drop(snap);
        assert!(rt.collect(&mut a) > 0, "deferred blobs reclaimed");
        // The reclaimed blocks feed the free lists: another burst of
        // commits reuses them instead of sinking the floor further.
        let floor = rt.heap.floor();
        for i in 0..200u64 {
            rt.stage(&mut a, "x", &i).unwrap();
            rt.commit(&mut a).unwrap();
        }
        assert!(floor - rt.heap.floor() < 1024, "recycled space must be reused");
        // And the committed state is intact.
        a.crash(CrashMode::LoseDirty);
        let mut r = PmRt::restore(&mut a).unwrap();
        assert_eq!(r.load::<u64>(&mut a, "x").unwrap(), Some(199));
    }
}
