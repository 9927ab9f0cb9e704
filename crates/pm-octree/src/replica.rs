//! Remote replicas of the persistent version (§3.4).
//!
//! When the crashed node will not come back, `V_{i-1}` must exist
//! somewhere else. PM-octree keeps a peer copy `V_{i-1}^P` and ships only
//! the *differences* between consecutive persistent versions — cheap
//! because of the high overlap ratio between adjacent time steps.
//!
//! The replica holds the device's media in the form the device does: the
//! chunks some commit or delta reached ([`SparseMedia`]), kept in sync by
//! deltas. A new-node restore ships what it holds,
//! [`ReplicaSet::live_bytes`], which the `cluster` crate's §5.6
//! experiment charges to its network model. The per-persist
//! [`ReplicaSet::last_delta_bytes`] is held by the octree model test to
//! the header plus the epoch's fresh octants.

use pmoctree_nvbm::{NvbmArena, POffset, SparseMedia, HEADER_SIZE};

use crate::octant::OCTANT_SIZE;

/// A peer-node copy of the persistent octree media.
#[derive(Debug, Default, Clone)]
pub struct ReplicaSet {
    image: SparseMedia,
    /// Bytes shipped over the lifetime of the replica.
    pub bytes_shipped_total: u64,
    /// Bytes shipped by the most recent delta (or full sync).
    pub last_delta_bytes: u64,
}

impl ReplicaSet {
    /// An empty, unsynced replica: size-0 media.
    pub fn new() -> Self {
        Self::default()
    }

    /// Full synchronization: copy the (flushed) device media, its present
    /// chunks, and count their bytes as shipped. Done once at creation;
    /// afterwards only deltas are shipped.
    pub fn full_sync(&mut self, arena: &mut NvbmArena) {
        self.image = arena.clone_media();
        let shipped = self.image.resident_bytes() as u64;
        self.bytes_shipped_total += shipped;
        self.last_delta_bytes = shipped;
    }

    /// Ship the delta for one persist: the header, every octant created
    /// by the just-persisted epoch, and any `extra` byte regions (the
    /// `pm-rt` root bundle — object blobs and table written since the
    /// last ship), so a new node resurrects the whole rank, not just the
    /// mesh. Reads everything back from the arena (charging NVBM read
    /// latency, as the real system would).
    pub fn push_delta(
        &mut self,
        arena: &mut NvbmArena,
        new_octants: &[POffset],
        extra: &[(u64, u32)],
    ) {
        assert!(self.image.size() > 0, "push_delta before full_sync");
        // Header (contains the new roots and epoch — the octree's and the
        // runtime's: both live in the first header line's 256 bytes).
        let mut header = vec![0u8; HEADER_SIZE as usize];
        arena.read(0, &mut header);
        self.image.write_at(0, &header);
        let mut shipped = HEADER_SIZE;
        let mut buf = [0u8; OCTANT_SIZE];
        for &p in new_octants {
            arena.read(p.0, &mut buf);
            self.image.write_at(p.0 as usize, &buf);
            shipped += OCTANT_SIZE as u64;
        }
        for &(off, len) in extra {
            let mut region = vec![0u8; len as usize];
            arena.read(off, &mut region);
            self.image.write_at(off as usize, &region);
            shipped += len as u64;
        }
        self.bytes_shipped_total += shipped;
        self.last_delta_bytes = shipped;
    }

    /// The current replica media (restore onto a fresh node's NVBM).
    pub fn image(&self) -> &SparseMedia {
        &self.image
    }

    /// Transfer size for a new-node restore: the bytes the replica holds.
    pub fn live_bytes(&self) -> u64 {
        self.image.resident_bytes() as u64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {

    use super::ReplicaSet;
    use crate::api::{PmError, PmOctree};
    use crate::config::PmConfig;
    use crate::octant::CellData;
    use pmoctree_morton::OctKey;
    use pmoctree_nvbm::{DeviceModel, NvbmArena};

    fn cfg() -> PmConfig {
        PmConfig { replicas: true, dynamic_transform: false, ..PmConfig::default() }
    }

    #[test]
    fn replica_tracks_persists() {
        let mut t = PmOctree::create(NvbmArena::new(8 << 20, DeviceModel::default()), cfg());
        assert!(t.replicas.as_ref().unwrap().image().size() > 0, "create syncs in full");
        let full = t.replicas.as_ref().unwrap().bytes_shipped_total;
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let r = t.replicas.as_ref().unwrap();
        assert!(r.bytes_shipped_total > full);
        // The delta is small relative to the full image.
        assert!(r.last_delta_bytes < full / 10, "delta {} vs full {full}", r.last_delta_bytes);
    }

    #[test]
    fn restore_on_new_node_from_replica() {
        let mut t = PmOctree::create(NvbmArena::new(8 << 20, DeviceModel::default()), cfg());
        t.refine(OctKey::root()).unwrap();
        t.set_data(OctKey::root().child(6), CellData { vof: 0.66, ..Default::default() }).unwrap();
        t.persist();
        let persisted = t.leaves_sorted();
        let replica = t.replicas.as_ref().unwrap().clone();
        // The node is gone: build a brand-new arena from the replica.
        let fresh = NvbmArena::new(8 << 20, DeviceModel::default());
        let (mut r, moved) =
            PmOctree::restore_from_replica(fresh, &replica, PmConfig::default()).unwrap();
        assert!(moved > 0);
        assert_eq!(r.leaves_sorted(), persisted);
        assert_eq!(r.get_data(OctKey::root().child(6)).unwrap().vof, 0.66);
    }

    #[test]
    fn an_unusable_replica_is_an_error_not_a_panic() {
        let mut t = PmOctree::create(NvbmArena::new(8 << 20, DeviceModel::default()), cfg());
        t.refine(OctKey::root()).unwrap();
        t.persist();
        let synced = t.replicas.as_ref().unwrap().clone();
        for (replica, device) in [(ReplicaSet::new(), 8 << 20), (synced, 4 << 20)] {
            let fresh = NvbmArena::new(device, DeviceModel::default());
            let got = PmOctree::restore_from_replica(fresh, &replica, PmConfig::default());
            let len = replica.image().size();
            assert!(
                matches!(got, Err(PmError::Recovery(_))),
                "{len}-byte replica, {device}-byte device"
            );
        }
    }

    #[test]
    fn deltas_shrink_with_overlap() {
        let mut t = PmOctree::create(NvbmArena::new(8 << 20, DeviceModel::default()), cfg());
        t.refine(OctKey::root()).unwrap();
        for i in 0..8 {
            t.refine(OctKey::root().child(i)).unwrap();
        }
        t.persist();
        let big_delta = t.replicas.as_ref().unwrap().last_delta_bytes;
        // A step that changes one octant ships a far smaller delta.
        t.set_data(OctKey::root().child(0).child(0), CellData { phi: 1.0, ..Default::default() })
            .unwrap();
        t.persist();
        let small_delta = t.replicas.as_ref().unwrap().last_delta_bytes;
        assert!(small_delta < big_delta / 2, "{small_delta} vs {big_delta}");
    }
}
