//! Automated remote-replica scheduling — the paper's stated future work
//! (§3.4: replicas are "stored on other compute nodes or staging nodes
//! selected by job schedulers according to their NVBM utilization";
//! §6: "we wish to leave the automated approach for remote replica
//! scheduling as the future work").
//!
//! The scheduler places each rank's `V_{i-1}` replica on the peer with
//! the lowest projected NVBM utilization, subject to anti-affinity (a
//! replica is useless on the node it protects) and capacity.

/// NVBM occupancy of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeNvbm {
    /// Node id.
    pub id: usize,
    /// Device capacity in bytes.
    pub capacity: u64,
    /// Bytes already in use (own octree + previously placed replicas).
    pub used: u64,
}

impl NodeNvbm {
    /// Current utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.used as f64 / self.capacity.max(1) as f64
    }

    /// Free bytes.
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }
}

/// A placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Rank whose replica is being placed.
    pub source: usize,
    /// Node that will host the replica.
    pub target: usize,
    /// Replica size in bytes.
    pub bytes: u64,
}

/// Why a placement failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// No node other than the source has enough free NVBM.
    NoCapacity {
        /// The rank that could not be protected.
        source: usize,
    },
}

/// Utilization-aware replica scheduler.
///
/// Placement is coordinator-only state: decisions are made between
/// worker-pool phases (never from inside a `par_iter` over ranks), so
/// the greedy argmin below stays deterministic regardless of worker
/// count. `Send` is asserted so a future driver may hand the scheduler
/// itself to a pool worker.
#[derive(Debug, Clone, Default)]
pub struct ReplicaScheduler {
    nodes: Vec<NodeNvbm>,
}

const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ReplicaScheduler>();
    assert_send::<Placement>();
};

impl ReplicaScheduler {
    /// Scheduler over the given nodes.
    pub fn new(nodes: Vec<NodeNvbm>) -> Self {
        ReplicaScheduler { nodes }
    }

    /// Current view of the nodes (including accepted placements).
    pub fn nodes(&self) -> &[NodeNvbm] {
        &self.nodes
    }

    /// Pick the host for one replica: the lowest-utilization node that is
    /// not the source and has room. Accepted placements update the book.
    pub fn place(&mut self, source: usize, bytes: u64) -> Result<Placement, PlacementError> {
        let target = self
            .nodes
            .iter()
            .filter(|n| n.id != source && n.free() >= bytes)
            .min_by(|a, b| a.utilization().total_cmp(&b.utilization()))
            .map(|n| n.id)
            .ok_or(PlacementError::NoCapacity { source })?;
        let slot = self.nodes.iter_mut().find(|n| n.id == target).expect("target exists");
        slot.used += bytes;
        Ok(Placement { source, target, bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: usize, cap: u64) -> Vec<NodeNvbm> {
        (0..n).map(|id| NodeNvbm { id, capacity: cap, used: 0 }).collect()
    }

    #[test]
    fn picks_lowest_utilization() {
        let mut ns = nodes(3, 1000);
        ns[1].used = 100;
        ns[2].used = 500;
        let mut s = ReplicaScheduler::new(ns);
        // Source 0 → node 1 (node 0 excluded, node 1 less loaded than 2).
        let p = s.place(0, 100).unwrap();
        assert_eq!(p.target, 1);
    }

    #[test]
    fn never_places_on_source() {
        let mut ns = nodes(2, 1000);
        ns[1].used = 999; // node 1 nearly full; node 0 empty
        let mut s = ReplicaScheduler::new(ns);
        // Source 0 cannot use itself even though it is the emptiest.
        assert_eq!(s.place(0, 1).unwrap().target, 1);
        assert!(matches!(s.place(0, 100), Err(PlacementError::NoCapacity { source: 0 })));
    }

    #[test]
    fn placements_update_book() {
        let mut s = ReplicaScheduler::new(nodes(3, 1000));
        let a = s.place(0, 400).unwrap();
        let b = s.place(0, 400).unwrap();
        assert_ne!(a.target, b.target, "second replica avoids the loaded node");
    }

    #[test]
    fn equal_replicas_spread_evenly() {
        let mut s = ReplicaScheduler::new(nodes(4, 1000));
        for source in 0..4 {
            s.place(source, 300).unwrap();
        }
        // Every node ends with exactly one replica.
        for n in s.nodes() {
            assert_eq!(n.used, 300, "node {} has {}", n.id, n.used);
        }
    }

    #[test]
    fn no_capacity_is_reported() {
        let mut s = ReplicaScheduler::new(nodes(2, 100));
        // The two cross placements fit; a third replica has nowhere to go.
        assert!(s.place(0, 90).is_ok() && s.place(1, 90).is_ok());
        assert!(matches!(s.place(0, 90), Err(PlacementError::NoCapacity { source: 0 })));
    }
}
