//! Refcounted version pins on `pm-rt` root-table epochs.
//!
//! The runtime's copy-on-write commit retires the blobs a new root table
//! supersedes. MVCC snapshot readers need those blobs to *stay put*: a
//! snapshot pinned at epoch `E` keeps every blob that was live in table
//! version `E` allocated until the pin is released. [`EpochPins`] is the
//! device-side registry of those pins: the runtime consults
//! [`EpochPins::min_pinned`] before freeing anything it retired, so a
//! retired blob is reclaimed only once no snapshot older than its
//! retirement epoch remains.
//!
//! Pins are **volatile** — they describe live readers in this process,
//! not persistent state. A reboot (or
//! [`NvbmArena::restore_media`](crate::NvbmArena::restore_media), which
//! models one) drops every reader, so the registry is *invalidated*: its
//! generation counter bumps, outstanding [`PinGuard`]s stop counting, and
//! a snapshot that survived the swap reports `SnapshotGone` instead of
//! reading blobs the new lineage may have reused.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct PinMap {
    /// epoch → number of live pins.
    pins: BTreeMap<u64, u32>,
    /// Bumped by [`EpochPins::invalidate`]; guards from an older
    /// generation are dead (their epochs are no longer protected).
    generation: u64,
}

/// Shared, refcounted registry of pinned root-table epochs. Cloning is
/// cheap (an `Arc`); every clone observes the same pins.
#[derive(Debug, Clone, Default)]
pub struct EpochPins(Arc<Mutex<PinMap>>);

impl EpochPins {
    /// A fresh registry with no pins, generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pin `epoch`. The returned guard releases the pin on drop (if the
    /// registry has not been invalidated in between).
    pub fn pin(&self, epoch: u64) -> PinGuard {
        let mut m = self.0.lock().expect("pin registry lock");
        *m.pins.entry(epoch).or_insert(0) += 1;
        PinGuard { pins: self.clone(), epoch, generation: m.generation }
    }

    /// The oldest pinned epoch, if any pin is live.
    pub fn min_pinned(&self) -> Option<u64> {
        self.0.lock().expect("pin registry lock").pins.keys().next().copied()
    }

    /// Number of live pins across all epochs.
    pub fn count(&self) -> usize {
        self.0.lock().expect("pin registry lock").pins.values().map(|&n| n as usize).sum()
    }

    /// Current generation (bumped by every [`EpochPins::invalidate`]).
    pub fn generation(&self) -> u64 {
        self.0.lock().expect("pin registry lock").generation
    }

    /// Drop every pin and bump the generation: outstanding guards become
    /// dead and snapshots holding them must report `SnapshotGone`. Called
    /// when the underlying media is replaced or the runtime registry is
    /// destroyed — the epochs the pins named no longer exist.
    pub fn invalidate(&self) {
        let mut m = self.0.lock().expect("pin registry lock");
        m.pins.clear();
        m.generation += 1;
    }
}

/// RAII release of one epoch pin. Obtained from [`EpochPins::pin`];
/// dropping it decrements the epoch's refcount (unless the registry was
/// invalidated, in which case the pin is already gone).
#[derive(Debug)]
pub struct PinGuard {
    pins: EpochPins,
    epoch: u64,
    generation: u64,
}

impl PinGuard {
    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Is this pin still protecting its epoch? `false` after the
    /// registry was invalidated (media swap / registry destroy).
    pub fn is_live(&self) -> bool {
        let m = self.pins.0.lock().expect("pin registry lock");
        m.generation == self.generation && m.pins.contains_key(&self.epoch)
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        let mut m = self.pins.0.lock().expect("pin registry lock");
        if m.generation != self.generation {
            return; // invalidated: the pin no longer exists
        }
        if let Some(n) = m.pins.get_mut(&self.epoch) {
            *n -= 1;
            if *n == 0 {
                m.pins.remove(&self.epoch);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn pin_unpin_refcounts() {
        let p = EpochPins::new();
        assert_eq!(p.min_pinned(), None);
        let a = p.pin(5);
        let b = p.pin(5);
        let c = p.pin(9);
        assert_eq!(p.min_pinned(), Some(5));
        assert_eq!(p.count(), 3);
        drop(a);
        assert_eq!(p.min_pinned(), Some(5), "second pin still holds epoch 5");
        drop(b);
        assert_eq!(p.min_pinned(), Some(9));
        assert!(c.is_live());
        drop(c);
        assert_eq!(p.min_pinned(), None);
    }

    #[test]
    fn invalidate_kills_outstanding_guards() {
        let p = EpochPins::new();
        let g = p.pin(3);
        assert!(g.is_live());
        p.invalidate();
        assert!(!g.is_live());
        assert_eq!(p.min_pinned(), None);
        // A stale guard's drop must not disturb a new-generation pin on
        // the same epoch.
        let h = p.pin(3);
        drop(g);
        assert!(h.is_live());
        assert_eq!(p.min_pinned(), Some(3));
    }

    #[test]
    fn clones_share_state() {
        let p = EpochPins::new();
        let q = p.clone();
        let _g = p.pin(1);
        assert_eq!(q.min_pinned(), Some(1));
    }
}
