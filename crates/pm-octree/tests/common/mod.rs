//! Crash injection at the persist protocol's labelled failpoints, through
//! the one crash door every sweep uses: a [`FailPlan`] hook.

use std::sync::{Arc, Mutex};

use pm_octree::PmOctree;
use pmoctree_nvbm::{CrashMode, DeviceModel, FailPlan, NvbmArena};

/// The persist protocol's failpoint labels, in protocol order. A crash at
/// `persist::merge` or `persist::flush` happens before any root moved; at
/// `persist::root_swap_half` root slot 0 names the new version but the
/// recovery slot 1 still names the old one; only at `persist::root_swap`
/// has the recovery root been published.
pub const PHASES: [&str; 4] =
    ["persist::merge", "persist::flush", "persist::root_swap_half", "persist::root_swap"];

/// Does a crash at failpoint `phase` recover the *new* version?
pub fn recovers_new(phase: &str) -> bool {
    phase == "persist::root_swap"
}

/// Persist `t` and return the device a reboot would find had the process
/// died under `mode` at the failpoint labelled `phase`: the hook captures
/// the crash image at that label while the (deterministic) run continues.
pub fn crash_in_persist(t: &mut PmOctree, phase: &'static str, mode: CrashMode) -> NvbmArena {
    let captured: Arc<Mutex<Option<Vec<u8>>>> = Arc::default();
    let sink = Arc::clone(&captured);
    t.store.arena.set_fail_plan(FailPlan::with_hook(Box::new(move |view| {
        if view.label == Some(phase) {
            sink.lock().unwrap().get_or_insert_with(|| view.image(mode));
        }
    })));
    t.persist();
    t.store.arena.take_fail_plan();
    let image = captured.lock().unwrap().take().unwrap_or_else(|| panic!("{phase} never fired"));
    NvbmArena::from_media(image, DeviceModel::default())
}
