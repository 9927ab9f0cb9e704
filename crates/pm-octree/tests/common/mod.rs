//! Crash injection inside the persist protocol, through the one crash
//! door every sweep uses: a [`FailPlan`] hook.

use std::sync::{Arc, Mutex};

use pm_octree::PmOctree;
use pmoctree_nvbm::{CrashMode, CrashView, DeviceModel, FailPlan, NvbmArena};

/// The persist protocol's failpoint labels, in protocol order. A crash at
/// `persist::merge` or `persist::flush` happens before any root moved; at
/// `persist::root_swap_half` root slot 0 names the new version but the
/// recovery slot 1 still names the old one; only at `persist::root_swap`
/// has the recovery root been published.
pub const PHASES: [&str; 4] =
    ["persist::merge", "persist::flush", "persist::root_swap_half", "persist::root_swap"];

/// Persist `t` and return the device a reboot would find had the process
/// died under `mode` at the first of the persist's crash opportunities
/// that `at` picks (the n-th one, or the one a protocol label names), the
/// protocol labels fired up to and including it, and its own label, if
/// it had one. The hook captures the image while the (deterministic) run
/// continues; `None` when the persist ended before `at` picked anything.
pub fn crash_in_persist(
    t: &mut PmOctree,
    at: impl Fn(&CrashView<'_>) -> bool + Send + 'static,
    mode: CrashMode,
) -> Option<(NvbmArena, Vec<&'static str>, Option<&'static str>)> {
    let captured = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&captured);
    t.store.arena.set_fail_plan(FailPlan::with_hook(Box::new(move |view| {
        if at(view) {
            sink.lock()
                .unwrap()
                .get_or_insert_with(|| (view.image(mode), view.opportunity, view.label));
        }
    })));
    t.persist();
    let plan = t.store.arena.take_fail_plan().unwrap();
    let (image, op, label) = captured.lock().unwrap().take()?;
    let fired = plan.labels().iter().filter(|&&(o, _)| o <= op).map(|&(_, l)| l).collect();
    Some((NvbmArena::from_media(image, DeviceModel::default()), fired, label))
}
