//! Crash injection inside an operation, through the one crash door every
//! sweep uses: a [`FailPlan`] hook.

use std::sync::{Arc, Mutex};

use pm_octree::PmOctree;
use pmoctree_nvbm::{CrashMode, CrashView, DeviceModel, FailPlan, NvbmArena};

/// The persist protocol's failpoint labels, in protocol order. A crash at
/// `persist::merge` or `persist::flush` happens before the commit record
/// naming the new version is stored; at `persist::root_swap` it is on
/// media.
pub const PHASES: [&str; 3] = ["persist::merge", "persist::flush", "persist::root_swap"];

/// What a crash inside an operation leaves: the device a reboot would
/// find under each crash mode asked for, the protocol labels fired up to
/// and including the crash opportunity, and its own label, if it had one.
pub type Crashed = (Vec<NvbmArena>, Vec<&'static str>, Option<&'static str>);

/// Run `op` on `t`, crashing — under each of `modes` — at the first of
/// its crash opportunities that `at` picks (the n-th one, or the one a
/// protocol label names). The hook captures the images while the
/// (deterministic) run continues; `None` when `op` ended before `at`
/// picked anything.
pub fn crash_in(
    t: &mut PmOctree,
    at: impl Fn(&CrashView<'_>) -> bool + Send + 'static,
    modes: &[CrashMode],
    op: impl FnOnce(&mut PmOctree),
) -> Option<Crashed> {
    let captured = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&captured);
    let modes = modes.to_vec();
    t.store.arena.set_fail_plan(FailPlan::with_hook(Box::new(move |view| {
        if at(view) {
            sink.lock().unwrap().get_or_insert_with(|| {
                let images: Vec<_> = modes.iter().map(|&mode| view.image(mode)).collect();
                (images, view.opportunity, view.label)
            });
        }
    })));
    op(t);
    let plan = t.store.arena.take_fail_plan().unwrap();
    let (images, op, label) = captured.lock().unwrap().take()?;
    let fired = plan.labels().iter().filter(|&&(o, _)| o <= op).map(|&(_, l)| l).collect();
    let arenas =
        images.into_iter().map(|image| NvbmArena::from_media(image, DeviceModel::default()));
    Some((arenas.collect(), fired, label))
}

/// [`crash_in`] a persist, under one crash mode.
pub fn crash_in_persist(
    t: &mut PmOctree,
    at: impl Fn(&CrashView<'_>) -> bool + Send + 'static,
    mode: CrashMode,
) -> Option<(NvbmArena, Vec<&'static str>, Option<&'static str>)> {
    let (mut arenas, fired, label) = crash_in(t, at, &[mode], |t| t.persist())?;
    Some((arenas.remove(0), fired, label))
}
