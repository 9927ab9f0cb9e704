//! Deterministic crash-opportunity accounting and injection.
//!
//! A *crash opportunity* is any point where dying would leave the media in
//! a state the program did not choose: immediately before a store enters
//! the dirty-line cache, before a line (or the whole cache) is written
//! back, and at every explicitly labelled protocol point
//! ([`NvbmArena::failpoint`](crate::arena::NvbmArena::failpoint)).
//!
//! Because the whole simulator is deterministic (virtual clock, seeded
//! RNGs, line-ordered dirty-line eviction), the opportunity sequence of a workload
//! is reproducible: a counting run and a replay run visit the *same*
//! opportunities in the same order. A crash injected at opportunity `k`
//! therefore does not need to abort the process — the plan snapshots the
//! media a reboot would find (a clone of the current media with the dirty
//! cache filtered through a [`CrashMode`]) and lets the workload continue.
//! The snapshot is byte-identical to what re-running the workload and
//! killing it at opportunity `k` would leave behind.
//!
//! Three observation modes:
//!
//! * [`FailPlan::count`] — record how many opportunities the workload has
//!   (the recorded run of a record/replay sweep);
//! * [`FailPlan::armed`] — capture the crashed media at one opportunity
//!   (the replay run; drive it from a property test or a sweep driver);
//! * [`FailPlan::with_hook`] — invoke a callback with a [`CrashView`] at
//!   *every* opportunity, so a sweep can verify recovery for each
//!   opportunity × mode pair in a single pass instead of `O(n)` replays.

use crate::arena::{apply_crash, commit_line_to, CrashMode};
use crate::lines::LineTable;
use crate::media::SparseMedia;

/// Callback invoked at every opportunity when a hook plan is installed.
/// `Send` so an arena carrying a plan can still move across rank threads.
pub type FailHook = Box<dyn FnMut(&CrashView<'_>) + Send>;

/// A read-only view of the device at one crash opportunity: the persistent
/// media plus the dirty lines that a crash would lose or partially commit.
pub struct CrashView<'a> {
    /// Opportunity index (0-based, monotone within a plan).
    pub opportunity: u64,
    /// Protocol label when this opportunity came from an explicit
    /// [`failpoint`](crate::arena::NvbmArena::failpoint) call.
    pub label: Option<&'static str>,
    media: &'a SparseMedia,
    dirty: &'a LineTable,
}

impl<'a> CrashView<'a> {
    pub(crate) fn new(
        opportunity: u64,
        label: Option<&'static str>,
        media: &'a SparseMedia,
        dirty: &'a LineTable,
    ) -> Self {
        CrashView { opportunity, label, media, dirty }
    }

    /// Number of dirty (unflushed) lines at this opportunity.
    pub fn dirty_lines(&self) -> usize {
        self.dirty.len()
    }

    /// The media a reboot would find if the crash happened here under
    /// `mode`: a clone of the media (its present chunks) with the crash
    /// applied as [`NvbmArena::crash`](crate::arena::NvbmArena::crash)
    /// applies it. The live arena is untouched.
    pub fn image(&self, mode: CrashMode) -> SparseMedia {
        let mut media = self.media.clone();
        apply_crash(&mut media, self.dirty, mode, None);
        media
    }

    /// The media a *clean* shutdown would find: every dirty line
    /// committed. An upper bound for what any crash image can contain —
    /// the sweep oracle compares a crashed flight-recorder dump against
    /// the dump recovered from this media.
    pub fn full_image(&self) -> SparseMedia {
        let mut media = self.media.clone();
        for (line, data) in self.dirty.sorted() {
            commit_line_to(&mut media, None, line, data);
        }
        media
    }
}

/// The crashed-media snapshot captured by an armed plan.
#[derive(Clone, Debug)]
pub struct CrashCapture {
    /// Opportunity index the crash was injected at.
    pub opportunity: u64,
    /// Label of the opportunity, when it was an explicit failpoint.
    pub label: Option<&'static str>,
    /// Crash mode that produced the media.
    pub mode: CrashMode,
    /// Media as a rebooted node would find it.
    pub media: SparseMedia,
}

/// Crash-opportunity plan installed on an
/// [`NvbmArena`](crate::arena::NvbmArena).
#[derive(Default)]
pub struct FailPlan {
    counter: u64,
    armed: Option<(u64, CrashMode)>,
    capture: Option<CrashCapture>,
    hook: Option<FailHook>,
    labels: Vec<(u64, &'static str)>,
}

impl std::fmt::Debug for FailPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailPlan")
            .field("counter", &self.counter)
            .field("armed", &self.armed)
            .field("captured", &self.capture.is_some())
            .field("hook", &self.hook.is_some())
            .field("labels", &self.labels.len())
            .finish()
    }
}

impl FailPlan {
    /// A counting plan: records the opportunity total and labels, injects
    /// nothing.
    pub fn count() -> Self {
        FailPlan::default()
    }

    /// An armed plan: capture the crashed media at opportunity `at` under
    /// `mode`. The workload continues normally afterwards; fetch the media
    /// with [`FailPlan::take_capture`].
    pub fn armed(at: u64, mode: CrashMode) -> Self {
        FailPlan { armed: Some((at, mode)), ..FailPlan::default() }
    }

    /// A hook plan: `f` runs at every opportunity with a [`CrashView`].
    pub fn with_hook(f: FailHook) -> Self {
        FailPlan { hook: Some(f), ..FailPlan::default() }
    }

    /// Opportunities observed so far.
    pub fn opportunities(&self) -> u64 {
        self.counter
    }

    /// `(opportunity, label)` pairs of the labelled opportunities seen so
    /// far, in order.
    pub fn labels(&self) -> &[(u64, &'static str)] {
        &self.labels
    }

    /// Take the captured crash media, if the armed opportunity has been
    /// reached.
    pub fn take_capture(&mut self) -> Option<CrashCapture> {
        self.capture.take()
    }

    /// Called by the arena at each opportunity. `media`/`dirty` describe
    /// the device state *before* the operation the opportunity precedes.
    pub(crate) fn observe(
        &mut self,
        label: Option<&'static str>,
        media: &SparseMedia,
        dirty: &LineTable,
    ) {
        let op = self.counter;
        self.counter += 1;
        if let Some(l) = label {
            self.labels.push((op, l));
        }
        let view = CrashView::new(op, label, media, dirty);
        if let Some((at, mode)) = self.armed {
            if at == op && self.capture.is_none() {
                self.capture =
                    Some(CrashCapture { opportunity: op, label, mode, media: view.image(mode) });
            }
        }
        if let Some(hook) = self.hook.as_mut() {
            hook(&view);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::arena::{CrashMode, NvbmArena, POffset};
    use crate::model::DeviceModel;
    use std::sync::{Arc, Mutex};

    fn arena() -> NvbmArena {
        NvbmArena::new(1 << 20, DeviceModel::default())
    }

    /// A tiny deterministic workload: returns the arena afterwards.
    fn workload(a: &mut NvbmArena) {
        a.write(4096, b"aaaa");
        a.failpoint("phase::one");
        a.write(8192, b"bbbb");
        a.flush_all();
        a.next.root = POffset(4096);
        a.publish();
        a.failpoint("phase::two");
        a.write(12288, b"cccc");
    }

    #[test]
    fn counting_is_deterministic() {
        let count = |_| {
            let mut a = arena();
            a.set_fail_plan(FailPlan::count());
            workload(&mut a);
            let plan = a.take_fail_plan().unwrap();
            (plan.opportunities(), plan.labels().to_vec())
        };
        let (n1, l1) = count(0);
        let (n2, l2) = count(1);
        assert_eq!(n1, n2);
        assert_eq!(l1, l2);
        assert!(n1 >= 7, "writes + flushes + 2 labels + record store: {n1}");
        assert_eq!(l1.iter().filter(|(_, l)| *l == "phase::one").count(), 1);
    }

    #[test]
    fn armed_capture_equals_replay_crash() {
        // Count first.
        let mut a = arena();
        a.set_fail_plan(FailPlan::count());
        workload(&mut a);
        let total = a.take_fail_plan().unwrap().opportunities();
        for k in 0..total {
            let mode = CrashMode::LoseDirty;
            // Armed run: capture at k, workload continues to completion.
            let mut armed = arena();
            armed.set_fail_plan(FailPlan::armed(k, mode));
            workload(&mut armed);
            let cap = armed.take_fail_plan().unwrap().take_capture().expect("captured");
            assert_eq!(cap.opportunity, k);
            // Replay run: stop the workload at opportunity k and crash.
            let stopper = Arc::new(Mutex::new(None::<SparseMedia>));
            let got = stopper.clone();
            let mut replay = arena();
            replay.set_fail_plan(FailPlan::with_hook(Box::new(move |view| {
                let mut slot = got.lock().unwrap();
                if view.opportunity == k && slot.is_none() {
                    *slot = Some(view.image(mode));
                }
            })));
            workload(&mut replay);
            let replayed = stopper.lock().unwrap().take().expect("hook image");
            assert_eq!(cap.media.to_image(), replayed.to_image(), "opportunity {k}");
        }
    }

    #[test]
    fn hook_sees_every_opportunity_in_order() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        let mut a = arena();
        a.set_fail_plan(FailPlan::with_hook(Box::new(move |view| {
            log.lock().unwrap().push((view.opportunity, view.label));
        })));
        workload(&mut a);
        let total = a.take_fail_plan().unwrap().opportunities();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len() as u64, total);
        for (i, (op, _)) in seen.iter().enumerate() {
            assert_eq!(*op, i as u64);
        }
        assert!(seen.iter().any(|(_, l)| *l == Some("phase::two")));
    }

    #[test]
    fn torn_image_preserves_word_atomicity() {
        let mut a = arena();
        // Persist a known word, then overwrite it without flushing.
        a.write(4112, &0x1000u64.to_le_bytes());
        a.flush_all();
        a.write(4112, &0x2000u64.to_le_bytes());
        a.set_fail_plan(FailPlan::armed(0, CrashMode::TornWrite { seed: 7 }));
        a.failpoint("check");
        let cap = a.take_fail_plan().unwrap().take_capture().unwrap();
        let mut word = [0u8; 8];
        cap.media.read_at(4112, &mut word);
        let raw = u64::from_le_bytes(word);
        assert!(raw == 0x1000 || raw == 0x2000, "8-byte store must not tear mid-word: {raw:#x}");
    }
}
