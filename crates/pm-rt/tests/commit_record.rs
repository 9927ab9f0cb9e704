//! The commit record from the outside: every publication — a persist, a
//! persist whose hook commits the runtime, a service batch, a create —
//! commits exactly one header line, and recovery (`from_media` →
//! `PmOctree::restore` → `PmRt::restore`) survives a header in any state
//! without a panic: a torn or bit-flipped slot leaves the other slot's
//! version, no valid slot leaves nothing to recover, and a sealed record
//! naming nonsense is refused or its hints clamped.

use std::sync::{Arc, Mutex};

use pm_octree::{CellData, PmConfig, PmError, PmOctree};
use pm_rt::{PmRt, ServiceCmd, ServiceConfig, StateService};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{
    CommitRecord, CrashMode, CrashView, DeviceModel, FailPlan, NvbmArena, POffset, SparseMedia,
    CACHELINE, HEADER_SIZE,
};

/// The two commit-record slots: header lines 1 and 2.
const SLOTS: [usize; 2] = [64, 128];

/// What a reboot finds: the tree's leaves and the runtime's `app/step`.
type Version = (Vec<(OctKey, CellData)>, Option<u64>);

fn cfg() -> PmConfig {
    PmConfig { dynamic_transform: false, ..PmConfig::default() }
}

/// Header bytes committed so far (the `root_table` region).
fn header_bytes(arena: &NvbmArena) -> u64 {
    arena.stats.bytes_by_region()[0]
}

/// One combined persist: refine a leaf, then commit `app/step = step`
/// inside the persist's hook.
fn step(t: &mut PmOctree, rt: &mut PmRt, step: u64) -> Result<(), PmError> {
    let leaves = t.leaf_keys_sorted();
    t.refine(leaves[step as usize * 5 % leaves.len()])?;
    t.persist_with_hook(&mut |arena| {
        let mut app = rt.session(arena).tenant("app")?;
        app.put("step", &step)?;
        app.commit()
    })
}

/// A tree and a runtime on one 256 KiB device after `steps` combined
/// persists.
fn device(steps: u64) -> (PmOctree, PmRt) {
    let mut t = PmOctree::create(NvbmArena::new(256 << 10, DeviceModel::default()), cfg());
    let mut rt = PmRt::create(&mut t.store.arena).unwrap();
    for s in 1..=steps {
        step(&mut t, &mut rt, s).unwrap();
    }
    (t, rt)
}

fn version(t: &mut PmOctree, rt: &mut PmRt) -> Version {
    let app = rt.session(&mut t.store.arena).tenant("app").unwrap().get::<u64>("step");
    (t.leaves_sorted(), app.unwrap())
}

/// `len` bytes of `media` at `at`.
fn bytes(media: &SparseMedia, at: usize, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    media.read_at(at, &mut buf);
    buf
}

/// A copy of `media` with `edit` applied to its `len` bytes at `at`.
fn edited(media: &SparseMedia, at: usize, len: usize, edit: impl Fn(&mut [u8])) -> SparseMedia {
    let mut buf = bytes(media, at, len);
    edit(&mut buf);
    let mut media = media.clone();
    media.write_at(at, &buf);
    media
}

/// Reboot on `image`: the tree, then the runtime beside it.
fn reboot(image: SparseMedia) -> Result<(PmOctree, PmRt), PmError> {
    let mut t = PmOctree::restore(NvbmArena::from_media(image, DeviceModel::default()), cfg())?;
    let rt = PmRt::restore(&mut t.store.arena)?;
    Ok((t, rt))
}

fn recover(image: SparseMedia) -> Result<Version, PmError> {
    reboot(image).map(|(mut t, mut rt)| version(&mut t, &mut rt))
}

#[test]
fn every_publication_commits_one_header_line() {
    let mut t = PmOctree::create(NvbmArena::new(1 << 20, DeviceModel::default()), cfg());
    assert_eq!(header_bytes(&t.store.arena), 64, "PmOctree::create");
    let mut rt = PmRt::create(&mut t.store.arena).unwrap();
    t.refine(OctKey::root()).unwrap();
    let before = header_bytes(&t.store.arena);
    t.persist();
    assert_eq!(header_bytes(&t.store.arena) - before, 64, "persist");
    let before = header_bytes(&t.store.arena);
    step(&mut t, &mut rt, 1).unwrap();
    assert_eq!(header_bytes(&t.store.arena) - before, 64, "persist_with_hook with an rt commit");

    let mut arena = NvbmArena::new(1 << 20, DeviceModel::default());
    let mut svc = StateService::create(&mut arena, ServiceConfig::default()).unwrap();
    let cmds = [
        ServiceCmd::Create { tenant: "a".into(), quota: None },
        ServiceCmd::Put { tenant: "a".into(), root: "x".into(), bytes: vec![7; 96] },
    ];
    for cmd in cmds {
        svc.submit(&mut arena, cmd).unwrap();
        let before = header_bytes(&arena);
        assert!(svc.flush_batch(&mut arena).unwrap().committed);
        assert_eq!(header_bytes(&arena) - before, 64, "StateService::flush_batch");
    }
}

/// A publication caught with its record line stored but not yet written
/// back: the media under it and the line as stored.
fn caught_publishing(t: &mut PmOctree, rt: &mut PmRt, s: u64) -> (SparseMedia, SparseMedia) {
    let captured = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&captured);
    t.store.arena.set_fail_plan(FailPlan::with_hook(Box::new(move |v: &CrashView<'_>| {
        let (media, full) = (v.image(CrashMode::LoseDirty), v.full_image());
        let header = |m: &SparseMedia| bytes(m, 0, HEADER_SIZE as usize);
        if header(&media) != header(&full) {
            sink.lock().unwrap().get_or_insert((media, full));
        }
    })));
    step(t, rt, s).unwrap();
    t.store.arena.take_fail_plan();
    let caught = captured.lock().unwrap().take();
    caught.expect("the record line is dirty at its write-back")
}

#[test]
fn a_torn_or_flipped_slot_leaves_the_other_slots_version() {
    let (mut t, mut rt) = device(2);
    let old = version(&mut t, &mut rt);
    let (media, full) = caught_publishing(&mut t, &mut rt, 3);
    let new = version(&mut t, &mut rt);
    assert_ne!(old, new);
    let line = |i: &SparseMedia, s: usize| bytes(i, s, CACHELINE);
    let [slot, other] = match SLOTS.map(|s| line(&media, s) != line(&full, s)) {
        [true, false] => SLOTS,
        [false, true] => [SLOTS[1], SLOTS[0]],
        differs => panic!("one record slot must be in flight: {differs:?}"),
    };
    // Torn at every 8-byte prefix: only the whole line publishes.
    let mut complete = media.clone();
    for words in 0..=8 {
        complete.write_at(slot, &bytes(&full, slot, 8 * words));
        let want = if words == 8 { &new } else { &old };
        assert_eq!(recover(complete.clone()).as_ref(), Ok(want), "{words} words");
    }
    // Either slot damaged after the fact — a prefix overwritten or one bit
    // flipped: the other slot's version comes back.
    for (damaged, survivor) in [(slot, &old), (other, &new)] {
        for words in 1..=8 {
            let bad =
                edited(&complete, damaged, 8 * words, |b| b.iter_mut().for_each(|b| *b = !*b));
            assert_eq!(recover(bad).as_ref(), Ok(survivor), "slot {damaged}: {words} words");
        }
        for bit in 0..CACHELINE * 8 {
            let bad = edited(&complete, damaged + bit / 8, 1, |b| b[0] ^= 1 << (bit % 8));
            assert_eq!(recover(bad).as_ref(), Ok(survivor), "slot {damaged}: bit {bit}");
        }
    }
}

#[test]
fn with_no_valid_record_there_is_nothing_to_recover() {
    let (mut t, _rt) = device(1);
    let mut image = t.store.arena.clone_media();
    for s in SLOTS {
        image = edited(&image, s, 1, |b| b[0] ^= 1);
    }
    let arena = NvbmArena::from_media(image.clone(), DeviceModel::default());
    assert_eq!(arena.committed(), CommitRecord::default());
    assert!(matches!(PmOctree::restore(arena, cfg()), Err(PmError::Recovery(_))));
    let mut arena = NvbmArena::from_media(image, DeviceModel::default());
    assert!(matches!(PmRt::restore(&mut arena), Err(PmError::NotFound(_))));
}

#[test]
fn a_sealed_record_naming_nonsense_is_refused_or_its_hints_clamped() {
    let (mut t, mut rt) = device(2);
    let want = version(&mut t, &mut rt);
    let image = t.store.arena.clone_media();
    let arena = &t.store.arena;
    let good = arena.committed();
    let (cap, ring, floor) = (arena.capacity() as u64, arena.rt_heap_top(), arena.live_rt_floor());
    assert!(ring < cap && floor < ring);
    // The device with `edit` applied to its committed record, sealed and
    // published as the newest.
    let with = |edit: &dyn Fn(&mut CommitRecord)| {
        let mut a = NvbmArena::from_media(image.clone(), DeviceModel::default());
        edit(&mut a.next);
        a.publish();
        a.clone_media()
    };
    // Roots past the device, into the recorder ring, into the rt heap, off
    // a line or near the top of the address space; epochs the tree
    // contradicts; runtime chains anywhere but at a commit record.
    let roots = [cap, cap + 64, ring + 64, floor, good.root.0 + 8, !63, 64];
    let epochs = [0, u32::MAX as u64, u64::MAX];
    let rt_roots = [cap, ring + 64, u64::MAX - 4, good.root.0];
    let refused = roots
        .map(|r| with(&move |c: &mut CommitRecord| c.root = POffset(r)))
        .into_iter()
        .chain(epochs.map(|e| with(&move |c: &mut CommitRecord| c.epoch = e)))
        .chain(rt_roots.map(|r| with(&move |c: &mut CommitRecord| c.rt_root = POffset(r))));
    for (i, bad) in refused.enumerate() {
        let got = recover(bad);
        assert!(matches!(got, Err(PmError::Corrupt(_))), "case {i}: {got:?}");
    }
    // Hints anywhere: clamped, the same version comes back, and the
    // rebooted pair keeps working.
    let hints = [0, 1, floor - 64, ring + 64, cap, u64::MAX];
    let clamped = hints
        .map(|h| with(&move |c: &mut CommitRecord| c.bump = h))
        .into_iter()
        .chain(hints.map(|h| with(&move |c: &mut CommitRecord| c.rt_floor = h)));
    for (i, bad) in clamped.enumerate() {
        let (mut t, mut rt) = reboot(bad).unwrap_or_else(|e| panic!("case {i}: {e}"));
        assert_eq!(version(&mut t, &mut rt), want, "case {i}");
        step(&mut t, &mut rt, 3).unwrap_or_else(|e| panic!("case {i}: {e}"));
        let image = t.store.arena.clone_media();
        assert_eq!(recover(image).map(|v| v.1), Ok(Some(3)), "case {i}");
    }
}
