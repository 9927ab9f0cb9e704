//! Staged records live in DRAM until their commit: staging reserves a
//! ring slot and stores nothing, an in-window rewrite replaces the
//! buffer, a read of a staged root answers from it, a revert leaves the
//! commit nothing to store, a commit stores each run of records in
//! adjacent slots as one write, and a commit that fails keeps the window.

use std::sync::{Arc, Mutex};

use pm_rt::rt::blob_footprint;
use pm_rt::{PmError, PmRt, ServiceCmd, ServiceConfig, ServiceReply, StateService};
use pmoctree_nvbm::{
    CrashMode, CrashView, DeviceModel, FailPlan, NvbmArena, SparseMedia, CACHELINE,
};

fn arena() -> NvbmArena {
    NvbmArena::new(1 << 20, DeviceModel::default())
}

/// A runtime holding two committed roots.
fn runtime(a: &mut NvbmArena) -> PmRt {
    let mut rt = PmRt::create(a).unwrap();
    rt.stage(a, "a", &vec![1u8; 96]).unwrap();
    rt.stage(a, "b", &vec![2u8; 96]).unwrap();
    rt.commit(a).unwrap();
    rt
}

#[test]
fn staging_stores_nothing_and_rewrites_are_free() {
    // `puts` stages of one root in one window, then the commit: the NVBM
    // lines stored from the first stage through the commit.
    let lines = |puts: u8| {
        let mut a = arena();
        let mut rt = runtime(&mut a);
        let (lines, bytes) = (a.stats.nvbm.write_lines, a.stats.nvbm.bytes_written);
        for i in 1..=puts {
            rt.stage(&mut a, "a", &vec![i; 96]).unwrap();
            assert_eq!(a.stats.nvbm.bytes_written, bytes, "staging stores nothing");
            assert_eq!(rt.load::<Vec<u8>>(&mut a, "a").unwrap(), Some(vec![i; 96]));
        }
        rt.commit(&mut a).unwrap();
        let lines = a.stats.nvbm.write_lines - lines;
        a.crash(CrashMode::LoseDirty);
        let mut r = PmRt::restore(&mut a).unwrap();
        assert_eq!(r.load::<Vec<u8>>(&mut a, "a").unwrap(), Some(vec![puts; 96]));
        lines
    };
    assert_eq!(lines(8), lines(1), "seven in-window rewrites must store no line");
}

#[test]
fn a_query_after_a_put_in_one_batch_answers_the_staged_bytes() {
    let mut a = arena();
    let mut svc = StateService::create(&mut a, ServiceConfig::default()).unwrap();
    svc.submit(&mut a, ServiceCmd::Create { tenant: "t".into(), quota: None }).unwrap();
    svc.flush_batch(&mut a).unwrap();
    let (tenant, root) = (String::from("t"), String::from("r"));
    for value in [vec![7u8; 40], vec![8u8; 40], vec![9u8; 300]] {
        let put =
            ServiceCmd::Put { tenant: tenant.clone(), root: root.clone(), bytes: value.clone() };
        svc.submit(&mut a, put).unwrap();
        svc.submit(&mut a, ServiceCmd::Query { tenant: tenant.clone(), root: root.clone() })
            .unwrap();
        let report = svc.flush_batch(&mut a).unwrap();
        assert!(report.committed);
        assert!(matches!(report.replies[0], Ok(ServiceReply::Put)));
        match &report.replies[1] {
            Ok(ServiceReply::Value(got)) => assert_eq!(got.as_ref(), Some(&value)),
            other => panic!("query got {other:?}"),
        }
    }
}

#[test]
fn a_revert_leaves_the_commit_nothing_to_store() {
    // Twin devices in the same committed state: one commits an empty
    // window, the other a window whose every stage was reverted.
    let committed_bytes = |revert: &dyn Fn(&mut PmRt, &mut NvbmArena)| {
        let mut a = arena();
        let mut rt = runtime(&mut a);
        let before = a.stats.nvbm.bytes_written;
        revert(&mut rt, &mut a);
        rt.commit(&mut a).unwrap();
        a.crash(CrashMode::LoseDirty);
        let mut r = PmRt::restore(&mut a).unwrap();
        assert_eq!(r.load::<Vec<u8>>(&mut a, "a").unwrap(), Some(vec![1u8; 96]));
        assert_eq!(r.load::<Vec<u8>>(&mut a, "c").unwrap(), None);
        a.stats.nvbm.bytes_written - before
    };
    let empty = committed_bytes(&|_, _| {});
    let reverted = committed_bytes(&|rt, a| {
        rt.stage(a, "a", &vec![5u8; 96]).unwrap();
        rt.stage(a, "a", &vec![6u8; 96]).unwrap();
        rt.stage(a, "c", &vec![7u8; 100]).unwrap();
        assert_eq!(rt.revert_staged_prefix(""), 2);
    });
    assert_eq!(reverted, empty);
    let unregistered = committed_bytes(&|rt, a| {
        rt.stage(a, "c", &vec![7u8; 100]).unwrap();
        assert!(rt.unregister("c"));
    });
    assert_eq!(unregistered, empty);
}

/// Five rewritten roots stage into adjacent ring slots, and their records
/// — 120 bytes each, so neighbours share a line — go out as one store:
/// the commit charges the lines the run spans, not each record's, and a
/// crash at that store, before it or with the run dirty, restores the
/// previous epoch byte for byte under every mode.
#[test]
fn a_run_of_adjacent_records_is_one_store() {
    const K: usize = 5;
    let names: Vec<String> = (0..K).map(|i| format!("r{i}")).collect();
    let mut a = arena();
    // No flight-recorder stores between the commit's own.
    a.set_recorder_enabled(false);
    let mut rt = PmRt::create(&mut a).unwrap();
    // Every window rewrites every root, so no committed blob is left for
    // the wear and compaction passes to relocate: the window's records
    // are the ones it staged. The first windows grow the ring around
    // earlier records; the first whose slots are adjacent is tested.
    let mut round = 0u8;
    let ptrs = loop {
        round += 1;
        let ptrs: Vec<_> =
            names.iter().map(|n| rt.stage(&mut a, n, &vec![round; 100]).unwrap()).collect();
        let next =
            |w: &[pm_rt::PPtr<Vec<u8>>]| w[0].offset() + blob_footprint(w[0].len() as usize) as u64;
        if round > 1 && ptrs.windows(2).all(|w| w[1].offset() == next(w)) {
            break ptrs;
        }
        assert!(round < 16, "five rewrites never landed in adjacent slots");
        rt.commit(&mut a).unwrap();
    };
    let epoch = rt.epoch();
    let size = blob_footprint(ptrs[0].len() as usize);
    assert_ne!(size % CACHELINE, 0, "neighbouring records share a line");
    let run = DeviceModel::lines(ptrs[0].offset(), K * size);
    let each: u64 = ptrs.iter().map(|p| DeviceModel::lines(p.offset(), size)).sum();
    assert!(run < each, "{run} lines spanned, {each} over the records one by one");

    type View = (Option<&'static str>, usize, Vec<SparseMedia>);
    let views: Arc<Mutex<Vec<View>>> = Arc::default();
    let sink = Arc::clone(&views);
    a.set_fail_plan(FailPlan::with_hook(Box::new(move |v: &CrashView<'_>| {
        let modes = [1, 7, 11].map(|seed| CrashMode::TornWrite { seed });
        let images = [CrashMode::LoseDirty].into_iter().chain(modes).map(|m| v.image(m));
        sink.lock().unwrap().push((v.label, v.dirty_lines(), images.collect()));
    })));
    let before = a.stats.nvbm.write_lines;
    rt.commit(&mut a).unwrap();
    a.take_fail_plan();
    let lines = a.stats.nvbm.write_lines - before;
    // Besides the run the commit stores its commit record and the one
    // header line that publishes it.
    let root = a.committed().rt_root.0;
    let mut h = [0u8; 8];
    a.read(root, &mut h);
    let record = blob_footprint(u32::from_le_bytes([h[4], h[5], h[6], h[7]]) as usize);
    assert_eq!(lines, run + DeviceModel::lines(root, record) + 1, "store lines");

    // One store between the compaction pass and the commit record's
    // append: the run's, onto a clean cache, leaving exactly its lines
    // dirty.
    let views = std::mem::take(&mut *views.lock().unwrap());
    let at = |label| views.iter().position(|v| v.0 == Some(label)).unwrap();
    let (compact, append) = (at("heap::compact"), at("heap::append"));
    assert_eq!(append - compact, 2, "one store for the whole run");
    assert_eq!(views[compact + 1].1, 0);
    assert_eq!(views[append].1 as u64, run);
    for (i, (_, _, images)) in views[compact + 1..=append].iter().enumerate() {
        for (m, image) in images.iter().enumerate() {
            let mut b = NvbmArena::from_media(image.clone(), DeviceModel::default());
            let mut r = PmRt::restore(&mut b).unwrap();
            assert_eq!(r.epoch(), epoch, "view {i} mode {m}");
            assert_eq!(r.len(), K);
            for n in &names {
                assert_eq!(r.load::<Vec<u8>>(&mut b, n).unwrap(), Some(vec![round - 1; 100]));
            }
        }
    }
    a.crash(CrashMode::LoseDirty);
    let mut r = PmRt::restore(&mut a).unwrap();
    assert_eq!(r.epoch(), epoch + 1);
    for n in &names {
        assert_eq!(r.load::<Vec<u8>>(&mut a, n).unwrap(), Some(vec![round; 100]));
    }
}

#[test]
fn a_commit_that_fails_keeps_its_window_for_the_next() {
    let mut a = NvbmArena::new(64 << 10, DeviceModel::default());
    let mut rt = PmRt::create(&mut a).unwrap();
    rt.stage(&mut a, "cold", &vec![1u8; 8]).unwrap();
    rt.commit(&mut a).unwrap();
    // A long name makes the commit record far larger than anything staged
    // beside it, and an octree bump at the ring floor keeps the ring from
    // growing to fit it.
    let long = "n".repeat(4000);
    rt.stage(&mut a, &long, &11u64).unwrap();
    rt.stage(&mut a, "cold", &vec![2u8; 8]).unwrap();
    let bump = a.live_bump();
    a.publish_bump(a.live_rt_floor());
    let epoch = rt.epoch();
    assert!(matches!(rt.commit(&mut a), Err(PmError::Full(_))));
    assert_eq!(rt.epoch(), epoch);
    // The window still reads as staged, before and after a crash-free
    // retry with room to publish.
    assert_eq!(rt.load::<u64>(&mut a, &long).unwrap(), Some(11));
    assert_eq!(rt.load::<Vec<u8>>(&mut a, "cold").unwrap(), Some(vec![2u8; 8]));
    a.publish_bump(bump);
    rt.commit(&mut a).unwrap();
    assert_eq!(rt.epoch(), epoch + 1);
    a.crash(CrashMode::LoseDirty);
    let mut r = PmRt::restore(&mut a).unwrap();
    assert_eq!(r.load::<u64>(&mut a, &long).unwrap(), Some(11));
    assert_eq!(r.load::<Vec<u8>>(&mut a, "cold").unwrap(), Some(vec![2u8; 8]));
}
