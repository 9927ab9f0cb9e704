//! Staged records live in DRAM until their commit: staging reserves a
//! ring slot and stores nothing, an in-window rewrite replaces the
//! buffer, a read of a staged root answers from it, a revert leaves the
//! commit nothing to store, and a commit that fails keeps the window.

use pm_rt::{PmError, PmRt, ServiceCmd, ServiceConfig, ServiceReply, StateService};
use pmoctree_nvbm::{CrashMode, DeviceModel, NvbmArena};

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
