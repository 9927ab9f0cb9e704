//! Property tests for the multi-tenant state service, plus the
//! workspace-wide error-taxonomy contract. (Quotas, replies and tenant
//! isolation are the model's, `tests/model.rs`.)
//!
//! * **Snapshot isolation** — whatever interleaving of tenant writes,
//!   batch flushes, wear-GC relocations and GC runs after a snapshot is
//!   pinned, rereading the snapshot is byte-identical to the capture
//!   taken at pin time.
//! * **Error taxonomy** — the service front-end, the typed-handle API,
//!   and all three octree backends report rejections through the same
//!   [`PmError`] arms (mirrors `amr::backend`'s
//!   `all_backends_agree_on_error_taxonomy`).

use pm_rt::{PmError, PmRt, ServiceCmd, ServiceConfig, StateService};
use pmoctree_nvbm::{DeviceModel, NvbmArena};
use proptest::prelude::*;

fn tname(i: usize) -> String {
    format!("t{i}")
}

fn service(arena: &mut NvbmArena, tenants: usize, quota: u64) -> StateService {
    let cfg = ServiceConfig::builder()
        .max_tenants(tenants)
        .default_quota(quota)
        .batch_capacity(1024)
        .build()
        .expect("valid config");
    let mut svc = StateService::create(arena, cfg).expect("create service");
    for i in 0..tenants {
        svc.submit(arena, ServiceCmd::Create { tenant: tname(i), quota: None })
            .expect("enqueue create");
    }
    svc.flush_batch(arena).expect("seed flush");
    svc
}

/// One step of the generated workload: a write, or a batch boundary.
#[derive(Debug, Clone)]
enum Step {
    Put { tenant: usize, root: usize, bytes: Vec<u8> },
    Flush,
}

fn arb_steps(tenants: usize, max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0..tenants, 0usize..3, prop::collection::vec(any::<u8>(), 0..max_len))
                .prop_map(|(tenant, root, bytes)| Step::Put { tenant, root, bytes }),
            1 => Just(Step::Flush),
        ],
        1..48,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pin a snapshot of tenant 0 mid-workload; apply the rest of the
    /// interleaving (writes to all tenants, flushes), then `churn`
    /// one-put commits to tenant 1 and a final GC; the snapshot must
    /// reread byte-identical to its pin-time capture. Every commit's
    /// compaction pass relocates the oldest committed blob it did not
    /// restage, so 12 churn commits — at least one per other blob (4
    /// tenants x 3 roots + the registry, less the churned root) — copy
    /// every blob the pin holds while it is live.
    #[test]
    fn pinned_snapshot_rereads_byte_identical(
        warmup in arb_steps(4, 96),
        after in arb_steps(4, 96),
        churn in 12usize..24,
    ) {
        let mut arena = NvbmArena::new(4 << 20, DeviceModel::default());
        let mut svc = service(&mut arena, 4, 64 << 10);
        for s in warmup {
            match s {
                Step::Put { tenant, root, bytes } => {
                    svc.submit(&mut arena, ServiceCmd::Put {
                        tenant: tname(tenant), root: format!("r{root}"), bytes,
                    }).expect("submit");
                }
                Step::Flush => { svc.flush_batch(&mut arena).expect("flush"); }
            }
        }
        svc.flush_batch(&mut arena).expect("pre-pin flush");

        let snap = svc.snapshot(&mut arena, "t0").expect("snapshot");
        let captured: Vec<(String, Option<Vec<u8>>)> = snap
            .names().map(str::to_string).collect::<Vec<_>>()
            .into_iter()
            .map(|n| { let v = snap.get_bytes(&mut arena, &n).expect("capture"); (n, v) })
            .collect();
        let relocations = arena.stats.relocations();

        for s in after {
            match s {
                Step::Put { tenant, root, bytes } => {
                    svc.submit(&mut arena, ServiceCmd::Put {
                        tenant: tname(tenant), root: format!("r{root}"), bytes,
                    }).expect("submit");
                }
                Step::Flush => { svc.flush_batch(&mut arena).expect("flush"); }
            }
        }
        svc.flush_batch(&mut arena).expect("post flush");
        for i in 0..churn {
            svc.submit(&mut arena, ServiceCmd::Put {
                tenant: tname(1), root: "r0".into(), bytes: vec![i as u8; 32],
            }).expect("submit");
            svc.flush_batch(&mut arena).expect("churn flush");
        }
        svc.collect(&mut arena);

        prop_assert!(arena.stats.relocations() >= relocations + churn as u64);
        prop_assert!(snap.is_live());
        for (name, want) in &captured {
            let got = snap.get_bytes(&mut arena, name).expect("reread");
            prop_assert_eq!(&got, want, "snapshot drifted for root {}", name);
        }
    }
}

/// The service front-end, the typed-handle API, and all three octree
/// backends classify rejections through the same [`PmError`] taxonomy.
#[test]
fn service_runtime_and_backends_agree_on_error_taxonomy() {
    use pmoctree_amr::{OctreeBackend, PmBackend};
    use pmoctree_baselines::{EtreeOctree, InCoreOctree};
    use pmoctree_morton::OctKey;
    use pmoctree_simfs::SimFs;

    // --- octree backends (mirrors amr::backend's taxonomy test) ---
    let backends: Vec<Box<dyn OctreeBackend>> = vec![
        Box::new(PmBackend::new(pm_octree::PmOctree::create(
            NvbmArena::new(16 << 20, DeviceModel::default()),
            pm_octree::PmConfig { dynamic_transform: false, ..pm_octree::PmConfig::default() },
        ))),
        Box::new(InCoreOctree::new()),
        Box::new(EtreeOctree::create(SimFs::on_nvbm())),
    ];
    for mut b in backends {
        b.refine(OctKey::root()).expect("refine root");
        let name = b.name();
        let missing = OctKey::root().child(0).child(0);
        assert!(matches!(b.refine(missing), Err(PmError::NotFound(_))), "{name}: refine missing");
        assert!(
            matches!(b.refine(OctKey::root()), Err(PmError::NotALeaf(_))),
            "{name}: refine internal"
        );
        assert!(
            matches!(b.set_data(missing, [0.0; 4]), Err(PmError::NotFound(_))),
            "{name}: set_data missing"
        );
    }

    // --- pm-rt service + handles: the new arms of the same taxonomy ---
    let mut arena = NvbmArena::new(2 << 20, DeviceModel::default());

    // NotFound: restoring a device that was never formatted.
    assert!(matches!(PmRt::restore(&mut arena), Err(PmError::NotFound(_))));

    let mut svc = service(&mut arena, 2, 256);

    // NotFound: commands addressed to an unregistered tenant.
    svc.submit(&mut arena, ServiceCmd::Commit { tenant: "ghost".into() }).expect("enqueue");
    let report = svc.flush_batch(&mut arena).expect("flush");
    assert!(matches!(report.replies[0], Err(PmError::NotFound(_))), "unknown tenant");

    // QuotaExceeded: an oversized write against a 256-byte quota.
    svc.submit(
        &mut arena,
        ServiceCmd::Put { tenant: tname(0), root: "big".into(), bytes: vec![0; 4096] },
    )
    .expect("enqueue");
    let report = svc.flush_batch(&mut arena).expect("flush");
    assert!(matches!(report.replies[0], Err(PmError::QuotaExceeded(_))), "oversized write");

    // Recovery: malformed names are rejected by the typed-handle layer.
    let mut rt = PmRt::create(&mut NvbmArena::new(1 << 20, DeviceModel::default())).expect("rt");
    let mut scratch = NvbmArena::new(1 << 20, DeviceModel::default());
    assert!(matches!(rt.session(&mut scratch).tenant("a/b"), Err(PmError::Recovery(_))));

    // SnapshotGone: a pinned snapshot outliving its runtime's media.
    let snap = svc.snapshot(&mut arena, &tname(1)).expect("snapshot");
    PmRt::destroy(&mut arena);
    assert!(!snap.is_live());
    assert!(matches!(snap.get_bytes(&mut arena, "r"), Err(PmError::SnapshotGone(_))));
}
