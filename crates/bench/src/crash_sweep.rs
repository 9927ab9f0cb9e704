//! Deterministic crash-point sweep (the recovery-verification harness).
//!
//! Drives an N-step moving-droplet adaptation workload on a PM-octree
//! with a [`FailPlan`] hook installed, so **every** crash opportunity the
//! workload has — every store, every cacheline writeback, every labelled
//! protocol point (`persist::*`, `gc::sweep`, `c0::evict`,
//! `replica::ship`, `transform`, `rt::commit`, `rt::swizzle`, and the
//! log-structured heap's `heap::append` / `heap::compact` /
//! `wear::relocate`) — is visited exactly once. At each
//! opportunity the hook materialises the media image a reboot would find
//! under each [`CrashMode`] (drop dirty lines, commit a random subset,
//! tear each line at a random word boundary), restores a fresh tree from
//! it, runs the full invariant checker, and compares the recovered leaf
//! set against the version oracle: it must be *exactly* the last
//! committed version `V_{i-1}`, or — for opportunities inside `persist`
//! once the commit record naming it is on media — the in-flight version
//! `V_i`, with the pm-rt value the same record publishes. Never a mixture,
//! never a panic.
//!
//! A single workload pass therefore proves the crash-consistency
//! contract for every (opportunity × mode) pair, instead of `O(n)`
//! record/replay reruns.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use pm_octree::{check_invariants, CellData, PmConfig, PmOctree};
use pm_rt::{PmRt, ServiceCmd, ServiceConfig, StateService};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::recorder::{self, RecorderDump};
use pmoctree_nvbm::{CrashMode, CrashView, DeviceModel, FailPlan, NvbmArena, RecKind, SparseMedia};

/// The pm-rt tenant namespace the sweep workload commits each step.
const RT_TENANT: &str = "sweep";
/// The root (inside [`RT_TENANT`]) holding the step counter.
const RT_ROOT_NAME: &str = "step";

/// One persisted (or in-flight) version: the sorted leaf set.
type Snapshot = Vec<(OctKey, CellData)>;

/// Sweep scale knobs.
#[derive(Clone, Debug)]
pub struct CrashSweepConfig {
    /// Adaptation steps (each ends in a persist).
    pub steps: usize,
    /// Maximum refinement level of the droplet band.
    pub max_level: u8,
    /// Emulated device size in bytes.
    pub arena_bytes: usize,
    /// Seeds for the randomised crash modes; each seed adds a
    /// `CommitRandom` and a `TornWrite` column to the matrix.
    pub seeds: Vec<u64>,
    /// Commit probability for `CommitRandom`.
    pub p_commit: f64,
}

impl CrashSweepConfig {
    /// CI-sized sweep: a couple of steps on a coarse mesh.
    pub fn smoke() -> Self {
        CrashSweepConfig {
            steps: 2,
            max_level: 3,
            arena_bytes: 1 << 20,
            seeds: vec![7],
            p_commit: 0.5,
        }
    }

    /// Default sweep: a few steps, three seeds per randomised mode.
    pub fn full() -> Self {
        CrashSweepConfig {
            steps: 4,
            max_level: 4,
            arena_bytes: 2 << 20,
            seeds: vec![1, 2, 3],
            p_commit: 0.5,
        }
    }
}

/// Per-crash-mode outcome over all opportunities.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct CrashModeRow {
    /// Human-readable mode name (e.g. `torn_write[seed=3]`).
    pub mode: String,
    /// Opportunities checked under this mode.
    pub checked: u64,
    /// Recoveries that yielded the last committed version.
    pub recovered_committed: u64,
    /// Recoveries that yielded the in-flight (just-published) version.
    pub recovered_in_flight: u64,
    /// Contract violations (restore error, invariant failure, or a leaf
    /// set that matches neither valid version).
    pub violations: u64,
}

/// A contract violation, kept for the report (first few only).
#[derive(Clone, Debug)]
pub struct Violation {
    /// Opportunity index the crash was injected at.
    pub opportunity: u64,
    /// Failpoint label, when the opportunity was a labelled one.
    pub label: Option<&'static str>,
    /// Mode name.
    pub mode: String,
    /// What went wrong.
    pub reason: String,
}

/// What a sweep found: the droplet sweep ([`crash_sweep`]) and the
/// service sweep ([`service_crash_sweep`]) alike.
#[derive(Clone, Debug, Default)]
pub struct CrashSweep {
    /// How the report names the sweep, its steps and its elements, e.g.
    /// `["Crash-point sweep", "steps", "final elements"]`.
    pub names: [&'static str; 3],
    /// Steps executed (droplet) or batches flushed (service).
    pub steps: usize,
    /// Leaf count of the final persisted version (droplet) or tenants in
    /// the service.
    pub elements: usize,
    /// What a clean sweep proves: the report's closing line.
    pub contract: &'static str,
    /// Total crash opportunities the workload had.
    pub opportunities: u64,
    /// Occurrence count per failpoint label (protocol coverage).
    pub label_counts: Vec<(String, u64)>,
    /// One row per crash mode.
    pub rows: Vec<CrashModeRow>,
    /// First violations encountered (empty on a clean sweep).
    pub violations: Vec<Violation>,
    /// Recovered flight-recorder dumps validated (one per opportunity ×
    /// mode; failures count as violations in their mode's row).
    pub recorder_checked: u64,
}

impl CrashSweep {
    /// Total violations across all modes.
    pub fn total_violations(&self) -> u64 {
        self.rows.iter().map(|r| r.violations).sum()
    }

    /// The teardown both sweeps share: take the hook plan off `arena`,
    /// count its labels, and take back the stats the hook shared (dropping
    /// the plan drops the hook's handle on them).
    fn settle(self, arena: &mut NvbmArena, stats: Arc<Mutex<SweepStats>>) -> Self {
        let plan = arena.take_fail_plan().expect("plan installed");
        let mut label_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (_, l) in plan.labels() {
            *label_counts.entry(l).or_insert(0) += 1;
        }
        let opportunities = plan.opportunities();
        drop(plan);
        let st = Arc::try_unwrap(stats).map_err(|_| "stats still shared").expect("hook dropped");
        let st = st.into_inner().expect("stats lock");
        CrashSweep {
            opportunities,
            label_counts: label_counts.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            rows: st.rows,
            violations: st.violations,
            recorder_checked: st.recorder_checked,
            ..self
        }
    }
}

/// Oracle shared between the workload (which appends versions) and the
/// hook (which checks recoveries against them).
struct Oracle {
    /// Versions a crash right now may legally recover to. Index 0 is the
    /// last committed version; index 1 (present only while a persist is
    /// executing) is the in-flight version being published.
    valid: Vec<Snapshot>,
    /// Legal values of the pm-rt `sweep::step` root, same indexing. One
    /// commit record publishes both inside the combined persist, so the
    /// rt value must come back with the tree version of the same index.
    rt_valid: Vec<u64>,
}

/// Per-mode outcomes and the first violations, shared by both sweeps.
struct SweepStats {
    rows: Vec<CrashModeRow>,
    violations: Vec<Violation>,
    recorder_checked: u64,
}

const MAX_RECORDED_VIOLATIONS: usize = 16;

impl SweepStats {
    fn new(modes: &[(String, CrashMode)]) -> Self {
        SweepStats {
            rows: modes
                .iter()
                .map(|(name, _)| CrashModeRow { mode: name.clone(), ..Default::default() })
                .collect(),
            violations: Vec::new(),
            recorder_checked: 0,
        }
    }

    /// Count a violation against mode row `row`; the first
    /// [`MAX_RECORDED_VIOLATIONS`] are kept for the report.
    fn violation(&mut self, row: usize, v: Violation) {
        self.rows[row].violations += 1;
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(v);
        }
    }

    /// The verdict loop both sweeps run at one opportunity: under every
    /// mode, build the crash image, check its flight recorder against a
    /// clean shutdown's, and hand it to `verdict` — which valid version
    /// the rebooted device holds (0: the committed one, else in flight),
    /// or why it holds none.
    fn check(
        &mut self,
        view: &CrashView<'_>,
        modes: &[(String, CrashMode)],
        mut verdict: impl FnMut(SparseMedia) -> Result<usize, String>,
    ) {
        let full_dump = recorder::recover(&view.full_image());
        for (i, (name, mode)) in modes.iter().enumerate() {
            let violation = |reason| Violation {
                opportunity: view.opportunity,
                label: view.label,
                mode: name.clone(),
                reason,
            };
            self.rows[i].checked += 1;
            let image = view.image(*mode);
            self.recorder_checked += 1;
            if let Err(reason) = check_recorder(&image, &full_dump, view.label) {
                self.violation(i, violation(reason));
            }
            match verdict(image) {
                Ok(0) => self.rows[i].recovered_committed += 1,
                Ok(_) => self.rows[i].recovered_in_flight += 1,
                Err(reason) => self.violation(i, violation(reason)),
            }
        }
    }
}

/// Flight-recorder side of the recovery oracle, shared by both sweeps.
/// The recorder recovered from a crash image must be well-formed: the
/// ring descriptor decodes, the surviving entries are seq-contiguous
/// (torn tail truncated — [`recorder::recover`] never panics), and no
/// entry is newer than what a *clean* shutdown at the same opportunity
/// would have preserved. At a labelled failpoint the newest durable
/// entry must be that failpoint itself: the entry is written and flushed
/// immediately before the opportunity fires, so every crash image
/// already carries it.
fn check_recorder(
    image: &SparseMedia,
    full: &RecorderDump,
    label: Option<&'static str>,
) -> Result<(), String> {
    let dump = recorder::recover(image);
    if !dump.header_ok {
        return Err("recorder: ring descriptor unreadable after crash".into());
    }
    for w in dump.entries.windows(2) {
        if w[1].seq != w[0].seq + 1 {
            return Err(format!(
                "recorder: recovered entries not seq-contiguous ({} then {})",
                w[0].seq, w[1].seq
            ));
        }
    }
    let crash_last = dump.last().map_or(0, |e| e.seq);
    let full_last = full.last().map_or(0, |e| e.seq);
    if crash_last > full_last {
        return Err(format!(
            "recorder: crashed dump ends at seq {crash_last}, past the injected crash point \
             (clean shutdown ends at {full_last})"
        ));
    }
    if let Some(l) = label {
        match dump.last() {
            Some(e) if e.kind == RecKind::Failpoint && e.label == l => {}
            other => {
                return Err(format!(
                    "recorder: at failpoint {l:?} the newest durable entry is {other:?}"
                ))
            }
        }
    }
    Ok(())
}

/// pm-rt side of the recovery oracle: the registry must swizzle and hold
/// the `sweep::step` value of the tree version recovered — one commit
/// record publishes both, so they pair exactly.
fn check_rt(r: &mut PmOctree, rt_valid: &[u64], tree_version: usize) -> Result<(), String> {
    let mut rt =
        PmRt::restore(&mut r.store.arena).map_err(|e| format!("rt restore failed: {e}"))?;
    let v: u64 = rt
        .session(&mut r.store.arena)
        .tenant(RT_TENANT)
        .map_err(|e| format!("rt tenant failed: {e}"))?
        .get(RT_ROOT_NAME)
        .map_err(|e| format!("rt read failed: {e}"))?
        .ok_or_else(|| format!("rt root {RT_ROOT_NAME:?} missing after recovery"))?;
    match rt_valid.iter().position(|&x| x == v) {
        Some(i) if i == tree_version => Ok(()),
        Some(i) => {
            Err(format!("rt value {v} (commit {i}) recovered with tree version {tree_version}"))
        }
        None => Err(format!("rt value {v} is neither the committed nor the in-flight one")),
    }
}

/// The crash-mode columns a sweep config expands to: `LoseDirty`, plus a
/// `CommitRandom` and a `TornWrite` column per seed.
fn mode_matrix(cfg: &CrashSweepConfig) -> Vec<(String, CrashMode)> {
    let mut modes: Vec<(String, CrashMode)> = vec![("lose_dirty".into(), CrashMode::LoseDirty)];
    for &seed in &cfg.seeds {
        modes.push((
            format!("commit_random[p={},seed={seed}]", cfg.p_commit),
            CrashMode::CommitRandom { p: cfg.p_commit, seed },
        ));
        modes.push((format!("torn_write[seed={seed}]"), CrashMode::TornWrite { seed }));
    }
    modes
}

fn signed_distance(k: OctKey, center: [f64; 3], radius: f64) -> f64 {
    let c = k.center();
    let d2: f64 = (0..3).map(|i| (c[i] - center[i]).powi(2)).sum();
    d2.sqrt() - radius
}

/// Run the sweep. Every opportunity of the workload is checked under
/// every mode; a correct implementation returns
/// [`CrashSweep::total_violations`] `== 0`.
pub fn crash_sweep(cfg: &CrashSweepConfig) -> CrashSweep {
    let modes = mode_matrix(cfg);

    // Exercise the whole protocol surface: replica shipping, C0
    // eviction pressure, and the dynamic transformation all on.
    let pm_cfg = PmConfig::builder()
        .c0_capacity_octants(96)
        .dynamic_transform(true)
        .replicas(true)
        .build()
        .expect("valid sweep config");

    let arena = NvbmArena::new(cfg.arena_bytes, DeviceModel::default());
    let mut t = PmOctree::create(arena, pm_cfg);
    t.add_feature(Box::new(|_k, d| d.phi.abs() < 0.25));

    // Base mesh, committed before the plan is installed: the sweep
    // starts from a device that holds a recoverable V_0.
    t.refine(OctKey::root()).expect("refine root");
    for i in 0..8 {
        t.refine(OctKey::root().child(i)).expect("refine base");
    }
    t.persist();
    let v0 = t.leaves_sorted();

    // An rt registry on the same device, committed before the plan is
    // installed so the sweep starts from a recoverable rt V_0 as well.
    let mut rt = PmRt::create(&mut t.store.arena).expect("rt create");
    {
        let mut h = rt.session(&mut t.store.arena).tenant(RT_TENANT).expect("rt tenant");
        h.put(RT_ROOT_NAME, &0u64).expect("rt put");
        h.commit().expect("rt commit");
    }

    let oracle = Arc::new(Mutex::new(Oracle { valid: vec![v0], rt_valid: vec![0] }));
    let stats = Arc::new(Mutex::new(SweepStats::new(&modes)));

    let hook_oracle = oracle.clone();
    let hook_stats = stats.clone();
    t.store.arena.set_fail_plan(FailPlan::with_hook(Box::new(move |view| {
        let (valid, rt_valid) = {
            let o = hook_oracle.lock().expect("oracle lock");
            (o.valid.clone(), o.rt_valid.clone())
        };
        hook_stats.lock().expect("stats lock").check(view, &modes, |image| {
            let rebooted = NvbmArena::from_media(image, DeviceModel::default());
            let mut r =
                PmOctree::restore(rebooted, pm_cfg).map_err(|e| format!("restore failed: {e}"))?;
            check_invariants(&mut r).map_err(|e| format!("invariants violated: {e}"))?;
            let got = r.leaves_sorted();
            match valid.iter().position(|v| *v == got) {
                Some(i) => check_rt(&mut r, &rt_valid, i).map(|()| i),
                None => Err(format!(
                    "recovered leaf set ({} leaves) is neither V_i nor V_i-1",
                    got.len()
                )),
            }
        });
    })));

    // The droplet sweeps across the domain; every step updates the level
    // set on all leaves, adapts the band, and persists — through the
    // batched mutators, so every store of every op is a crash opportunity
    // the oracle checks.
    for s in 0..cfg.steps {
        let tt = (s + 1) as f64 / cfg.steps as f64;
        let center = [0.25 + 0.5 * tt, 0.5, 0.5];
        let radius = 0.25;
        let writes: Vec<(OctKey, CellData)> = t
            .leaf_keys_sorted()
            .into_iter()
            .map(|k| {
                let phi = signed_distance(k, center, radius);
                (k, CellData { phi, pressure: s as f64, ..Default::default() })
            })
            .collect();
        let _ = t.set_data_many(&writes);
        // Refine the interface band; coarsen families that left it.
        let band: Vec<OctKey> = t
            .leaf_keys_sorted()
            .into_iter()
            .filter(|k| {
                signed_distance(*k, center, radius).abs() < k.extent() && k.level() < cfg.max_level
            })
            .collect();
        let _ = t.refine_many(&band);
        let mut parents: Vec<OctKey> = t
            .leaf_keys_sorted()
            .into_iter()
            .filter_map(|k| k.parent())
            .filter(|p| {
                p.level() >= 1 && signed_distance(*p, center, radius).abs() > 4.0 * p.extent()
            })
            .collect();
        parents.sort_unstable();
        parents.dedup();
        let _ = t.coarsen_many(&parents);
        // Persist under the oracle: while persist runs, a crash may
        // legally land on either the committed or the in-flight version.
        // The rt registry commits inside the same persist (combined
        // protocol), so its legal values widen and narrow in lockstep.
        let new = t.leaves_sorted();
        let step_val = (s + 1) as u64;
        {
            let mut o = oracle.lock().expect("oracle lock");
            let committed = o.valid[0].clone();
            o.valid = vec![committed, new.clone()];
            let rt_committed = o.rt_valid[0];
            o.rt_valid = vec![rt_committed, step_val];
        }
        let rt_ref = &mut rt;
        t.persist_with_hook(&mut |arena| {
            let mut h = rt_ref.session(arena).tenant(RT_TENANT)?;
            h.put(RT_ROOT_NAME, &step_val)?;
            h.commit()
        })
        .expect("combined rt commit failed");
        {
            let mut o = oracle.lock().expect("oracle lock");
            o.valid = vec![new];
            o.rt_valid = vec![step_val];
        }
    }

    // Reattach the registry on the live device with the plan still
    // installed: the swizzle pass is itself a crash surface, so its
    // failpoint must appear in the sweep's opportunity space.
    let reread = PmRt::restore(&mut t.store.arena).expect("rt reattach");
    assert_eq!(reread.epoch(), rt.epoch(), "reattached rt must see every commit");

    CrashSweep {
        names: ["Crash-point sweep", "steps", "final elements"],
        steps: cfg.steps,
        elements: t.leaf_count(),
        contract: "every crash recovers to exactly V_i or V_i-1 with invariants intact",
        ..CrashSweep::default()
    }
    .settle(&mut t.store.arena, stats)
}

/// A decoded multi-tenant service state: tenant → root → raw bytes, as
/// reported by [`StateService::audit`].
type AuditState = BTreeMap<String, BTreeMap<String, Vec<u8>>>;

/// When a recovered audit state matches neither the committed nor the
/// in-flight batch version, distinguish the two failure shapes: a
/// *mixed-batch* recovery (every tenant individually holds one of the
/// two legal versions, but not all the same one — the batch was torn
/// across tenants) versus outright corruption (some tenant holds a
/// state that was never staged at all).
fn diagnose_service_state(got: &AuditState, valid: &[AuditState]) -> String {
    let tenants: std::collections::BTreeSet<&String> =
        valid.iter().flat_map(|v| v.keys()).chain(got.keys()).collect();
    for t in tenants {
        let g = got.get(t);
        if !valid.iter().any(|v| v.get(t) == g) {
            return format!(
                "tenant {t:?} recovered a state that is neither committed nor in-flight"
            );
        }
    }
    "tenants recovered from mixed batch versions (per-batch atomicity torn across tenants)"
        .to_string()
}

/// Crash-sweep the multi-tenant service front-end: drive batched
/// commands (`Create`/`Put`/`Commit`/`Restore`/`Destroy`, including a
/// quota-rejected write) with a [`FailPlan`] hook installed, and at
/// every crash opportunity audit the rebooted image with
/// [`StateService::audit`]. The recovered state must be *exactly* the
/// pre-batch committed state or the whole in-flight batch — a batch is
/// all-or-nothing for every tenant it touches. Pinned MVCC snapshots
/// are taken under the plan (covering `svc::snapshot_pin`) and must
/// keep reading the pre-batch bytes after the batch lands.
pub fn service_crash_sweep(cfg: &CrashSweepConfig) -> CrashSweep {
    const TENANTS: usize = 3;
    /// Quota for tenant `t0`: two cacheline-class roots fit, the
    /// oversized write each batch retries does not.
    const T0_QUOTA: u64 = 200;

    let modes = mode_matrix(cfg);
    let mut arena = NvbmArena::new(cfg.arena_bytes, DeviceModel::default());
    let scfg = ServiceConfig::builder()
        .max_tenants(16)
        .default_quota(64 << 10)
        .batch_capacity(256)
        .build()
        .expect("valid service config");
    let mut svc = StateService::create(&mut arena, scfg).expect("service create");

    // Seed the tenant set before the plan is installed, so the sweep
    // starts from a device holding a recoverable V_0.
    for i in 0..TENANTS {
        let quota = if i == 0 { Some(T0_QUOTA) } else { None };
        svc.submit(&mut arena, ServiceCmd::Create { tenant: format!("t{i}"), quota })
            .expect("enqueue create");
    }
    svc.flush_batch(&mut arena).expect("seed batch");
    let v0 = StateService::audit(&mut arena).expect("seed audit");

    let oracle: Arc<Mutex<Vec<AuditState>>> = Arc::new(Mutex::new(vec![v0]));
    let stats = Arc::new(Mutex::new(SweepStats::new(&modes)));

    let hook_oracle = oracle.clone();
    let hook_stats = stats.clone();
    arena.set_fail_plan(FailPlan::with_hook(Box::new(move |view| {
        let valid = hook_oracle.lock().expect("oracle lock").clone();
        hook_stats.lock().expect("stats lock").check(view, &modes, |image| {
            let mut rebooted = NvbmArena::from_media(image, DeviceModel::default());
            let got = StateService::audit(&mut rebooted)
                .map_err(|e| format!("service audit failed: {e}"))?;
            valid.iter().position(|v| *v == got).ok_or_else(|| diagnose_service_state(&got, &valid))
        });
    })));

    let batches = cfg.steps.max(2) * 2;
    for b in 0..batches {
        let before = oracle.lock().expect("oracle lock")[0].clone();

        // Build the batch and simulate its expected outcome. Writes go
        // to a hot root (`r0`) and a per-batch root, skewing COW churn.
        let mut cmds: Vec<ServiceCmd> = Vec::new();
        let mut after = before.clone();
        for i in 0..TENANTS {
            let tenant = format!("t{i}");
            let mut bytes = vec![0xABu8; 16];
            bytes[0] = b as u8 + 1;
            bytes[1] = i as u8;
            cmds.push(ServiceCmd::Put {
                tenant: tenant.clone(),
                root: "r0".into(),
                bytes: bytes.clone(),
            });
            after.get_mut(&tenant).expect("tenant exists").insert("r0".into(), bytes);
        }
        // t0's oversized write must be rejected by quota *before*
        // touching media: it never appears in any legal state.
        cmds.push(ServiceCmd::Put {
            tenant: "t0".into(),
            root: "big".into(),
            bytes: vec![0xFF; 256],
        });
        // t1 stages a write and then issues Restore in the same batch:
        // the staged write is reverted, so t1's extra root is absent
        // from the in-flight version too.
        cmds.push(ServiceCmd::Put { tenant: "t1".into(), root: "tmp".into(), bytes: vec![7; 16] });
        cmds.push(ServiceCmd::Restore { tenant: "t1".into() });
        // t1's `r0` write above is also reverted by the Restore.
        after.get_mut("t1").expect("t1 exists").clone_from(before.get("t1").expect("t1 exists"));
        cmds.push(ServiceCmd::Commit { tenant: "t2".into() });
        if b == batches - 1 {
            cmds.push(ServiceCmd::Destroy { tenant: "t2".into() });
            after.remove("t2");
        }

        // While the batch is in flight, a crash may legally land on
        // either the committed or the whole in-flight version.
        *oracle.lock().expect("oracle lock") = vec![before.clone(), after.clone()];

        // Pin a snapshot of t1 under the plan (fires svc::snapshot_pin).
        let snap = svc.snapshot(&mut arena, "t1").expect("snapshot");
        for cmd in cmds {
            svc.submit(&mut arena, cmd).expect("enqueue");
        }
        svc.flush_batch(&mut arena).expect("flush batch");

        // MVCC isolation: the pinned snapshot still reads the pre-batch
        // bytes even though the batch just committed and GC ran.
        let empty = BTreeMap::new();
        let pre = before.get("t1").unwrap_or(&empty);
        for (root, want) in pre {
            let got = snap.get_bytes(&mut arena, root).expect("snapshot read");
            if got.as_ref() != Some(want) {
                stats.lock().expect("stats lock").violation(
                    0,
                    Violation {
                        opportunity: 0,
                        label: Some("svc::snapshot_pin"),
                        mode: "snapshot_isolation".into(),
                        reason: format!("pinned snapshot of t1/{root} changed after the batch"),
                    },
                );
            }
        }
        drop(snap);
        svc.collect(&mut arena);

        *oracle.lock().expect("oracle lock") = vec![after];
    }

    CrashSweep {
        names: ["Service crash sweep", "batches", "tenants"],
        steps: batches,
        elements: TENANTS,
        contract: "every crash recovers a batch all-or-nothing for every tenant",
        ..CrashSweep::default()
    }
    .settle(&mut arena, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_clean_and_covers_the_protocol() {
        let sweep = crash_sweep(&CrashSweepConfig::smoke());
        assert!(sweep.opportunities > 100, "workload too small: {}", sweep.opportunities);
        assert_eq!(sweep.total_violations(), 0, "violations: {:#?}", sweep.violations);
        for row in &sweep.rows {
            assert_eq!(row.checked, sweep.opportunities, "{}", row.mode);
            assert!(row.recovered_committed > 0, "{}", row.mode);
        }
        // The flight-recorder oracle ran at every opportunity × mode.
        assert_eq!(sweep.recorder_checked, sweep.opportunities * sweep.rows.len() as u64);
        // Every protocol failpoint must have fired at least once.
        for label in [
            "persist::merge",
            "persist::flush",
            "persist::root_swap",
            "gc::sweep",
            "replica::ship",
            "transform",
            "rt::commit",
            "rt::swizzle",
            "heap::append",
            "heap::compact",
            "wear::relocate",
        ] {
            assert!(
                sweep.label_counts.iter().any(|(l, n)| l == label && *n > 0),
                "failpoint {label} never fired; coverage: {:?}",
                sweep.label_counts
            );
        }
    }

    #[test]
    fn service_sweep_is_all_or_nothing_per_tenant() {
        let sweep = service_crash_sweep(&CrashSweepConfig::smoke());
        assert!(sweep.opportunities > 40, "workload too small: {}", sweep.opportunities);
        assert_eq!(sweep.total_violations(), 0, "violations: {:#?}", sweep.violations);
        for row in &sweep.rows {
            assert_eq!(row.checked, sweep.opportunities, "{}", row.mode);
            assert!(row.recovered_committed > 0, "{}", row.mode);
            assert!(row.recovered_in_flight > 0, "{}", row.mode);
        }
        // The flight-recorder oracle ran at every opportunity × mode.
        assert_eq!(sweep.recorder_checked, sweep.opportunities * sweep.rows.len() as u64);
        // The service protocol points must appear in the opportunity
        // space, alongside the underlying rt commit they wrap.
        for label in [
            "svc::commit_batch",
            "svc::snapshot_pin",
            "rt::commit",
            "heap::append",
            "heap::compact",
            "wear::relocate",
        ] {
            assert!(
                sweep.label_counts.iter().any(|(l, n)| l == label && *n > 0),
                "failpoint {label} never fired; coverage: {:?}",
                sweep.label_counts
            );
        }
    }
}
