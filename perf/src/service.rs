//! `service_zipf`: the multi-tenant `StateService` under a Zipf-skewed
//! command stream. Unit = command, unit operation = one 256-command
//! batch including the flush its last command triggers.
//!
//! Commands are generated one batch ahead, outside the measured window;
//! the window is the sum of the timed sections (batches, snapshot pins
//! and rereads), and nothing touches the device outside them.

use std::collections::BTreeMap;
use std::time::Instant;

use pm_rt::{PmError, PmRt, ServiceCmd, ServiceConfig, ServiceReply, Snapshot, StateService};
use pmoctree_nvbm::{DeviceModel, NvbmArena, Tracer};

use crate::inputs::{Rng, Scale};
use crate::mesh::journal_layer;
use crate::report::{Checks, MemMark, Pass, Window};
use crate::spans::{Spans, OP};
use crate::stats::{median, percentile, ratio};

const BATCH: usize = 256;
const ROOTS_PER_TENANT: u64 = 4;
const PAYLOAD: usize = 96;
const QUOTA: u64 = 16 << 10;
/// Every `OVERSIZED_EVERY`-th command is a `Put` of twice the quota: a
/// by-design rejection, not a failure.
const OVERSIZED_EVERY: usize = 256;
/// One command in `QUERY_EVERY` is a `Query`; the rest are `Put`s.
const QUERY_EVERY: usize = 16;
const PIN_EVERY: usize = 10_000;
const PIN_SPAN: usize = 2_000;
const SAMPLED_TENANTS: usize = 32;
/// The set-up is built again, and thrown away, after every this many
/// batches, so that `setup_s` has readings from all over the run.
const SETUP_EVERY: usize = 300;

/// Section classes. In the steady state the window runs in, every full
/// batch is the same work to within a few percent (256 commands, one of
/// them oversized, one flush), and so is every pin and every reread.
const FULL_BATCH: u32 = 0;
const LAST_BATCH: u32 = 1;
const PIN: u32 = 2;
const REREAD: u32 = 3;

/// What the generator expects the service to answer.
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    Put,
    Rejected,
    Value,
}

/// The command stream of one seed.
struct Generator {
    rng: Rng,
    /// Cumulative Zipf(1.0) distribution over tenant ranks.
    cdf: Vec<f64>,
    names: Vec<String>,
    next: usize,
    total: usize,
    oversized: u64,
}

impl Generator {
    fn new(seed: u64, sc: &Scale) -> Generator {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=sc.tenants)
            .map(|rank| {
                acc += 1.0 / rank as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let names = (0..sc.tenants).map(|i| format!("tenant{i:04}")).collect();
        Generator { rng: Rng::new(seed, 2), cdf, names, next: 0, total: sc.commands, oversized: 0 }
    }

    /// The next batch: commands, the reply each must get, and its tenant.
    fn batch(&mut self) -> Vec<(ServiceCmd, Expect, usize)> {
        let n = BATCH.min(self.total - self.next);
        (0..n)
            .map(|_| {
                let i = self.next;
                self.next += 1;
                let u = self.rng.next_f64();
                let t = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
                let tenant = self.names[t].clone();
                let root = format!("r{}", self.rng.next_u64() % ROOTS_PER_TENANT);
                if i % OVERSIZED_EVERY == OVERSIZED_EVERY - 1 {
                    self.oversized += 1;
                    let bytes = vec![0xFF; 2 * QUOTA as usize];
                    (ServiceCmd::Put { tenant, root, bytes }, Expect::Rejected, t)
                } else if i % QUERY_EVERY == 7 {
                    (ServiceCmd::Query { tenant, root }, Expect::Value, t)
                } else {
                    let tag = (i as u64).to_le_bytes();
                    let bytes = (0..PAYLOAD).map(|j| tag[j % 8] ^ j as u8).collect();
                    (ServiceCmd::Put { tenant, root, bytes }, Expect::Put, t)
                }
            })
            .collect()
    }
}

/// The roots of a snapshot and the bytes read under each.
type Roots = Vec<(String, Option<Vec<u8>>)>;

/// A pinned snapshot of the hottest tenant awaiting its reread.
struct Pinned {
    snap: Snapshot,
    seen: Roots,
    reread_at: usize,
}

fn read_all(snap: &Snapshot, arena: &mut NvbmArena) -> Result<Roots, PmError> {
    let names: Vec<String> = snap.names().map(str::to_string).collect();
    names.into_iter().map(|n| snap.get_bytes(arena, &n).map(|v| (n, v))).collect()
}

/// One fresh pass.
pub fn pass(seed: u64, sc: &Scale, spans: &mut Spans, _first: bool) -> Pass {
    let scfg = ServiceConfig::builder()
        .max_tenants(sc.tenants)
        .default_quota(QUOTA)
        .batch_capacity(BATCH)
        .build()
        .expect("valid service configuration");
    let mut gen = Generator::new(seed, sc);

    // Set-up: create the service, register every tenant and give each of
    // its roots a first value, so the window starts in the steady state
    // (every `Put` replaces a root) and the set-up is tens of ms, not one.
    let first_value = |t: usize| vec![t as u8; PAYLOAD];
    let names = gen.names.clone();
    let build = || {
        let mut arena = NvbmArena::new(sc.service_arena, DeviceModel::default());
        let mut svc = StateService::create(&mut arena, scfg.clone()).expect("service create");
        for name in &names {
            svc.submit(&mut arena, ServiceCmd::Create { tenant: name.clone(), quota: None })
                .expect("tenant registration");
        }
        for (t, name) in names.iter().enumerate() {
            for r in 0..ROOTS_PER_TENANT {
                let (tenant, root) = (name.clone(), format!("r{r}"));
                svc.submit(&mut arena, ServiceCmd::Put { tenant, root, bytes: first_value(t) })
                    .expect("first value");
            }
        }
        svc.flush_batch(&mut arena).expect("set-up flush");
        (arena, svc)
    };
    let mut window = Window::new();
    let (mut arena, mut svc) = window.set_up(build);

    if spans.enabled() {
        arena.tracer = Tracer::enabled(0);
    }
    let mark0 = MemMark::of(&arena.stats);
    let stats0 = svc.stats().clone();
    let v0 = arena.clock.now_ns();
    let mut checks = Checks::default();
    // Last acknowledged bytes of the sampled tenants' roots.
    let stride = (sc.tenants / SAMPLED_TENANTS).max(1);
    let mut shadow: BTreeMap<(usize, String), Vec<u8>> = (0..sc.tenants)
        .step_by(stride)
        .take(SAMPLED_TENANTS)
        .flat_map(|t| (0..ROOTS_PER_TENANT).map(move |r| ((t, format!("r{r}")), first_value(t))))
        .collect();
    let mut pinned: Option<Pinned> = None;
    let mut next_pin = 0usize;

    while gen.next < gen.total {
        if gen.next > 0 && gen.next.is_multiple_of(SETUP_EVERY * BATCH) {
            drop(window.set_up(build));
        }
        let batch = gen.batch();
        let expects: Vec<Expect> = batch.iter().map(|(_, e, _)| *e).collect();
        let acked: Vec<(usize, String, Vec<u8>)> = batch
            .iter()
            .filter(|(_, e, t)| {
                *e == Expect::Put && t % stride == 0 && t / stride < SAMPLED_TENANTS
            })
            .map(|(cmd, _, t)| match cmd {
                ServiceCmd::Put { root, bytes, .. } => (*t, root.clone(), bytes.clone()),
                _ => unreachable!("Expect::Put is only paired with ServiceCmd::Put"),
            })
            .collect();

        let full = batch.len() == BATCH;
        window.resume();
        let op = spans.open(OP);
        let mut report = None;
        let last = batch.len() - 1;
        for (i, (cmd, _, _)) in batch.into_iter().enumerate() {
            // The service flushes on the command that fills the batch.
            let name = if full && i == last { "pm-rt.flush" } else { "pm-rt.submit" };
            report = spans.run(name, || svc.submit(&mut arena, cmd)).expect("batch-level failure");
        }
        if !full {
            report = Some(
                spans.run("pm-rt.flush", || svc.flush_batch(&mut arena)).expect("final flush"),
            );
        }
        spans.close(op);
        window.pause(if full { FULL_BATCH } else { LAST_BATCH }, true);

        let report = report.expect("the last command of a batch flushes it");
        checks.expect(report.replies.len() == expects.len(), || {
            format!("batch of {} commands got {} replies", expects.len(), report.replies.len())
        });
        for (reply, expect) in report.replies.iter().zip(&expects) {
            let ok = matches!(
                (reply, expect),
                (Ok(ServiceReply::Put), Expect::Put)
                    | (Ok(ServiceReply::Value(_)), Expect::Value)
                    | (Err(PmError::QuotaExceeded { .. }), Expect::Rejected)
            );
            checks.expect(ok, || format!("command got {reply:?}"));
        }
        if report.committed {
            for (t, root, bytes) in acked {
                shadow.insert((t, root), bytes);
            }
        }

        // Snapshot isolation: pin the hottest tenant, reread it later.
        if let Some(pin) = pinned.take_if(|pin| gen.next >= pin.reread_at) {
            window.resume();
            let again = spans.run("pm-rt.snapshot_reread", || read_all(&pin.snap, &mut arena));
            drop(pin.snap);
            spans.run("pm-rt.collect", || svc.collect(&mut arena));
            window.pause(REREAD, false);
            checks.expect(again.as_ref().is_ok_and(|a| *a == pin.seen), || {
                format!("pinned snapshot reread differs: {again:?}")
            });
        }
        if pinned.is_none() && gen.next >= next_pin && gen.next < gen.total {
            next_pin = gen.next + PIN_EVERY;
            window.resume();
            let snap = spans.run("pm-rt.snapshot_pin", || svc.snapshot(&mut arena, &gen.names[0]));
            let seen = snap.as_ref().map_err(Clone::clone).and_then(|s| read_all(s, &mut arena));
            window.pause(PIN, false);
            checks.expect(seen.is_ok(), || format!("snapshot pin: {:?}", seen.as_ref().err()));
            if let (Ok(snap), Ok(seen)) = (snap, seen) {
                pinned = Some(Pinned { snap, seen, reread_at: gen.next + PIN_SPAN });
            }
        }
    }
    drop(pinned);

    let mut p = Pass::new(window);
    p.checks = checks;
    p.units = sc.commands as u64;
    p.ops = sc.commands.div_ceil(BATCH) as u64;
    p.virt_ns = arena.clock.now_ns() - v0;
    let mark1 = MemMark::of(&arena.stats);
    p.nvbm_bytes = mark1.bytes_since(&mark0);
    let stats1 = svc.stats().clone();
    p.fingerprint = vec![
        stats1.commits,
        stats1.bytes_written,
        stats1.quota_rejections,
        p.virt_ns,
        shadow.len() as u64,
    ];
    let rejections = stats1.quota_rejections - stats0.quota_rejections;
    p.checks.expect(rejections == gen.oversized, || {
        format!("{rejections} quota rejections for {} oversized puts", gen.oversized)
    });

    if spans.enabled() {
        let commits = (stats1.commits - stats0.commits) as f64;
        let flushes = spans.durations_ms("pm-rt.flush");
        let l = &mut p.layer;
        l.insert("pm-rt.submit_us_p50", median(&spans.durations_ms("pm-rt.submit")) * 1e3);
        l.insert("pm-rt.flush_ms_p50", median(&flushes));
        l.insert("pm-rt.flush_ms_p99", percentile(&flushes, 99.0));
        l.insert(
            "pm-rt.bytes_per_commit",
            ratio((stats1.bytes_written - stats0.bytes_written) as f64, commits),
        );
        l.insert("pm-rt.quota_rejections", rejections as f64);
        l.insert("pm-rt.snapshot_pin_us", median(&spans.durations_ms("pm-rt.snapshot_pin")) * 1e3);
        l.insert(
            "pm-rt.snapshot_reread_us",
            median(&spans.durations_ms("pm-rt.snapshot_reread")) * 1e3,
        );
        l.insert(
            "host.flush_allocs_per_cmd",
            ratio(spans.allocs("pm-rt.flush") as f64, p.units as f64),
        );
        mark1.layer_since(&mark0, &arena.stats, l);
        journal_layer(&[arena.tracer.events()], l);
        let t = Instant::now();
        let restored = StateService::restore(&mut arena, scfg);
        l.insert("pm-rt.restore_ms", t.elapsed().as_secs_f64() * 1e3);
        p.checks
            .expect(restored.is_ok(), || format!("StateService::restore: {:?}", restored.err()));
        if let Ok(rt) = PmRt::restore(&mut arena) {
            l.insert("pm-rt.chain_len", rt.chain_len() as f64);
            l.insert("pm-rt.log_occupancy", rt.log_occupancy());
        }
        p.host_layer();
    }

    // Output checks: the committed image holds every tenant, and the
    // sampled tenants' roots hold the last acknowledged bytes.
    match StateService::audit(&mut arena) {
        Ok(image) => {
            p.checks.expect(image.len() == sc.tenants, || {
                format!("audit found {} tenants, {} registered", image.len(), sc.tenants)
            });
            for ((t, root), bytes) in &shadow {
                let got = image.get(&gen.names[*t]).and_then(|roots| roots.get(root));
                p.checks.expect(got == Some(bytes), || {
                    format!(
                        "{}/{root}: committed bytes differ from the last acknowledged put",
                        gen.names[*t]
                    )
                });
            }
        }
        Err(e) => p.checks.expect(false, || format!("StateService::audit: {e:?}")),
    }
    p
}
