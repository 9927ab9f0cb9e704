//! The executable specification of the runtime: one model, held to the
//! public API after every step of random stage / unregister / revert /
//! commit / pin / collect / service-batch / crash streams.
//!
//! The claim, as durable linearizability (NVTraverse): nothing staged is
//! reachable before the one sealed commit record that publishes a commit,
//! so a crash recovers the committed root map until that record's line is
//! on media, and the new one after. A commit inside an octree persist
//! publishes the same record as the tree, so the tree comes back with the
//! map it was published with. The model is two maps, name → bytes —
//! staged and committed — and for every live snapshot the committed
//! prefix view it pinned, plus the tree's committed root payload; a
//! service adds tenants (a prefix `t/` with a quota and a lineage), which
//! only batches write. A refusal (`Recovery` for a malformed name,
//! `QuotaExceeded`, `NotFound`, `Full`) stores nothing, and a commit or a
//! batch that fails changes nothing the API shows. DESIGN.md "The pm-rt
//! model" states the rules in full.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::sync::{Arc, Mutex};

use pm_octree::{CellData, PmConfig, PmOctree};
use pm_rt::rt::blob_footprint;
use pm_rt::{
    PmError, PmRt, ServiceCmd, ServiceConfig, ServiceReply, Snapshot, StateService, TenantHandle,
};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{
    CrashMode, CrashView, DeviceModel, FailPlan, NvbmArena, SparseMedia, HEADER_SIZE,
};
use proptest::prelude::*;

/// Names of runtime runs: the neighbourhood of the tenant prefix `a/` —
/// the bare tenant, its separator, names sorting just before and just
/// after its range, the highest code point — the empty name, and a
/// tenant component with a control character.
const NAMES: [&str; 15] = [
    "",
    "a",
    "a/",
    "a/x",
    "a/y",
    "a//",
    "a/\u{10ffff}",
    "a/\u{10ffff}z",
    "a0/x",
    "a.",
    "b",
    "b/",
    "b/x",
    "\u{10ffff}",
    "a\t/x",
];

const PREFIXES: [&str; 10] =
    ["", "a", "a/", "a//", "a/x", "a/\u{10ffff}", "a0", "b/", "c", "\u{10ffff}"];

/// Tenants: four well-formed names (one more than a service admits), then
/// three malformed ones.
const TENANTS: [&str; 7] = ["a", "a0", "b", "\u{10ffff}", "", "a/", "a\tb"];

/// Roots of service runs: three well-formed names, then three malformed.
const ROOTS: [&str; 6] = ["x", "y", "\u{10ffff}", "", "/", "\t"];

const QUOTAS: [Option<u64>; 4] = [None, Some(0), Some(256), Some(2048)];

/// The labels of a batch flush, in protocol order; a commit's are the
/// last four.
const LABELS: [&str; 5] =
    ["svc::commit_batch", "wear::relocate", "heap::compact", "heap::append", "rt::commit"];

/// What a call came to, or the kind of its error.
type Said<T> = Result<T, &'static str>;

/// An op's answer: a count (a removal's `bool` as 0/1, a revert's roots,
/// 0 for anything else).
type Outcome = Said<usize>;

const FULL: &str = "full";

fn kind(e: &PmError) -> &'static str {
    match e {
        PmError::NotFound(_) => "not-found",
        PmError::Recovery(_) => "recovery",
        PmError::QuotaExceeded(_) => "quota",
        PmError::Full(_) => FULL,
        other => panic!("a call failed with {other}"),
    }
}

/// A name component a tenant handle or the service accepts.
fn valid(s: &str) -> bool {
    !s.is_empty() && !s.contains('/') && !s.chars().any(char::is_control)
}

/// A `Vec<u8>` encodes as a u64 length plus its bytes.
fn footprint(v: &[u8]) -> u64 {
    blob_footprint(8 + v.len()) as u64
}

fn payload(len: usize, salt: u64) -> Vec<u8> {
    (0..len).map(|j| (j as u64 ^ salt) as u8).collect()
}

#[derive(Clone, Debug, Default)]
struct Model {
    staged: BTreeMap<String, Vec<u8>>,
    committed: BTreeMap<String, Vec<u8>>,
    /// Names staged or unregistered since the last commit.
    dirty: BTreeSet<String>,
    epoch: u64,
    /// Service runs: tenant → (quota, lineage), now and as last published.
    tenants: BTreeMap<String, (u64, u64)>,
    published: BTreeMap<String, (u64, u64)>,
    /// The root payload (`phi`) of the tree the commit record names.
    tree: f64,
}

impl Model {
    fn under<'a>(
        map: &'a BTreeMap<String, Vec<u8>>,
        p: &'a str,
    ) -> impl Iterator<Item = (&'a String, &'a Vec<u8>)> {
        map.iter().filter(move |(n, _)| n.starts_with(p))
    }

    fn usage(&self, p: &str) -> u64 {
        Self::under(&self.staged, p).map(|(_, v)| footprint(v)).sum()
    }

    fn names<'a>(&'a self, p: &'a str) -> Vec<&'a str> {
        Self::under(&self.staged, p).map(|(n, _)| n.as_str()).collect()
    }

    /// The committed names under `p` with `p` stripped: what a snapshot
    /// of `p` pins.
    fn pinned(&self, p: &str) -> BTreeMap<String, Vec<u8>> {
        Self::under(&self.committed, p)
            .map(|(n, v)| (n[p.len()..].to_string(), v.clone()))
            .collect()
    }

    fn stage(&mut self, name: &str, v: Vec<u8>) {
        self.staged.insert(name.to_string(), v);
        self.dirty.insert(name.to_string());
    }

    fn unregister(&mut self, name: &str) -> bool {
        let had = self.staged.remove(name).is_some();
        if had {
            self.dirty.insert(name.to_string());
        }
        had
    }

    fn revert(&mut self, p: &str) -> usize {
        let n = self.dirty.iter().filter(|n| n.starts_with(p)).count();
        self.dirty.retain(|n| !n.starts_with(p));
        self.staged.retain(|n, _| !n.starts_with(p));
        let kept = Self::under(&self.committed, p).map(|(n, v)| (n.clone(), v.clone()));
        self.staged.extend(kept.collect::<Vec<_>>());
        n
    }

    fn commit(&mut self) {
        self.committed = self.staged.clone();
        self.published = self.tenants.clone();
        self.dirty.clear();
        self.epoch += 1;
    }

    /// A reboot, or a failed batch: what was published is all there is.
    fn reboot(&mut self) {
        self.staged = self.committed.clone();
        self.tenants = self.published.clone();
        self.dirty.clear();
    }

    fn query(&self, t: &str, root: &str) -> Said<ServiceReply> {
        self.tenants.get(t).ok_or("not-found")?;
        Ok(ServiceReply::Value(self.staged.get(&format!("{t}/{root}")).cloned()))
    }

    /// One service command, as `StateService::flush_batch` must apply it.
    fn cmd(&mut self, cmd: &ServiceCmd, cfg: &ServiceConfig) -> Said<ServiceReply> {
        let t = cmd.tenant();
        let prefix = format!("{t}/");
        Ok(match cmd {
            ServiceCmd::Create { quota, .. } => {
                let quota = quota.unwrap_or(cfg.default_quota);
                if !valid(t)
                    || self.tenants.contains_key(t)
                    || self.tenants.len() >= cfg.max_tenants
                    || quota == 0
                {
                    return Err("recovery");
                }
                self.tenants.insert(t.to_string(), (quota, 0));
                ServiceReply::Created
            }
            ServiceCmd::Put { root, bytes, .. } => {
                let quota = self.tenants.get(t).ok_or("not-found")?.0;
                if !valid(root) {
                    return Err("recovery");
                }
                let name = format!("{prefix}{root}");
                let old = self.staged.get(&name).map_or(0, |v| footprint(v));
                if self.usage(&prefix) - old + footprint(bytes) > quota {
                    return Err("quota");
                }
                self.stage(&name, bytes.clone());
                ServiceReply::Put
            }
            ServiceCmd::Commit { .. } => {
                let rec = self.tenants.get_mut(t).ok_or("not-found")?;
                rec.1 += 1;
                ServiceReply::Committed { lineage: rec.1 }
            }
            ServiceCmd::Restore { .. } => {
                self.tenants.get(t).ok_or("not-found")?;
                ServiceReply::Restored { reverted: self.revert(&prefix) }
            }
            ServiceCmd::Query { root, .. } => return self.query(t, root),
            ServiceCmd::Destroy { .. } => {
                self.tenants.remove(t).ok_or("not-found")?;
                let names: Vec<String> =
                    self.names(&prefix).into_iter().map(String::from).collect();
                for n in names {
                    self.unregister(&n);
                }
                ServiceReply::Destroyed
            }
        })
    }

    /// What the public API must answer, one line per question.
    fn view(&self, svc: bool) -> Vec<String> {
        let mut v = vec![format!("epoch {}", self.epoch)];
        if svc {
            v.push(format!("tenants {:?}", self.tenants.keys().collect::<Vec<_>>()));
            for t in TENANTS {
                let quota = self.tenants.get(t).map(|r| r.0);
                v.push(format!("{t:?}: quota {quota:?}, {} B", self.usage(&format!("{t}/"))));
                for r in ROOTS {
                    v.push(format!("query {t:?} {r:?}: {:?}", self.query(t, r)));
                }
            }
        } else {
            v.push(format!("names {:?} ({})", self.names(""), self.staged.len()));
            for p in PREFIXES {
                v.push(format!("prefix {p:?}: {:?}, {} B", self.names(p), self.usage(p)));
            }
            for n in NAMES {
                v.push(format!("load {n:?}: {:?}", self.staged.get(n)));
            }
            for t in &TENANTS[..4] {
                v.push(self.tenant_line(t));
            }
        }
        v
    }

    fn tenant_line(&self, t: &str) -> String {
        let p = format!("{t}/");
        let roots: Vec<&str> = self.names(&p).into_iter().map(|n| &n[p.len()..]).collect();
        format!("handle {t:?}: {roots:?}, {} B, epoch {}", self.usage(&p), self.epoch)
    }
}

fn handle_line(t: &str, h: &TenantHandle<'_>) -> String {
    format!("handle {t:?}: {:?}, {} B, epoch {}", h.roots(), h.usage(), h.epoch())
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Stage,
    Unregister,
    Revert,
    Pin,
}

/// A handle's answer to an op on a malformed root, which never reaches
/// the runtime.
fn malformed(kind: Kind, root: &str) -> Option<Outcome> {
    match kind {
        _ if valid(root) => None,
        Kind::Stage => Some(Err("recovery")),
        Kind::Unregister => Some(Ok(0)),
        Kind::Revert | Kind::Pin => None,
    }
}

/// One op through a tenant handle, or the error that refused the handle.
fn via(
    h: Result<TenantHandle<'_>, PmError>,
    kind: Kind,
    root: &str,
    v: Vec<u8>,
) -> (Outcome, Option<Snapshot>) {
    let mut h = match h {
        Ok(h) => h,
        Err(e) => return (Err(self::kind(&e)), None),
    };
    match kind {
        Kind::Stage => (h.put(root, &v).map(|_| 0).map_err(|e| self::kind(&e)), None),
        Kind::Unregister => (Ok(h.remove(root) as usize), None),
        Kind::Revert => (Ok(h.revert()), None),
        Kind::Pin => (Ok(0), Some(h.snapshot())),
    }
}

/// A crash inside a commit or a batch flush: at a protocol label, or else
/// at its n-th crash opportunity (just after the call when it has fewer).
type Aim = Option<(Option<&'static str>, u64, CrashMode)>;

/// The octree sharing the runtime's device: no DRAM tier, no
/// transformation — a root whose payload each combined commit sets.
fn tree_cfg() -> PmConfig {
    PmConfig { seed_c0: false, dynamic_transform: false, ..PmConfig::default() }
}

/// `PmRt::commit`; `None` in a service run, which commits by batch.
fn commit_sys(sys: &mut Sys, arena: &mut NvbmArena) -> Option<Result<Vec<(u64, u32)>, PmError>> {
    match sys {
        Sys::Rt(rt) => Some(rt.commit(arena)),
        Sys::Svc(_) => None,
    }
}

#[derive(Clone, Debug)]
enum Step {
    /// A run of one kind of op on picks `(index, length)`: through the raw
    /// `PmRt` calls or (`true`) the tenant handles. A service run, which
    /// writes only by batch, runs the pins, through
    /// `StateService::snapshot`.
    Run(Kind, Vec<(usize, usize)>, bool),
    /// `PmRt::commit` (none in a service run). Inside an octree persist
    /// that sets the tree's root payload first (`true`).
    Commit(Aim, bool),
    /// Service runs: commands, submitted, then one flush.
    Batch(Vec<ServiceCmd>, Aim),
    Unpin(usize),
    Collect,
    /// A crash between two steps.
    Crash(CrashMode),
}

enum Sys {
    Rt(PmRt),
    Svc(StateService),
}

struct Harness {
    arena: NvbmArena,
    sys: Sys,
    m: Model,
    /// Live snapshots, each with its epoch and the view it pinned.
    pins: Vec<(Snapshot, u64, BTreeMap<String, Vec<u8>>)>,
    filling: bool,
    /// Calls the device refused as `Full` so far.
    fulls: usize,
}

impl Harness {
    fn new(svc: bool, filling: bool) -> Self {
        let device =
            NvbmArena::new(if filling { 64 << 10 } else { 1 << 20 }, DeviceModel::default());
        let mut arena = PmOctree::create(device, tree_cfg()).store.arena;
        // `create` commits once; a service commits its empty registry too.
        let (sys, epoch) = if svc {
            let cfg = ServiceConfig::builder().max_tenants(3).batch_capacity(64).build().unwrap();
            (Sys::Svc(StateService::create(&mut arena, cfg).unwrap()), 2)
        } else {
            (Sys::Rt(PmRt::create(&mut arena).unwrap()), 1)
        };
        let m = Model { epoch, ..Model::default() };
        Harness { arena, sys, m, pins: Vec::new(), filling, fulls: 0 }
    }

    fn svc(&self) -> bool {
        matches!(self.sys, Sys::Svc(..))
    }

    /// A `Full` is the one answer the model cannot predict: only a filling
    /// device may give it, and only where the model succeeds.
    fn agree<T: PartialEq + Debug>(&mut self, got: &Said<T>, want: &Said<T>, what: impl Debug) {
        if *got == Err(FULL) {
            assert!(self.filling && want.is_ok(), "{what:?}: full, want {want:?}");
            self.fulls += 1;
        } else {
            assert_eq!(got, want, "{what:?}");
        }
    }

    /// Everything the public API answers about the current state.
    fn view(&mut self) -> Vec<String> {
        let arena = &mut self.arena;
        match &mut self.sys {
            Sys::Rt(rt) => {
                let mut v = vec![format!("epoch {}", rt.epoch())];
                v.push(format!("names {:?} ({})", rt.names().collect::<Vec<_>>(), rt.len()));
                for p in PREFIXES {
                    let names: Vec<&str> = rt.names_with_prefix(p).collect();
                    v.push(format!("prefix {p:?}: {names:?}, {} B", rt.prefix_usage(p)));
                }
                for n in NAMES {
                    v.push(format!("load {n:?}: {:?}", rt.load::<Vec<u8>>(arena, n).unwrap()));
                }
                for t in &TENANTS[..4] {
                    v.push(handle_line(t, &rt.session(arena).tenant(t).unwrap()));
                }
                v
            }
            Sys::Svc(svc) => {
                let mut v = vec![format!("epoch {}", svc.epoch())];
                v.push(format!("tenants {:?}", svc.tenants().collect::<Vec<_>>()));
                for t in TENANTS {
                    for r in ROOTS {
                        let cmd = ServiceCmd::Query { tenant: t.into(), root: r.into() };
                        assert!(svc.submit(arena, cmd).unwrap().is_none());
                    }
                }
                let report = svc.flush_batch(arena).unwrap();
                assert!(!report.committed, "a read-only batch publishes nothing");
                let mut replies = report.replies.into_iter();
                for t in TENANTS {
                    v.push(format!("{t:?}: quota {:?}, {} B", svc.quota(t), svc.usage(t)));
                    for r in ROOTS {
                        let reply = replies.next().unwrap().map_err(|e| kind(&e));
                        v.push(format!("query {t:?} {r:?}: {reply:?}"));
                    }
                }
                v
            }
        }
    }

    /// After every step: every answer equals the model's, and every live
    /// snapshot rereads what it pinned.
    fn check(&mut self) {
        let want = self.m.view(self.svc());
        assert_eq!(self.view(), want);
        let Harness { arena, pins, .. } = self;
        for (snap, epoch, want) in pins.iter() {
            assert!(snap.is_live());
            assert_eq!(snap.epoch(), *epoch);
            let got: BTreeMap<String, Vec<u8>> = snap
                .names()
                .map(|n| (n.to_string(), snap.get(arena, n).unwrap().expect("pinned name")))
                .collect();
            assert_eq!(&got, want, "snapshot of epoch {epoch}");
        }
    }

    /// One op of a run. A refusal must store nothing.
    fn op(&mut self, kind: Kind, (i, len): (usize, usize), handles: bool, salt: u64) {
        let v = payload(len, salt);
        self.arena.set_fail_plan(FailPlan::count());
        let arena = &mut self.arena;
        // The model's name and the scope of a revert or pin, and the
        // answer when the call never reaches the runtime: a malformed
        // name, or a tenant the service does not know.
        let (got, pin, name, scope, answer) = match &mut self.sys {
            Sys::Rt(rt) if handles => {
                let name = NAMES[i % NAMES.len()];
                let (t, root) = name.split_once('/').unwrap_or((name, ""));
                let (got, pin) = via(rt.session(arena).tenant(t), kind, root, v.clone());
                let answer = if valid(t) { malformed(kind, root) } else { Some(Err("recovery")) };
                (got, pin, name.to_string(), format!("{t}/"), answer)
            }
            Sys::Rt(rt) => {
                let (name, p) = (NAMES[i % NAMES.len()], PREFIXES[i % PREFIXES.len()]);
                let (got, pin) = match kind {
                    Kind::Stage => {
                        (rt.stage(arena, name, &v).map(|_| 0).map_err(|e| self::kind(&e)), None)
                    }
                    Kind::Unregister => (Ok(rt.unregister(name) as usize), None),
                    Kind::Revert => (Ok(rt.revert_staged_prefix(p)), None),
                    Kind::Pin if p.is_empty() => (Ok(0), Some(rt.snapshot(arena))),
                    Kind::Pin => (Ok(0), Some(rt.snapshot_prefix(arena, p))),
                };
                (got, pin, name.to_string(), p.to_string(), None)
            }
            Sys::Svc(svc) if kind == Kind::Pin => {
                let t = TENANTS[i % TENANTS.len()];
                let (got, pin) = match svc.snapshot(arena, t) {
                    Ok(snap) => (Ok(0), Some(snap)),
                    Err(e) => (Err(self::kind(&e)), None),
                };
                let answer = (!self.m.tenants.contains_key(t)).then_some(Err("not-found"));
                (got, pin, String::new(), format!("{t}/"), answer)
            }
            Sys::Svc(_) => {
                arena.take_fail_plan();
                return;
            }
        };
        let stores = self.arena.take_fail_plan().unwrap().opportunities();
        let m = &mut self.m;
        let want = answer.unwrap_or_else(|| match kind {
            Kind::Stage if got != Err(FULL) => {
                m.stage(&name, v);
                Ok(0)
            }
            Kind::Unregister => Ok(m.unregister(&name) as usize),
            Kind::Revert => Ok(m.revert(&scope)),
            Kind::Stage | Kind::Pin => Ok(0),
        });
        self.agree(&got, &want, (kind, &name, &scope));
        if got.is_err() {
            assert_eq!(stores, 0, "{kind:?} {name:?} was refused but stored");
        }
        if let Some(snap) = pin {
            self.pins.push((snap, self.m.epoch, self.m.pinned(&scope)));
        }
    }

    /// Run `f` on the tree the device's commit record names, restored for
    /// the call; the device comes back out of it afterwards.
    fn with_tree<R>(&mut self, f: impl FnOnce(&mut PmOctree, &mut Sys) -> R) -> R {
        let placeholder = NvbmArena::new(HEADER_SIZE as usize, DeviceModel::default());
        let arena = std::mem::replace(&mut self.arena, placeholder);
        let mut t = PmOctree::restore(arena, tree_cfg()).expect("the record names a tree");
        let r = f(&mut t, &mut self.sys);
        self.arena = t.store.arena;
        r
    }

    /// A commit, alone or (`in_persist`) as the hook of an octree persist
    /// that sets the tree's root payload to the next value first; whether
    /// the runtime published.
    fn commit(&mut self, in_persist: bool) -> bool {
        let said = if in_persist {
            let phi = self.m.tree + 1.0;
            let (said, set) = self.with_tree(|t, sys| {
                let set = t.set_data(OctKey::root(), CellData { phi, ..CellData::default() });
                let mut said = None;
                let persisted = t.persist_with_hook(&mut |arena| {
                    said = commit_sys(sys, arena);
                    said.clone().unwrap_or_else(|| Ok(Vec::new()))
                });
                (said, set.is_ok() && persisted.is_ok())
            });
            if set {
                self.m.tree = phi;
            }
            said
        } else {
            commit_sys(&mut self.sys, &mut self.arena)
        };
        match &said {
            Some(Ok(_)) => self.m.commit(),
            Some(Err(e)) => self.agree(&Err(kind(e)), &Ok(()), "commit"),
            None => {}
        }
        matches!(said, Some(Ok(_)))
    }

    /// One batch: submit, flush, and hold every reply to the model's.
    /// Returns whether a command changed something (and so the batch
    /// published), or `None` when the flush failed.
    fn batch(&mut self, cmds: &[ServiceCmd]) -> Option<bool> {
        let Sys::Svc(svc) = &mut self.sys else { return Some(false) };
        for cmd in cmds {
            assert!(svc.submit(&mut self.arena, cmd.clone()).unwrap().is_none());
        }
        let cfg = svc.config().clone();
        let report = match svc.flush_batch(&mut self.arena) {
            Ok(report) => report,
            Err(e) => {
                self.agree(&Err(kind(&e)), &Ok(()), "flush");
                self.m.reboot();
                return None;
            }
        };
        assert_eq!(report.replies.len(), cmds.len());
        let mut changed = false;
        for (cmd, got) in cmds.iter().zip(&report.replies) {
            let got = got.clone().map_err(|e| kind(&e));
            let want = if got == Err(FULL) {
                self.m.clone().cmd(cmd, &cfg)
            } else {
                self.m.cmd(cmd, &cfg)
            };
            self.agree(&got, &want, cmd);
            // Anything but a refusal or a query changes something.
            changed |= matches!(got, Ok(ref r) if !matches!(r, ServiceReply::Value(_)));
        }
        if changed {
            self.m.commit();
        }
        assert_eq!((report.committed, report.epoch), (changed, self.m.epoch));
        Some(changed)
    }

    /// Run `call` — a commit or a flush that returns whether the runtime
    /// published — and crash where `aim` says, or just after it. The map
    /// (and the tree) come back as the commit record names them: the
    /// committed ones until the record's line is on media, the new ones
    /// after. At or before `heap::append` that is the committed map, at or
    /// after `rt::commit` the new one, and between them the record line is
    /// stored and written back, so the crash image's record decides. A
    /// persist whose hook published nothing has that window between
    /// `persist::flush` and `persist::root_swap`.
    fn crash_in(
        &mut self,
        (label, n, mode): (Option<&'static str>, u64, CrashMode),
        call: impl FnOnce(&mut Self) -> bool,
    ) {
        let old = self.m.clone();
        let before = self.arena.committed();
        let captured = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&captured);
        self.arena.set_fail_plan(FailPlan::with_hook(Box::new(move |v: &CrashView<'_>| {
            let hit = if label.is_some() { v.label == label } else { v.opportunity == n };
            if hit {
                sink.lock().unwrap().get_or_insert_with(|| (v.image(mode), v.opportunity));
            }
        })));
        let published = call(self);
        let plan = self.arena.take_fail_plan().unwrap();
        let at = |l: &str| plan.labels().iter().find(|(_, x)| *x == l).map(|&(o, _)| o);
        if published {
            for l in &LABELS[1..] {
                assert!(at(l).is_some(), "a commit that published fired no {l}");
            }
        }
        let Some((image, op)) = captured.lock().unwrap().take() else {
            return self.crash_now(mode);
        };
        let new = self.arena.committed();
        let (last_old, first_new) = if published {
            ("heap::append", "rt::commit")
        } else {
            ("persist::flush", "persist::root_swap")
        };
        let recovers_new = new != before
            && match (at(last_old), at(first_new)) {
                (Some(a), _) if op <= a => false,
                (_, Some(c)) if op >= c => true,
                _ => {
                    NvbmArena::from_media(image.clone(), DeviceModel::default()).committed() == new
                }
            };
        self.reboot(image, recovers_new, old);
    }

    fn crash_now(&mut self, mode: CrashMode) {
        self.arena.crash(mode);
        let image = self.arena.clone_media();
        self.reboot(image, true, self.m.clone());
    }

    /// Reboot on `image`, which holds the model's committed map and tree
    /// (`recovers_new`) or `old`'s: every snapshot is gone, and the stream
    /// carries on on the restored runtime.
    fn reboot(&mut self, image: SparseMedia, recovers_new: bool, mut old: Model) {
        self.arena.restore_media(&image);
        for (snap, ..) in self.pins.drain(..) {
            assert!(!snap.is_live());
            assert!(matches!(snap.get_bytes(&mut self.arena, ""), Err(PmError::SnapshotGone(_))));
        }
        self.sys = match &self.sys {
            Sys::Svc(svc) => {
                Sys::Svc(StateService::restore(&mut self.arena, svc.config().clone()).unwrap())
            }
            Sys::Rt(_) => Sys::Rt(PmRt::restore(&mut self.arena).unwrap()),
        };
        self.m.reboot();
        if !recovers_new {
            old.reboot();
            self.m = old;
        }
        let tree = self.with_tree(|t, _| t.get_data(OctKey::root()).map(|d| d.phi));
        assert_eq!(tree, Some(self.m.tree), "the tree came back with another map");
    }

    fn step(&mut self, step: &Step, salt: u64) {
        match *step {
            Step::Run(kind, ref picks, handles) => {
                for (j, &pick) in picks.iter().enumerate() {
                    self.op(kind, pick, handles, salt ^ j as u64);
                }
            }
            Step::Commit(None, in_persist) => {
                self.commit(in_persist);
            }
            Step::Commit(Some(aim), in_persist) => self.crash_in(aim, |h| h.commit(in_persist)),
            Step::Batch(ref cmds, Some(aim)) => self.crash_in(aim, |h| h.batch(cmds) == Some(true)),
            Step::Batch(ref cmds, None) => {
                self.arena.set_fail_plan(FailPlan::count());
                let changed = self.batch(cmds);
                let stores = self.arena.take_fail_plan().unwrap().opportunities();
                assert!(changed != Some(false) || stores == 0, "a refused batch stored");
            }
            Step::Unpin(i) => {
                if !self.pins.is_empty() {
                    let i = i % self.pins.len();
                    self.pins.remove(i);
                }
            }
            Step::Collect => {
                match &mut self.sys {
                    Sys::Rt(rt) => rt.collect(&mut self.arena),
                    Sys::Svc(svc) => svc.collect(&mut self.arena),
                };
            }
            Step::Crash(mode) => self.crash_now(mode),
        }
    }
}

fn run(svc: bool, filling: bool, steps: &[Step]) {
    let mut h = Harness::new(svc, filling);
    h.check();
    if svc {
        // Two tenants to start with: "a" on the default quota, "a0" on 256 B.
        let create = |t: &str, quota| ServiceCmd::Create { tenant: t.into(), quota };
        h.step(&Step::Batch(vec![create("a", None), create("a0", Some(256))], None), 0);
        h.check();
    }
    // A filling device starts full: writes, each published and pinned
    // (the whole table; tenant "a"), until one is refused, then smaller
    // ones, down to the last bytes a commit record needs.
    for len in [4000, 1000, 250, 60, 0].into_iter().filter(|_| filling) {
        let (fulls, mut k) = (h.fulls, 0);
        while h.fulls == fulls {
            k += 1;
            if svc {
                let root = ROOTS[k % 3].into();
                let put =
                    ServiceCmd::Put { tenant: "a".into(), root, bytes: payload(len, k as u64) };
                h.step(&Step::Batch(vec![put], None), 0);
            } else {
                h.step(&Step::Run(Kind::Stage, vec![(k, len)], false), k as u64);
                h.step(&Step::Commit(None, k % 2 == 0), 0);
            }
            h.step(&Step::Run(Kind::Pin, vec![(0, 0)], false), 0);
            h.check();
        }
    }
    for (i, step) in steps.iter().enumerate() {
        h.step(step, i as u64 * 0x9E37_79B9);
        h.check();
    }
}

fn arb_mode() -> impl Strategy<Value = CrashMode> {
    (0u8..3, any::<u64>(), 0.0f64..=1.0).prop_map(|(m, seed, p)| match m {
        0 => CrashMode::LoseDirty,
        1 => CrashMode::CommitRandom { p, seed },
        _ => CrashMode::TornWrite { seed },
    })
}

fn arb_aim() -> impl Strategy<Value = Aim> {
    let label =
        prop_oneof![2 => Just(None), 1 => prop::sample::select(LABELS.to_vec()).prop_map(Some)];
    prop_oneof![Just(None), (label, 0u64..32, arb_mode()).prop_map(Some)]
}

/// Streams with payloads of up to `max_len` bytes.
fn arb_steps(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    let kind = prop_oneof![
        5 => Just(Kind::Stage),
        2 => Just(Kind::Unregister),
        2 => Just(Kind::Revert),
        1 => Just(Kind::Pin),
    ];
    // Half of the payloads small, so a ring that refused a large one
    // still fills to the last bytes a commit record needs.
    let len = || prop_oneof![0usize..64, 0..max_len];
    let picks = prop::collection::vec((0usize..4096, len()), 1..5);
    // Mostly the two tenants a service run starts with.
    let tenant = || {
        prop_oneof![3 => 0usize..2, 1 => 0..TENANTS.len()].prop_map(|t| String::from(TENANTS[t]))
    };
    let root = || prop::sample::select(ROOTS.to_vec()).prop_map(String::from);
    let cmd = prop_oneof![
        2 => (tenant(), prop::sample::select(QUOTAS.to_vec()))
            .prop_map(|(tenant, quota)| ServiceCmd::Create { tenant, quota }),
        5 => (tenant(), root(), len(), any::<u64>()).prop_map(|(tenant, root, len, salt)| {
            ServiceCmd::Put { tenant, root, bytes: payload(len, salt) }
        }),
        1 => tenant().prop_map(|tenant| ServiceCmd::Commit { tenant }),
        1 => tenant().prop_map(|tenant| ServiceCmd::Restore { tenant }),
        1 => (tenant(), root()).prop_map(|(tenant, root)| ServiceCmd::Query { tenant, root }),
        1 => tenant().prop_map(|tenant| ServiceCmd::Destroy { tenant }),
    ];
    let cmds = prop::collection::vec(cmd, 1..8);
    prop::collection::vec(
        prop_oneof![
            10 => (kind, picks, any::<bool>()).prop_map(|(k, p, h)| Step::Run(k, p, h)),
            3 => (arb_aim(), any::<bool>()).prop_map(|(aim, p)| Step::Commit(aim, p)),
            6 => (cmds, arb_aim()).prop_map(|(c, aim)| Step::Batch(c, aim)),
            1 => (0usize..8).prop_map(Step::Unpin),
            1 => Just(Step::Collect),
            1 => arb_mode().prop_map(Step::Crash),
        ],
        0..48,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_runtime_is_the_model(steps in arb_steps(200)) {
        run(false, false, &steps);
    }

    #[test]
    fn on_a_filling_device_the_runtime_is_the_model(steps in arb_steps(16_000)) {
        run(false, true, &steps);
    }

    #[test]
    fn the_service_is_the_model(steps in arb_steps(300)) {
        run(true, false, &steps);
    }

    #[test]
    fn on_a_filling_device_the_service_is_the_model(steps in arb_steps(16_000)) {
        run(true, true, &steps);
    }
}
