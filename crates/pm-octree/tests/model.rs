//! The executable specification of the PM-octree: one model, held to the
//! public API after every step of random op / sweep / persist / crash
//! streams.
//!
//! The paper promises that at least one complete version is always
//! consistent. Stated as durable linearizability (NVTraverse): nothing an
//! op stores is reachable before its one publication link store or the
//! persist's commit record, so a crash recovers `V_{i-1}` until that
//! record's line is on media and `V_i` after — at or before
//! `persist::flush` `V_{i-1}`, from `persist::root_swap` on `V_i`, and in
//! between, where the line is stored and written back, whichever version
//! the crash image's record names. The model is that statement made
//! executable: a map from every octant key of `V_i` to its payload, and
//! the `V_{i-1}` copy taken at each persist.
//!
//! * Refine(k): absent → `NotFound`; interior, or a leaf at `MAX_LEVEL`
//!   → `NotALeaf`; otherwise 8 children inheriting k's payload.
//! * Coarsen(k): absent → `NotFound`; a leaf → `NotALeaf`; an interior
//!   child → `NotCoarsenable`; otherwise the children go and k takes
//!   their mean, summed as `d / 8.0` in slot order.
//! * Set-data(k, d): absent → `NotFound`; any octant takes `d`.
//! * A full device (`Full`) leaves the model as it was.
//! * `update_leaves(f)`: `f` applied to every leaf. It publishes
//!   nothing, so a crash at any of its crash opportunities, under any
//!   crash mode, recovers `V_{i-1}` exactly — whatever the sweep stored
//!   and whatever it still owed.
//!
//! A refusal stores nothing: no crash opportunity fires, nothing is
//! allocated, no DRAM subtree moves.

mod common;

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use common::{crash_in, crash_in_persist, PHASES};
use pm_octree::{
    check_invariants, check_registry, mark, CellData, PmConfig, PmError, PmOctree, OCTANT_SIZE,
};
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{CrashMode, CrashView, DeviceModel, FailPlan, NvbmArena, HEADER_SIZE};
use proptest::prelude::*;

/// What an op came to: `Ok`, or the kind of its error.
type Outcome = Result<(), &'static str>;

const FULL: Outcome = Err("full");

fn outcome(r: Result<(), PmError>) -> Outcome {
    r.map_err(|e| match e {
        PmError::NotFound(_) => "not-found",
        PmError::NotALeaf(_) => "not-a-leaf",
        PmError::NotCoarsenable(_) => "not-coarsenable",
        PmError::Full(_) => "full",
        other => panic!("an op failed with {other}"),
    })
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Refine(OctKey),
    Coarsen(OctKey),
    SetData(OctKey, CellData),
}

#[derive(Clone, Debug)]
struct Model {
    /// Every octant of `V_i`, with its payload.
    tree: BTreeMap<OctKey, CellData>,
    /// `V_{i-1}`: the tree as of the last persist.
    persisted: BTreeMap<OctKey, CellData>,
    /// Keys written since the last persist or restore: root..k of every
    /// successful op, a refine's 8 new children, root..leaf of every leaf
    /// a sweep rewrites. Without a DRAM tier these are exactly the octants
    /// of `V_i` a persist's census finds not shared with `V_{i-1}`.
    written: BTreeSet<OctKey>,
}

impl Model {
    fn new() -> Self {
        let tree = BTreeMap::from([(OctKey::root(), CellData::default())]);
        Model { persisted: tree.clone(), tree, written: BTreeSet::new() }
    }

    /// `Some(leaf?)` for an octant of `V_i`, `None` for any other key.
    fn is_leaf(&self, k: OctKey) -> Option<bool> {
        self.tree.get(&k)?;
        Some(k.level() == OctKey::MAX_LEVEL || !self.tree.contains_key(&k.child(0)))
    }

    fn leaves(&self) -> Vec<(OctKey, CellData)> {
        self.tree
            .iter()
            .filter(|(k, _)| self.is_leaf(**k) == Some(true))
            .map(|(k, d)| (*k, *d))
            .collect()
    }

    /// The leaf whose region holds `k`; `None` when `k` is interior.
    fn containing_leaf(&self, k: OctKey) -> Option<OctKey> {
        let deepest = k.path_from_root().into_iter().rev().find(|a| self.tree.contains_key(a))?;
        (self.is_leaf(deepest) == Some(true)).then_some(deepest)
    }

    /// The keys every check reads: every octant (the root among them) and
    /// a child of every leaf.
    fn probes(&self) -> Vec<OctKey> {
        let below = self.leaves().into_iter().filter(|(k, _)| k.level() < OctKey::MAX_LEVEL);
        let below: Vec<OctKey> = below.map(|(k, _)| k.child(k.level() as usize % 8)).collect();
        self.tree.keys().copied().chain(below).collect()
    }

    fn wrote(&mut self, k: OctKey) {
        self.written.extend(k.path_from_root());
    }

    fn apply(&mut self, op: Op) -> Outcome {
        match op {
            Op::Refine(k) => {
                match self.is_leaf(k) {
                    None => return Err("not-found"),
                    Some(false) => return Err("not-a-leaf"),
                    Some(true) if k.level() == OctKey::MAX_LEVEL => return Err("not-a-leaf"),
                    Some(true) => {}
                }
                let d = self.tree[&k];
                self.tree.extend(k.children().map(|c| (c, d)));
                self.written.extend(k.children());
            }
            Op::Coarsen(k) => {
                match self.is_leaf(k) {
                    None => return Err("not-found"),
                    Some(true) => return Err("not-a-leaf"),
                    Some(false) if k.children().any(|c| self.is_leaf(c) == Some(false)) => {
                        return Err("not-coarsenable")
                    }
                    Some(false) => {}
                }
                let kids: Vec<CellData> =
                    k.children().filter_map(|c| self.tree.remove(&c)).collect();
                let mean = |f: fn(&CellData) -> f64| kids.iter().fold(0.0, |m, d| m + f(d) / 8.0);
                let d = CellData {
                    phi: mean(|d| d.phi),
                    pressure: mean(|d| d.pressure),
                    vof: mean(|d| d.vof),
                    work: mean(|d| d.work),
                };
                self.tree.insert(k, d);
            }
            Op::SetData(k, d) => *self.tree.get_mut(&k).ok_or("not-found")? = d,
        }
        let (Op::Refine(k) | Op::Coarsen(k) | Op::SetData(k, _)) = op;
        self.wrote(k);
        Ok(())
    }

    /// The model's outcome of `op`, applied only if the tree's op
    /// succeeded (`kept`): a tree whose device is full leaves the model
    /// where it was.
    fn follow(&mut self, op: Op, kept: bool) -> Outcome {
        if kept {
            self.apply(op)
        } else {
            self.clone().apply(op)
        }
    }

    fn update_leaves(&mut self, f: impl Fn(OctKey, &CellData) -> Option<CellData>) {
        for (k, d) in self.leaves() {
            if let Some(new) = f(k, &d) {
                self.tree.insert(k, new);
                self.wrote(k);
            }
        }
    }

    fn persist(&mut self) {
        self.persisted = self.tree.clone();
        self.written.clear();
    }

    /// A crash: the tree comes back as `V_i` once the commit record naming
    /// it is on media (`recovers_new`), as `V_{i-1}` before.
    fn crash(&mut self, recovers_new: bool) {
        if !recovers_new {
            self.tree = self.persisted.clone();
        }
        self.persist();
    }
}

/// The three tier configurations of an op stream, and a device with no
/// room to spare.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tier {
    /// No DRAM tier at all: the census is exact. With a remote replica.
    NvbmOnly,
    /// A DRAM tier evicting above ⌊18 × 0.9⌋ = 16 octants.
    C0Pressure,
    /// A roomy DRAM tier: seeded subtrees stay resident.
    C0Roomy,
    /// A device filled breadth-first until a refine is `Full`, then no
    /// sweep: a persist leaves every octant shared, so the next ops run
    /// out of room mid-COW.
    Filling,
}

impl Tier {
    fn tree(self) -> PmOctree {
        let base = PmConfig { dynamic_transform: false, ..PmConfig::default() };
        let cfg = match self {
            Tier::NvbmOnly => {
                PmConfig { seed_c0: false, c0_capacity_octants: 0, replicas: true, ..base }
            }
            Tier::Filling => PmConfig { seed_c0: false, c0_capacity_octants: 0, ..base },
            Tier::C0Pressure => PmConfig { c0_capacity_octants: 18, ..base },
            Tier::C0Roomy => PmConfig { c0_capacity_octants: 256, ..base },
        };
        // The filling device has no flight-recorder ring, so it fills
        // past threshold_NVBM and every op then collects on demand.
        let device = match self {
            Tier::Filling => NvbmArena::new_with_recorder(32 << 10, DeviceModel::default(), 0),
            _ => NvbmArena::new(1 << 20, DeviceModel::default()),
        };
        let mut t = PmOctree::create(device, cfg);
        t.add_feature(hot());
        t
    }
}

/// What a transform samples: a positive payload is hot, so a subtree a
/// set-data warmed beats a DRAM one nothing did.
fn hot() -> pm_octree::FeatureFn {
    Box::new(|_, d| d.phi > 0.0)
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Refine,
    Coarsen,
    SetData,
}

#[derive(Clone, Debug)]
enum Step {
    /// One kind of op on keys picked before the run — `(index, from the
    /// probe set rather than the leaves, payload)` — through the per-op
    /// calls, or (`true`) as one `*_many` call.
    Run(Kind, Vec<(usize, bool, f64)>, bool),
    /// Refine a leaf's child-0 chain down to `MAX_LEVEL`, then the leaf
    /// there once more.
    Chain(usize),
    /// Refine a leaf, coarsen it back, then coarsen its parent: with a
    /// DRAM tier the refine seeds a subtree, the first coarsen leaves it a
    /// single DRAM leaf, and the second absorbs it back into NVBM.
    Bounce(usize),
    /// `update_leaves`, rewriting the leaves a salted key hash picks (out
    /// of 1 024).
    Sweep(u64, u64),
    /// That sweep with a crash at its n-th crash opportunity (just after
    /// it when it has fewer), under all three crash modes — seeded, with
    /// the commit probability — and the stream resumed on the image of
    /// the mode the index picks.
    CrashInSweep(u64, u64, u64, (u64, f64), usize),
    Persist,
    /// A crash between two steps.
    Crash(CrashMode),
    /// The node is lost between two steps: a new one restores from the
    /// remote replica (in the tier that keeps one).
    NodeLoss,
    /// A crash inside a persist: at a protocol label, or else at its n-th
    /// crash opportunity (just after it when it has fewer).
    CrashInPersist(Option<&'static str>, u64, CrashMode),
    /// Warm a leaf, then one dynamic layout transformation check: promote
    /// the hottest NVBM subtree to DRAM (with a DRAM tier).
    Transform(usize),
}

struct Harness {
    t: PmOctree,
    m: Model,
    tier: Tier,
}

impl Harness {
    /// A `Full` is the one outcome the model cannot predict: only a
    /// filling device may answer it, and only to an op the model accepts.
    fn agree(&self, got: Outcome, want: Outcome, op: Op) {
        if got == FULL {
            assert!(self.tier == Tier::Filling && want.is_ok(), "{op:?}: full, want {want:?}");
        } else {
            assert_eq!(got, want, "{op:?}");
        }
    }

    /// One op through its per-op call. A refusal must store nothing.
    fn per_op(&mut self, op: Op) -> Outcome {
        let t = &mut self.t;
        let before = (0, t.store.registry.len(), t.c0_octants());
        t.store.arena.set_fail_plan(FailPlan::count());
        let got = outcome(match op {
            Op::Refine(k) => t.refine(k),
            Op::Coarsen(k) => t.coarsen(k),
            Op::SetData(k, d) => t.set_data(k, d),
        });
        let stores = t.store.arena.take_fail_plan().unwrap().opportunities();
        if got.is_err() && got != FULL {
            let after = (stores, t.store.registry.len(), t.c0_octants());
            assert_eq!(after, before, "{op:?} was refused but stored");
        }
        let want = self.m.follow(op, got.is_ok());
        self.agree(got, want, op);
        got
    }

    /// A run of one kind of op as one `*_many` call: the per-op loop, so
    /// the flags are the model's outcomes in input order.
    fn batch(&mut self, kind: Kind, ops: &[Op]) {
        let t = &mut self.t;
        let before = (0, t.store.registry.len(), t.c0_octants());
        let keys: Vec<OctKey> =
            ops.iter().map(|&(Op::Refine(k) | Op::Coarsen(k) | Op::SetData(k, _))| k).collect();
        t.store.arena.set_fail_plan(FailPlan::count());
        let flags = match kind {
            Kind::Refine => t.refine_many(&keys),
            Kind::Coarsen => t.coarsen_many(&keys),
            Kind::SetData => {
                let writes: Vec<(OctKey, CellData)> = ops
                    .iter()
                    .filter_map(|&op| if let Op::SetData(k, d) = op { Some((k, d)) } else { None })
                    .collect();
                t.set_data_many(&writes)
            }
        };
        let stores = t.store.arena.take_fail_plan().unwrap().opportunities();
        let after = (stores, t.store.registry.len(), t.c0_octants());
        let mut refused = true;
        for (&op, &ok) in ops.iter().zip(&flags) {
            let want = self.m.follow(op, ok);
            let got = if ok {
                Ok(())
            } else if want.is_ok() {
                FULL
            } else {
                want
            };
            self.agree(got, want, op);
            refused &= want.is_err();
        }
        if refused {
            assert_eq!(after, before, "a refused batch {ops:?} stored");
        }
    }

    /// Everything the tree answers, against the model: the leaves, and
    /// per probe key one at a time and batched; and that the registry is
    /// the working version plus the retirement list.
    fn check(&mut self, salt: u64) {
        let (t, m) = (&mut self.t, &self.m);
        check_registry(t).expect("registry");
        let leaves = m.leaves();
        assert_eq!(t.leaves_sorted(), leaves);
        assert_eq!(t.leaf_count(), leaves.len());
        assert!(leaves.iter().all(|(k, _)| k.level() <= t.depth()));
        let mut keys = m.probes();
        for &k in &keys {
            assert_eq!(t.is_leaf(k), m.is_leaf(k), "is_leaf({k:?})");
            assert_eq!(t.get_data(k), m.tree.get(&k).copied(), "get_data({k:?})");
            assert_eq!(t.containing_leaf(k), m.containing_leaf(k), "containing_leaf({k:?})");
        }
        // Batched: shuffled, and a quarter of the keys asked twice.
        keys.extend_from_within(..keys.len() / 4);
        keys.sort_by_key(|k| {
            (k.raw() ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k.level() as u64
        });
        let leaf_data = |k: &OctKey| m.tree.get(k).copied().filter(|_| m.is_leaf(*k) == Some(true));
        assert_eq!(t.get_data_many(&keys), keys.iter().map(leaf_data).collect::<Vec<_>>());
        let holders: Vec<Option<OctKey>> = keys.iter().map(|&k| m.containing_leaf(k)).collect();
        assert_eq!(t.containing_leaf_many(&keys), holders);
        assert_eq!(t.leaf_keys_sorted(), leaves.iter().map(|l| l.0).collect::<Vec<_>>());
    }

    /// After a persist: its census — the collection's report, the Fig. 3
    /// overlap and the replica delta, read off counters — is what a mark
    /// walk of the published version finds; it counts the model's
    /// octants, and — without a DRAM tier — exactly the unwritten ones as
    /// shared, with nothing left allocated beyond `V_i` but what the
    /// retirement list holds.
    fn census(&mut self) {
        let t = &mut self.t;
        let (root, persisted) = (t.store.arena.committed().root, t.epoch() - 1);
        let marked = mark(&mut t.store, &[root], persisted);
        let counted = (marked.live.len(), marked.shared);
        let report = t.events.last_gc.expect("a persist collected");
        assert_eq!((report.live, report.shared), counted, "collection report");
        assert_eq!(t.events.last_overlap, Some(counted), "overlap");
        if let Some(r) = &t.replicas {
            let delta = HEADER_SIZE + (OCTANT_SIZE * marked.fresh.len()) as u64;
            assert_eq!(r.last_delta_bytes, delta, "replica delta");
        }
        let octants = self.m.tree.len();
        let (live, shared) = counted;
        assert_eq!(live, octants, "census");
        if self.tier == Tier::NvbmOnly {
            let fresh = self.m.written.iter().filter(|k| self.m.tree.contains_key(k)).count();
            assert_eq!(shared, octants - fresh, "shared octants");
            assert_eq!(marked.fresh.len(), fresh, "fresh octants");
            assert_eq!(self.t.memory_usage_bytes(), (OCTANT_SIZE * octants) as u64, "leaked");
        }
    }

    /// Reboot on `arena`, which a crash left holding `V_i`
    /// (`recovers_new`) or `V_{i-1}`: the restored tree passes the
    /// invariant checker, holds nothing but that version's octants, and
    /// carries on the stream.
    fn restore(&mut self, arena: NvbmArena, recovers_new: bool) {
        let mut r = PmOctree::restore(arena, self.t.cfg).expect("restore");
        check_invariants(&mut r).expect("invariants after restore");
        r.add_feature(hot());
        self.m.crash(recovers_new);
        assert_eq!(r.memory_usage_bytes(), (OCTANT_SIZE * self.m.tree.len()) as u64);
        self.t = r;
    }

    fn crash_now(&mut self, mode: CrashMode, recovers_new: bool) {
        self.t.store.arena.crash(mode);
        let image = self.t.store.arena.clone_media();
        self.restore(NvbmArena::from_media(image, DeviceModel::default()), recovers_new);
    }

    fn leaf(&self, i: usize) -> OctKey {
        let leaves = self.m.leaves();
        leaves[i % leaves.len()].0
    }

    /// The op a pick names: a leaf (a coarsen: its parent), or any key of
    /// the probe set.
    fn resolve(&self, kind: Kind, (i, any, v): (usize, bool, f64)) -> Op {
        let key = if any {
            let probes = self.m.probes();
            probes[i % probes.len()]
        } else {
            self.leaf(i)
        };
        match kind {
            Kind::Refine => Op::Refine(key),
            Kind::Coarsen => Op::Coarsen(if any { key } else { key.parent().unwrap_or(key) }),
            Kind::SetData => {
                Op::SetData(key, CellData { phi: v, work: i as f64, ..Default::default() })
            }
        }
    }

    fn step(&mut self, step: &Step) {
        match *step {
            Step::Run(kind, ref picks, batched) => {
                let ops: Vec<Op> = picks.iter().map(|&p| self.resolve(kind, p)).collect();
                if batched {
                    self.batch(kind, &ops);
                } else {
                    for op in ops {
                        let _ = self.per_op(op);
                    }
                }
            }
            Step::Chain(i) => {
                let mut k = self.leaf(i);
                while self.per_op(Op::Refine(k)).is_ok() {
                    k = k.child(0);
                }
            }
            Step::Bounce(i) => {
                let k = self.leaf(i);
                let _ = self.per_op(Op::Refine(k));
                let _ = self.per_op(Op::Coarsen(k));
                let _ = self.per_op(Op::Coarsen(k.parent().unwrap_or(k)));
            }
            Step::Sweep(salt, per_1024) => {
                let f = rewrite(salt, per_1024);
                self.t.update_leaves(f);
                self.m.update_leaves(f);
            }
            Step::CrashInSweep(salt, per_1024, n, (seed, p), resume) => {
                let f = rewrite(salt, per_1024);
                let modes = [
                    CrashMode::LoseDirty,
                    CrashMode::CommitRandom { p, seed },
                    CrashMode::TornWrite { seed },
                ];
                let at = move |v: &CrashView<'_>| v.opportunity == n;
                let crashed = crash_in(&mut self.t, at, &modes, |t| t.update_leaves(f));
                self.m.update_leaves(f);
                let resume = resume % modes.len();
                match crashed {
                    // Nothing is published mid-sweep: every image reboots
                    // to `V_{i-1}`, checked in full; the stream goes on
                    // from the picked mode's, restored last.
                    Some((mut arenas, ..)) => {
                        arenas.rotate_left(resume + 1);
                        for arena in arenas {
                            self.restore(arena, false);
                            self.check(n);
                        }
                    }
                    None => self.crash_now(modes[resume], false),
                }
            }
            Step::Persist => {
                self.t.persist();
                self.census();
                self.m.persist();
            }
            Step::Crash(mode) => self.crash_now(mode, false),
            Step::NodeLoss => {
                if let Some(replica) = &self.t.replicas {
                    let image = replica.image();
                    let mut arena = NvbmArena::new(image.size(), DeviceModel::default());
                    arena.restore_media(image);
                    self.restore(arena, false);
                }
            }
            Step::CrashInPersist(label, n, mode) => {
                let at = move |v: &CrashView<'_>| {
                    if label.is_some() {
                        v.label == label
                    } else {
                        v.opportunity == n
                    }
                };
                match crash_in_persist(&mut self.t, at, mode) {
                    Some((arena, fired, at)) => {
                        self.census();
                        // The record is stored and written back strictly
                        // between the last two labels: only there does the
                        // crash image's record say which version is back.
                        let (flushed, swapped) = (PHASES[1], PHASES[2]);
                        let recovers_new = fired.contains(&swapped)
                            || (fired.contains(&flushed)
                                && at != Some(flushed)
                                && arena.committed() == self.t.store.arena.committed());
                        self.restore(arena, recovers_new);
                    }
                    None => {
                        self.census();
                        self.crash_now(mode, true);
                    }
                }
            }
            Step::Transform(i) => {
                let warm = CellData { phi: 1.0, ..Default::default() };
                let _ = self.per_op(Op::SetData(self.leaf(i), warm));
                self.t.transform_pass(1);
            }
        }
    }
}

/// A sweep's rewrite: the leaves a salted key hash picks, `per_1024` out
/// of 1 024, take a new pressure and work.
fn rewrite(salt: u64, per_1024: u64) -> impl Fn(OctKey, &CellData) -> Option<CellData> + Copy {
    move |k: OctKey, d: &CellData| {
        let hit = (k.raw() ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54 < per_1024;
        hit.then(|| CellData { pressure: d.pressure + 1.0, work: k.level() as f64, ..*d })
    }
}

fn run(tier: Tier, steps: &[Step], salt: u64) {
    let mut h = Harness { t: tier.tree(), m: Model::new(), tier };
    if tier == Tier::Filling {
        let mut frontier = VecDeque::from([OctKey::root()]);
        while let Some(k) = frontier.pop_front() {
            if h.per_op(Op::Refine(k)) == FULL {
                break;
            }
            frontier.extend(k.children());
        }
        assert!(h.m.tree.len() > 64, "the device filled too early");
    }
    h.check(salt);
    for (i, step) in steps.iter().enumerate() {
        if tier == Tier::Filling && matches!(step, Step::Sweep(..) | Step::CrashInSweep(..)) {
            continue;
        }
        h.step(step);
        h.check(salt ^ i as u64);
    }
}

fn arb_mode() -> impl Strategy<Value = CrashMode> {
    (0u8..3, any::<u64>(), 0.0f64..=1.0).prop_map(|(m, seed, p)| match m {
        0 => CrashMode::LoseDirty,
        1 => CrashMode::CommitRandom { p, seed },
        _ => CrashMode::TornWrite { seed },
    })
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let kind =
        prop_oneof![5 => Just(Kind::Refine), 2 => Just(Kind::Coarsen), 3 => Just(Kind::SetData)];
    let pick = (0usize..4096, prop_oneof![3 => Just(false), 1 => Just(true)], -9.0f64..9.0);
    let run = (kind, prop::collection::vec(pick, 1..4), any::<bool>());
    let per_1024 = || prop_oneof![Just(0u64), Just(1024), 0u64..1024];
    let label =
        prop_oneof![2 => Just(None), 1 => prop::sample::select(PHASES.to_vec()).prop_map(Some)];
    prop::collection::vec(
        prop_oneof![
            12 => run.prop_map(|(k, picks, batched)| Step::Run(k, picks, batched)),
            1 => (0usize..4096).prop_map(Step::Chain),
            1 => (0usize..4096).prop_map(Step::Bounce),
            2 => (any::<u64>(), per_1024()).prop_map(|(salt, n)| Step::Sweep(salt, n)),
            1 => (any::<u64>(), per_1024(), 0u64..160, (any::<u64>(), 0.0f64..=1.0), 0usize..3)
                .prop_map(|(salt, n, at, seeds, resume)| Step::CrashInSweep(salt, n, at, seeds, resume)),
            2 => Just(Step::Persist),
            1 => arb_mode().prop_map(Step::Crash),
            1 => Just(Step::NodeLoss),
            2 => (label, 0u64..48, arb_mode()).prop_map(|(l, n, m)| Step::CrashInPersist(l, n, m)),
            1 => (0usize..4096).prop_map(Step::Transform),
        ],
        0..32,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn without_a_dram_tier_the_tree_is_the_model(steps in arb_steps(), salt in any::<u64>()) {
        run(Tier::NvbmOnly, &steps, salt);
    }

    #[test]
    fn under_eviction_pressure_the_tree_is_the_model(steps in arb_steps(), salt in any::<u64>()) {
        run(Tier::C0Pressure, &steps, salt);
    }

    #[test]
    fn with_a_roomy_dram_tier_the_tree_is_the_model(steps in arb_steps(), salt in any::<u64>()) {
        run(Tier::C0Roomy, &steps, salt);
    }

    #[test]
    fn on_a_filling_device_the_tree_is_the_model(steps in arb_steps(), salt in any::<u64>()) {
        run(Tier::Filling, &steps, salt);
    }
}
