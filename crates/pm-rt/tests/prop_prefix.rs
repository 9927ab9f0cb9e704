//! Differential property test for the ordered prefix ranges.
//!
//! `PmRt` answers its four prefix operations — `prefix_usage`,
//! `names_with_prefix`, the `snapshot_prefix` pin and
//! `revert_staged_prefix` — from the contiguous key range a prefix
//! occupies in the name-ordered tables. The reference here is the
//! definition itself: a `starts_with` filter over *every* name of a
//! shadow model. The name pool is the adversarial neighbourhood of a
//! tenant prefix: the bare tenant, its separator, names that sort just
//! before and just after the range, the highest code point, and the empty
//! name and prefix.

use std::collections::{BTreeMap, BTreeSet};

use pm_rt::rt::blob_footprint;
use pm_rt::PmRt;
use pmoctree_nvbm::{DeviceModel, NvbmArena};
use proptest::prelude::*;

const NAMES: [&str; 14] = [
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
];

const PREFIXES: [&str; 10] =
    ["", "a", "a/", "a//", "a/x", "a/\u{10ffff}", "a0", "b/", "c", "\u{10ffff}"];

#[derive(Debug, Clone)]
enum Step {
    Stage { name: usize, len: usize },
    Unregister { name: usize },
    Revert { prefix: usize },
    Commit,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0..NAMES.len(), 0usize..80).prop_map(|(name, len)| Step::Stage { name, len }),
            2 => (0..NAMES.len()).prop_map(|name| Step::Unregister { name }),
            2 => (0..PREFIXES.len()).prop_map(|prefix| Step::Revert { prefix }),
            2 => Just(Step::Commit),
        ],
        1..64,
    )
}

/// What the runtime must hold, kept as plain maps and scanned in full.
#[derive(Default)]
struct Model {
    staged: BTreeMap<String, Vec<u8>>,
    committed: BTreeMap<String, Vec<u8>>,
    /// Names staged or unregistered since the last commit.
    dirty: BTreeSet<String>,
}

impl Model {
    fn check(&self, rt: &PmRt, arena: &mut NvbmArena, at: usize) {
        for prefix in PREFIXES {
            let staged = || self.staged.iter().filter(|(n, _)| n.starts_with(prefix));
            // A `Vec<u8>` encodes as a u64 length plus its bytes.
            let usage: u64 = staged().map(|(_, v)| blob_footprint(8 + v.len()) as u64).sum();
            assert_eq!(rt.prefix_usage(prefix), usage, "usage of {prefix:?} at step {at}");
            let names: Vec<&str> = staged().map(|(n, _)| n.as_str()).collect();
            let got: Vec<&str> = rt.names_with_prefix(prefix).collect();
            assert_eq!(got, names, "names under {prefix:?} at step {at}");
            let snap = rt.snapshot_prefix(arena, prefix);
            let pinned: Vec<(String, Vec<u8>)> = snap
                .names()
                .map(|n| (n.to_string(), snap.get::<Vec<u8>>(arena, n)))
                .map(|(n, v)| (n, v.expect("pinned read").expect("pinned name resolves")))
                .collect();
            let want: Vec<(String, Vec<u8>)> = self
                .committed
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .map(|(n, v)| (n[prefix.len()..].to_string(), v.clone()))
                .collect();
            assert_eq!(pinned, want, "snapshot of {prefix:?} at step {at}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prefix_operations_equal_a_full_scan(steps in arb_steps()) {
        let mut arena = NvbmArena::new(1 << 20, DeviceModel::default());
        let mut rt = PmRt::create(&mut arena).expect("create");
        let mut m = Model::default();
        for (at, step) in steps.into_iter().enumerate() {
            match step {
                Step::Stage { name, len } => {
                    let bytes: Vec<u8> = (0..len).map(|i| (i ^ at) as u8).collect();
                    rt.stage(&mut arena, NAMES[name], &bytes).expect("stage");
                    m.staged.insert(NAMES[name].to_string(), bytes);
                    m.dirty.insert(NAMES[name].to_string());
                }
                Step::Unregister { name } => {
                    let existed = m.staged.remove(NAMES[name]).is_some();
                    prop_assert_eq!(rt.unregister(NAMES[name]), existed);
                    if existed {
                        m.dirty.insert(NAMES[name].to_string());
                    }
                }
                Step::Revert { prefix } => {
                    let p = PREFIXES[prefix];
                    let want = m.dirty.iter().filter(|n| n.starts_with(p)).count();
                    prop_assert_eq!(rt.revert_staged_prefix(p), want, "revert of {:?}", p);
                    m.dirty.retain(|n| !n.starts_with(p));
                    m.staged.retain(|n, _| !n.starts_with(p));
                    let kept = m.committed.iter().filter(|(n, _)| n.starts_with(p));
                    m.staged.extend(kept.map(|(n, v)| (n.clone(), v.clone())));
                }
                Step::Commit => {
                    rt.commit(&mut arena).expect("commit");
                    m.committed = m.staged.clone();
                    m.dirty.clear();
                }
            }
            m.check(&rt, &mut arena, at);
            for (n, want) in &m.staged {
                let got = rt.load::<Vec<u8>>(&mut arena, n).expect("load");
                prop_assert_eq!(got.as_ref(), Some(want), "value of {:?} at step {}", n, at);
            }
        }
    }
}
