//! Property tests for the baseline substrates: the disk-backed B-tree
//! behaves like a sorted map, and the Etree linear octree maintains the
//! leaf-tiling invariant under arbitrary refine/coarsen sequences.

use pmoctree_amr::OctreeBackend;
use pmoctree_baselines::{
    decode_octants, encode_octants, DiskBTree, EtreeOctree, OctantRecord, RECORD_SIZE,
};
use pmoctree_morton::{anchor, anchor_end, OctKey};
use pmoctree_simfs::SimFs;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    GetLe(u64),
}

fn arb_map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0u64..5000, any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
            1 => (0u64..5000).prop_map(MapOp::Remove),
            1 => (0u64..6000).prop_map(MapOp::GetLe),
        ],
        1..300,
    )
}

fn arb_record() -> impl Strategy<Value = OctantRecord> {
    (
        prop::collection::vec(0usize..8, 0..6),
        prop::collection::vec(-1e12f64..1e12, 4),
        any::<bool>(),
    )
        .prop_map(|(path, data, is_leaf)| {
            let mut k = OctKey::root();
            for c in path {
                k = k.child(c);
            }
            let data = [data[0], data[1], data[2], data[3]];
            OctantRecord { key: k, data, is_leaf }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Snapshot wire format: encode → decode is the identity for any
    /// octant list.
    #[test]
    fn snapshot_roundtrips(records in prop::collection::vec(arb_record(), 0..64)) {
        let bytes = encode_octants(&records);
        prop_assert_eq!(bytes.len(), 8 + records.len() * RECORD_SIZE);
        prop_assert_eq!(decode_octants(&bytes).expect("roundtrip"), records);
    }

    /// Any strict prefix of a valid snapshot is rejected with an error —
    /// never a panic, never a silently shortened list.
    #[test]
    fn snapshot_truncation_is_an_error(
        records in prop::collection::vec(arb_record(), 1..32),
        cut_fraction in 0.0f64..1.0,
    ) {
        let bytes = encode_octants(&records);
        let cut = ((bytes.len() - 1) as f64 * cut_fraction) as usize;
        prop_assert!(decode_octants(&bytes[..cut]).is_err(), "prefix of {cut} bytes accepted");
    }

    /// Arbitrary byte corruption (including of the count header) either
    /// decodes to *some* list or errors out — it must never panic.
    #[test]
    fn snapshot_corruption_never_panics(
        records in prop::collection::vec(arb_record(), 0..16),
        pos_fraction in 0.0f64..1.0,
        val in any::<u8>(),
    ) {
        let mut bytes = encode_octants(&records);
        let pos = ((bytes.len() - 1) as f64 * pos_fraction) as usize;
        bytes[pos] = val;
        let _ = decode_octants(&bytes);
        // A count header claiming u64::MAX records must error, not
        // overflow the size computation.
        bytes[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        prop_assert!(decode_octants(&bytes).is_err());
    }

    /// The disk-backed B-tree agrees with std's BTreeMap on every
    /// operation, including floor queries, under any op sequence.
    #[test]
    fn btree_matches_std_map(ops in arb_map_ops(), cache in 1usize..16) {
        let mut fs = SimFs::on_nvbm();
        let mut t = DiskBTree::create(&mut fs, "idx");
        t.set_cache_pages(&mut fs, cache);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(t.insert(&mut fs, *k, *v), model.insert(*k, *v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(t.remove(&mut fs, *k), model.remove(k));
                }
                MapOp::GetLe(k) => {
                    let want = model.range(..=*k).next_back().map(|(a, b)| (*a, *b));
                    prop_assert_eq!(t.get_le(&mut fs, *k), want);
                }
            }
            prop_assert_eq!(t.len(), model.len());
        }
        // Full scan agrees.
        let items = t.items(&mut fs);
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(items, want);
    }

    /// Etree leaves always tile the domain exactly: sorted anchors are
    /// gap-free and cover the full curve after any refine/coarsen mix.
    #[test]
    fn etree_leaves_tile_domain(paths in prop::collection::vec((prop::collection::vec(0usize..8, 0..3), any::<bool>()), 1..40)) {
        let mut t = EtreeOctree::create(SimFs::on_nvbm());
        for (path, coarsen) in &paths {
            let mut k = OctKey::root();
            for &i in path {
                k = k.child(i);
            }
            if *coarsen {
                let _ = t.coarsen(k);
            } else {
                let _ = t.refine(k);
            }
        }
        let leaves = t.leaves_sorted();
        prop_assert_eq!(leaves.len(), t.leaf_count());
        let mut cursor = 0u64;
        for (k, _) in &leaves {
            prop_assert_eq!(anchor::<3>(k), cursor, "gap before {:?}", k);
            cursor = anchor_end::<3>(k);
        }
        prop_assert_eq!(cursor, anchor_end::<3>(&OctKey::root()));
        // containing_leaf agrees with the sorted table for random probes.
        for (k, _) in leaves.iter().step_by(7) {
            if k.level() < OctKey::MAX_LEVEL {
                let probe = k.child(3);
                prop_assert_eq!(t.containing_leaf(probe), Some(*k));
            }
        }
    }

    /// Etree flush + reopen preserves every leaf and payload.
    #[test]
    fn etree_reopen_is_lossless(paths in prop::collection::vec(prop::collection::vec(0usize..8, 0..3), 1..20)) {
        let mut t = EtreeOctree::create(SimFs::on_nvbm());
        for (i, path) in paths.iter().enumerate() {
            let mut k = OctKey::root();
            for &c in path {
                k = k.child(c);
            }
            let _ = t.refine(k);
            let _ = t.set_data(k.child(0).min(k), [i as f64, 0.0, 0.0, 0.0]);
        }
        t.flush();
        let before = t.leaves_sorted();
        let (fs, index) = t.into_parts();
        let mut r = EtreeOctree::reopen(fs, index).expect("reopen");
        prop_assert_eq!(r.leaves_sorted(), before);
    }
}
