//! Property-based equivalence of the batch entry points against the
//! per-key calculus they loop over: for random key batches across all
//! levels, each `*_many` answers exactly what `Key` answers key by key,
//! in 2D and 3D, and panics where `Key` panics.

use pmoctree_morton::simd::{
    cmp_keys_many, decode_many, encode_many, neighbors_many, zorder_argsort,
};
use pmoctree_morton::{Key, OctKey, QuadKey};
use proptest::prelude::*;

/// Strategy: an arbitrary valid 3D key built by a random child path, so
/// every level 0..=MAX_LEVEL is reachable.
fn arb_octkey() -> impl Strategy<Value = OctKey> {
    prop::collection::vec(0usize..8, 0..=21).prop_map(|path| {
        let mut k = OctKey::root();
        for i in path {
            k = k.child(i);
        }
        k
    })
}

fn arb_quadkey() -> impl Strategy<Value = QuadKey> {
    prop::collection::vec(0usize..4, 0..=31).prop_map(|path| {
        let mut k = QuadKey::root();
        for i in path {
            k = k.child(i);
        }
        k
    })
}

fn encode_matches_from_coords<const D: usize>(keys: &[Key<D>]) {
    let items: Vec<([u64; D], u8)> = keys.iter().map(|k| (k.coords(), k.level())).collect();
    let want: Vec<Key<D>> = items.iter().map(|&(c, l)| Key::from_coords(c, l)).collect();
    assert_eq!(&encode_many(&items), &want);
    assert_eq!(want, keys);
}

fn decode_matches_coords<const D: usize>(keys: &[Key<D>]) {
    let want: Vec<[u64; D]> = keys.iter().map(|k| k.coords()).collect();
    assert_eq!(decode_many(keys), want);
}

fn cmp_matches_zcmp<const D: usize>(a: &[Key<D>], b: &[Key<D>]) {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let want: Vec<_> = a.iter().zip(b).map(|(x, y)| x.zcmp(y)).collect();
    assert_eq!(cmp_keys_many(a, b), want);
}

fn argsort_matches_zcmp_sort<const D: usize>(keys: &[Key<D>]) {
    // Every key twice, so equal keys are certain.
    let keys = [keys, keys].concat();
    let order = zorder_argsort(&keys);
    let sorted: Vec<_> = order.iter().map(|&i| keys[i]).collect();
    let mut want = keys.clone();
    want.sort_unstable_by(|x, y| x.zcmp(y));
    assert_eq!(sorted, want);
    // Equal keys come out in input order.
    for w in order.windows(2) {
        assert!(keys[w[0]] != keys[w[1]] || w[0] < w[1]);
    }
}

fn neighbors_match_per_key<const D: usize>(keys: &[Key<D>], full: bool) {
    let (flat, spans) = neighbors_many(keys, full);
    assert_eq!(spans.len(), keys.len());
    for (k, &(s, e)) in keys.iter().zip(&spans) {
        let want = if full { k.all_neighbors() } else { k.face_neighbors() };
        assert_eq!(&flat[s..e], &want[..]);
    }
    assert_eq!(spans.last().map_or(0, |s| s.1), flat.len());
}

proptest! {
    #[test]
    fn encode_matches_from_coords_3d(keys in prop::collection::vec(arb_octkey(), 0..40)) {
        encode_matches_from_coords(&keys);
    }

    #[test]
    fn encode_matches_from_coords_2d(keys in prop::collection::vec(arb_quadkey(), 0..40)) {
        encode_matches_from_coords(&keys);
    }

    #[test]
    fn decode_matches_coords_3d(keys in prop::collection::vec(arb_octkey(), 0..40)) {
        decode_matches_coords(&keys);
    }

    #[test]
    fn decode_matches_coords_2d(keys in prop::collection::vec(arb_quadkey(), 0..40)) {
        decode_matches_coords(&keys);
    }

    #[test]
    fn cmp_matches_zcmp_3d(
        a in prop::collection::vec(arb_octkey(), 0..40),
        b in prop::collection::vec(arb_octkey(), 0..40),
    ) {
        cmp_matches_zcmp(&a, &b);
    }

    #[test]
    fn cmp_matches_zcmp_2d(
        a in prop::collection::vec(arb_quadkey(), 0..40),
        b in prop::collection::vec(arb_quadkey(), 0..40),
    ) {
        cmp_matches_zcmp(&a, &b);
    }

    #[test]
    fn argsort_matches_zcmp_sort_3d(keys in prop::collection::vec(arb_octkey(), 0..40)) {
        argsort_matches_zcmp_sort(&keys);
    }

    #[test]
    fn argsort_matches_zcmp_sort_2d(keys in prop::collection::vec(arb_quadkey(), 0..40)) {
        argsort_matches_zcmp_sort(&keys);
    }

    #[test]
    fn neighbors_match_per_key_3d(keys in prop::collection::vec(arb_octkey(), 0..20), full in any::<bool>()) {
        neighbors_match_per_key(&keys, full);
    }

    #[test]
    fn neighbors_match_per_key_2d(keys in prop::collection::vec(arb_quadkey(), 0..20), full in any::<bool>()) {
        neighbors_match_per_key(&keys, full);
    }
}

#[test]
#[should_panic(expected = "item 1: level 22 too deep")]
fn encode_names_the_item_with_a_level_too_deep() {
    encode_many::<3>(&[([0, 0, 0], 0), ([0, 0, 0], OctKey::MAX_LEVEL + 1)]);
}

#[test]
#[should_panic(expected = "item 2: coordinate 4 out of range at level 2")]
fn encode_names_the_item_with_a_coordinate_out_of_range() {
    encode_many::<2>(&[([0, 0], 0), ([3, 3], 2), ([1, 4], 2)]);
}
