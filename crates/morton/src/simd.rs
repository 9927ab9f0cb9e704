//! Batch entry points over the per-key calculus: one portable path.
//!
//! [`encode_many`], [`decode_many`], [`cmp_keys_many`], [`zorder_argsort`]
//! and [`neighbors_many`] take a whole slice where [`Key`] takes one key,
//! so the sorted leaf index, the `amr` worklist sweeps and the partitioner
//! hand over a batch instead of looping themselves. Each is one loop over
//! the per-key kernel in [`crate::bits`] / [`crate::code`] and answers
//! exactly what that kernel answers, panics included; `tests/prop_batch.rs`
//! holds every one of them to it.
//!
//! The name is from when a CPU-specific second path lived here
//! (EXPERIMENTS.md, "PR 20", has why it went); it stays because `perf/`
//! imports these functions by it.

use std::cmp::Ordering;

use crate::bits::interleave;
use crate::code::Key;
use crate::range::anchor;

/// Batch [`Key::from_coords`]: one key per `(coords, level)` pair.
///
/// # Panics
/// Panics under the same conditions as `from_coords` (level too deep or a
/// coordinate out of range), identified by item index.
pub fn encode_many<const D: usize>(items: &[([u64; D], u8)]) -> Vec<Key<D>> {
    let mut out = Vec::with_capacity(items.len());
    for (i, &(c, level)) in items.iter().enumerate() {
        assert!(level <= Key::<D>::MAX_LEVEL, "item {i}: level {level} too deep");
        for &x in &c {
            assert!(x < 1u64 << level, "item {i}: coordinate {x} out of range at level {level}");
        }
        out.push(Key::from_raw_unchecked(interleave::<D>(c), level));
    }
    out
}

/// Batch [`Key::coords`]: one coordinate tuple per key.
pub fn decode_many<const D: usize>(keys: &[Key<D>]) -> Vec<[u64; D]> {
    keys.iter().map(Key::coords).collect()
}

/// Batch pairwise [`Key::zcmp`]: `out[i] = a[i].zcmp(&b[i])`.
///
/// # Panics
/// Panics when the slices differ in length.
pub fn cmp_keys_many<const D: usize>(a: &[Key<D>], b: &[Key<D>]) -> Vec<Ordering> {
    assert_eq!(a.len(), b.len(), "cmp_keys_many over unequal slices");
    a.iter().zip(b).map(|(x, y)| x.zcmp(y)).collect()
}

/// Indices of `keys` in Z-order ([`Key::zcmp`]): the permutation that
/// sorts the slice. Equal keys come out in ascending index order.
pub fn zorder_argsort<const D: usize>(keys: &[Key<D>]) -> Vec<usize> {
    // Sort self-contained `(anchor, level | index)` pairs, so a comparison
    // reads two adjacent words instead of gathering through an index.
    const INDEX_BITS: u32 = 56;
    assert!((keys.len() as u64) < 1 << INDEX_BITS, "too many keys to argsort");
    let mut order: Vec<(u64, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (anchor(k), (k.level() as u64) << INDEX_BITS | i as u64))
        .collect();
    order.sort_unstable();
    // `collect` writes the indices into the pairs' own allocation, which is
    // twice what they need: hand the other half back (batches run to
    // millions of keys, and callers hold the result while they resolve).
    let mut order: Vec<usize> =
        order.into_iter().map(|(_, tail)| (tail & ((1 << INDEX_BITS) - 1)) as usize).collect();
    order.shrink_to_fit();
    order
}

/// Batch same-level neighbor generation: for each key, its existing face
/// neighbors (`full = false`, up to `2 D`, in [`Key::face_neighbors`]
/// order) or all neighbors (`full = true`, up to `3^D - 1`, in
/// [`Key::all_neighbors`] order). Returns the flattened neighbor keys and
/// the per-source `[start, end)` spans into them.
pub fn neighbors_many<const D: usize>(
    keys: &[Key<D>],
    full: bool,
) -> (Vec<Key<D>>, Vec<(usize, usize)>) {
    let cap = if full { 3usize.pow(D as u32) - 1 } else { 2 * D };
    let mut flat = Vec::with_capacity(keys.len() * cap);
    let mut spans = Vec::with_capacity(keys.len());
    for k in keys {
        let start = flat.len();
        if full {
            flat.extend(k.all_neighbors_iter());
        } else {
            flat.extend(k.face_neighbors_iter());
        }
        spans.push((start, flat.len()));
    }
    (flat, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::OctKey;

    #[test]
    fn encode_decode_roundtrip() {
        let items: Vec<([u64; 3], u8)> =
            vec![([0, 0, 0], 0), ([1, 2, 3], 2), ([5, 9, 14], 4), ([(1 << 21) - 1, 0, 7], 21)];
        let keys = encode_many(&items);
        for (k, &(c, l)) in keys.iter().zip(&items) {
            assert_eq!(*k, OctKey::from_coords(c, l));
        }
        let back = decode_many(&keys);
        for (b, &(c, _)) in back.iter().zip(&items) {
            assert_eq!(*b, c);
        }
    }

    #[test]
    fn cmp_matches_zcmp() {
        let a = vec![OctKey::root(), OctKey::root().child(3), OctKey::root().child(1).child(7)];
        let b = vec![OctKey::root().child(0), OctKey::root().child(3), OctKey::root().child(2)];
        let want: Vec<_> = a.iter().zip(&b).map(|(x, y)| x.zcmp(y)).collect();
        assert_eq!(cmp_keys_many(&a, &b), want);
    }

    #[test]
    fn argsort_matches_zcmp_sort() {
        let keys = vec![
            OctKey::root().child(7),
            OctKey::root(),
            OctKey::root().child(0).child(3),
            OctKey::root().child(0),
            OctKey::root().child(7).child(7).child(7),
        ];
        let order = zorder_argsort(&keys);
        let sorted: Vec<_> = order.iter().map(|&i| keys[i]).collect();
        let mut want = keys.clone();
        want.sort_unstable_by(|a, b| a.zcmp(b));
        assert_eq!(sorted, want);
        // Equal keys keep their input order.
        let dup = vec![keys[0], keys[1], keys[0], keys[1], keys[0]];
        assert_eq!(zorder_argsort(&dup), vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn neighbors_match_per_key() {
        let keys = vec![
            OctKey::from_coords([0, 0, 0], 2),
            OctKey::from_coords([1, 1, 1], 2),
            OctKey::from_coords([3, 2, 0], 2),
        ];
        for full in [false, true] {
            let (flat, spans) = neighbors_many(&keys, full);
            for (k, &(s, e)) in keys.iter().zip(&spans) {
                let want = if full { k.all_neighbors() } else { k.face_neighbors() };
                assert_eq!(&flat[s..e], &want[..], "full={full}");
            }
        }
    }
}
