//! Batched Morton kernels with one-time runtime CPU dispatch.
//!
//! The per-key kernels in [`crate::bits`] spend most of their cycles in
//! the spread/compact magic-mask cascades; on x86-64 the same bit
//! permutations are single `pdep`/`pext` instructions (BMI2), and the
//! left-alignment shifts behind Z-order comparison vectorize 4-wide with
//! AVX2 (`vpsllvq`). This module exposes *batch* entry points —
//! [`encode_many`], [`decode_many`], [`cmp_keys_many`], [`children_many`],
//! [`anchors_many`], [`zorder_argsort`], [`neighbors_many`] — that the
//! sorted leaf index, the `amr` worklist sweeps and the partitioner call
//! instead of looping over per-key operations.
//!
//! # Dispatch
//!
//! The implementation is selected **once**, on first use, and cached for
//! the process lifetime ([`active`]): BMI2 + AVX2 when the CPU reports
//! both, the portable scalar path otherwise. Setting the environment
//! variable [`FORCE_SCALAR_ENV`] (`PMOCTREE_MORTON_FORCE_SCALAR=1`)
//! before first use pins the scalar path regardless of hardware — CI uses
//! this to exercise the fallback on machines that *do* have the features.
//! Both paths are bit-identical by construction (the deposit/extract
//! masks are exactly the spread positions of the scalar cascades), and
//! the property suite in `tests/prop_simd.rs` proves it per build.
//!
//! # Safety discipline
//!
//! `unsafe_op_in_unsafe_fn` is denied: every intrinsic call sits in its
//! own `unsafe` block carrying a `// SAFETY:` comment stating why the
//! required target feature is present and why any pointer access is in
//! bounds. Feature-gated functions are `unsafe fn`; the only callers are
//! the dispatch arms below, which run them strictly after runtime
//! detection succeeded.
#![deny(unsafe_op_in_unsafe_fn)]

use std::cmp::Ordering;
use std::sync::OnceLock;

use crate::bits::{deinterleave, interleave};
use crate::code::Key;

/// Environment variable pinning the scalar fallback (any non-empty value
/// other than `0`). Must be set before the first batch call; dispatch is
/// cached after that.
pub const FORCE_SCALAR_ENV: &str = "PMOCTREE_MORTON_FORCE_SCALAR";

/// Which kernel implementation a batch call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Portable magic-mask cascades from [`crate::bits`].
    Scalar,
    /// BMI2 `pdep`/`pext` interleaving + AVX2 4-wide shifts/compares.
    Bmi2Avx2,
}

impl Dispatch {
    /// What the CPU supports, ignoring the environment override.
    pub fn hardware() -> Dispatch {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("bmi2") && is_x86_feature_detected!("avx2") {
                return Dispatch::Bmi2Avx2;
            }
        }
        Dispatch::Scalar
    }
}

/// Has [`FORCE_SCALAR_ENV`] pinned the scalar path?
fn forced_scalar() -> bool {
    std::env::var_os(FORCE_SCALAR_ENV).is_some_and(|v| !v.is_empty() && v != "0")
}

/// The implementation every batch entry point uses, selected on first
/// call and cached for the process lifetime.
pub fn active() -> Dispatch {
    static ACTIVE: OnceLock<Dispatch> = OnceLock::new();
    *ACTIVE.get_or_init(|| if forced_scalar() { Dispatch::Scalar } else { Dispatch::hardware() })
}

// ------------------------------------------------------------------ encode

/// Batch [`Key::from_coords`]: one key per `(coords, level)` pair.
///
/// # Panics
/// Panics under the same conditions as `from_coords` (level too deep or a
/// coordinate out of range), identified by item index.
pub fn encode_many<const D: usize>(items: &[([u64; D], u8)]) -> Vec<Key<D>> {
    encode_many_with(active(), items)
}

/// [`encode_many`] with an explicit implementation (benches and the
/// bit-identity property suite compare the two paths directly).
pub fn encode_many_with<const D: usize>(d: Dispatch, items: &[([u64; D], u8)]) -> Vec<Key<D>> {
    for (i, &(c, level)) in items.iter().enumerate() {
        assert!(level <= Key::<D>::MAX_LEVEL, "item {i}: level {level} too deep");
        for &x in &c {
            assert!(x < 1u64 << level, "item {i}: coordinate {x} out of range at level {level}");
        }
    }
    match d {
        Dispatch::Scalar => {
            items.iter().map(|&(c, l)| Key::from_raw_unchecked(interleave::<D>(c), l)).collect()
        }
        Dispatch::Bmi2Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: `Bmi2Avx2` is only ever produced by
                // `Dispatch::hardware()` after runtime feature detection.
                unsafe { x86::encode_slice::<D>(items) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("Bmi2Avx2 dispatch on a non-x86_64 target")
        }
    }
}

// ------------------------------------------------------------------ decode

/// Batch [`Key::coords`]: one coordinate tuple per key.
pub fn decode_many<const D: usize>(keys: &[Key<D>]) -> Vec<[u64; D]> {
    decode_many_with(active(), keys)
}

/// [`decode_many`] with an explicit implementation.
pub fn decode_many_with<const D: usize>(d: Dispatch, keys: &[Key<D>]) -> Vec<[u64; D]> {
    match d {
        Dispatch::Scalar => keys.iter().map(|k| deinterleave::<D>(k.raw())).collect(),
        Dispatch::Bmi2Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: dispatch established BMI2 support at runtime.
                unsafe { x86::decode_slice::<D>(keys) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("Bmi2Avx2 dispatch on a non-x86_64 target")
        }
    }
}

// ----------------------------------------------------------------- compare

/// Z-order anchors: each key's code left-aligned to `MAX_LEVEL`, the
/// major sort key of [`Key::zcmp`] (ties broken by level). Precomputing
/// anchors turns an `n log n`-comparison sort into one batched shift pass
/// plus integer compares.
pub fn anchors_many<const D: usize>(keys: &[Key<D>]) -> Vec<u64> {
    anchors_many_with(active(), keys)
}

/// [`anchors_many`] with an explicit implementation.
pub fn anchors_many_with<const D: usize>(d: Dispatch, keys: &[Key<D>]) -> Vec<u64> {
    let max = Key::<D>::MAX_LEVEL;
    match d {
        Dispatch::Scalar => {
            keys.iter().map(|k| k.raw() << (D as u32 * (max - k.level()) as u32)).collect()
        }
        Dispatch::Bmi2Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: dispatch established AVX2 support at runtime.
                unsafe { x86::anchors_slice::<D>(keys) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("Bmi2Avx2 dispatch on a non-x86_64 target")
        }
    }
}

/// Batch pairwise [`Key::zcmp`]: `out[i] = a[i].zcmp(&b[i])`. The
/// left-alignment shifts (the expensive half of `zcmp`) run through the
/// batched anchor kernel; the tie-break on level stays scalar.
///
/// # Panics
/// Panics when the slices differ in length.
pub fn cmp_keys_many<const D: usize>(a: &[Key<D>], b: &[Key<D>]) -> Vec<Ordering> {
    cmp_keys_many_with(active(), a, b)
}

/// [`cmp_keys_many`] with an explicit implementation.
pub fn cmp_keys_many_with<const D: usize>(
    d: Dispatch,
    a: &[Key<D>],
    b: &[Key<D>],
) -> Vec<Ordering> {
    assert_eq!(a.len(), b.len(), "cmp_keys_many over unequal slices");
    let aa = anchors_many_with(d, a);
    let ab = anchors_many_with(d, b);
    a.iter()
        .zip(b)
        .zip(aa.iter().zip(&ab))
        .map(|((ka, kb), (&x, &y))| x.cmp(&y).then(ka.level().cmp(&kb.level())))
        .collect()
}

/// Indices of `keys` in Z-order ([`Key::zcmp`]): the permutation that
/// sorts the slice. Equal keys come out in ascending index order.
pub fn zorder_argsort<const D: usize>(keys: &[Key<D>]) -> Vec<usize> {
    // Sort self-contained `(anchor, level | index)` pairs, so a comparison
    // reads two adjacent words instead of gathering through an index.
    const INDEX_BITS: u32 = 56;
    assert!((keys.len() as u64) < 1 << INDEX_BITS, "too many keys to argsort");
    let max = Key::<D>::MAX_LEVEL;
    let mut order: Vec<(u64, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let anchor = k.raw() << (D as u32 * (max - k.level()) as u32);
            (anchor, (k.level() as u64) << INDEX_BITS | i as u64)
        })
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

// ---------------------------------------------------------------- children

/// Batch [`Key::children`]: the `FANOUT` children of every key,
/// flattened in Morton order (`out[k * FANOUT + i]` is child `i` of
/// `keys[k]`).
///
/// # Panics
/// Panics when any key is already at `MAX_LEVEL`.
pub fn children_many<const D: usize>(keys: &[Key<D>]) -> Vec<Key<D>> {
    children_many_with(active(), keys)
}

/// [`children_many`] with an explicit implementation. The child code is a
/// *uniform* shift-and-or, which the autovectorizer already handles; both
/// dispatches deliberately share one loop (routing a constant shift
/// through `vpsllvq` plus temporary vectors only added memory passes).
pub fn children_many_with<const D: usize>(_d: Dispatch, keys: &[Key<D>]) -> Vec<Key<D>> {
    for (i, k) in keys.iter().enumerate() {
        assert!(k.level() < Key::<D>::MAX_LEVEL, "item {i}: cannot refine beyond MAX_LEVEL");
    }
    let mut out = Vec::with_capacity(keys.len() * Key::<D>::FANOUT);
    for k in keys {
        let base = k.raw() << D;
        for i in 0..Key::<D>::FANOUT as u64 {
            out.push(Key::from_raw_unchecked(base | i, k.level() + 1));
        }
    }
    out
}

// --------------------------------------------------------------- neighbors

/// Batch same-level neighbor generation: for each key, its existing face
/// neighbors (`full = false`, up to `2 D`, in [`Key::face_neighbors`]
/// order) or all neighbors (`full = true`, up to `3^D - 1`, in
/// [`Key::all_neighbors`] order). Returns the flattened neighbor keys and
/// the per-source `[start, end)` spans into them.
///
/// Decoding and re-encoding run through the batched BMI2 kernels; the
/// per-direction boundary filter is plain integer arithmetic.
pub fn neighbors_many<const D: usize>(
    keys: &[Key<D>],
    full: bool,
) -> (Vec<Key<D>>, Vec<(usize, usize)>) {
    let coords = decode_many(keys);
    let cap = if full { 3usize.pow(D as u32) - 1 } else { 2 * D };
    let mut flat: Vec<([u64; D], u8)> = Vec::with_capacity(keys.len() * cap);
    let mut spans = Vec::with_capacity(keys.len());
    let push = |flat: &mut Vec<([u64; D], u8)>, c: &[u64; D], lvl: u8, dir: &[i8]| {
        let side = 1u64 << lvl;
        let mut nc = *c;
        for a in 0..D {
            match dir[a] {
                0 => {}
                1 => {
                    if nc[a] + 1 >= side {
                        return;
                    }
                    nc[a] += 1;
                }
                _ => {
                    if nc[a] == 0 {
                        return;
                    }
                    nc[a] -= 1;
                }
            }
        }
        flat.push((nc, lvl));
    };
    for (k, c) in keys.iter().zip(&coords) {
        let start = flat.len();
        if full {
            // Same enumeration order as Key::all_neighbors.
            for m in 0..3usize.pow(D as u32) {
                let mut dir = [0i8; D];
                let mut mm = m;
                let mut zero = true;
                for slot in dir.iter_mut() {
                    *slot = (mm % 3) as i8 - 1;
                    zero &= *slot == 0;
                    mm /= 3;
                }
                if !zero {
                    push(&mut flat, c, k.level(), &dir);
                }
            }
        } else {
            // Same enumeration order as Key::face_neighbors.
            for axis in 0..D {
                for d in [-1i8, 1] {
                    let mut dir = [0i8; D];
                    dir[axis] = d;
                    push(&mut flat, c, k.level(), &dir);
                }
            }
        }
        spans.push((start, flat.len()));
    }
    (encode_many(&flat), spans)
}

// ----------------------------------------------------------- x86-64 kernels

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_or_si256, _mm256_permute2x128_si256,
        _mm256_set1_epi64x, _mm256_set_epi64x, _mm256_sllv_epi64, _mm256_srli_epi64,
        _mm256_storeu_si256, _mm256_unpackhi_epi64, _mm256_unpacklo_epi64, _pdep_u64, _pext_u64,
    };

    use crate::code::Key;

    /// Deposit/extract masks — exactly the spread positions of the scalar
    /// cascades in `bits.rs`: 21 bits at stride 3 (`spread3` keeps the low
    /// 21 input bits), 31 bits at stride 2 (`spread2` keeps the low 31).
    /// Matching the *popcount* of the scalar input masks is what makes
    /// `pdep`/`pext` bit-identical to spread/compact for every input.
    const MASK3: u64 = 0x1249_2492_4924_9249;
    const MASK2: u64 = 0x1555_5555_5555_5555;

    /// Reinterpret a `(coords, level)` slice at its concrete dimension.
    ///
    /// # Safety
    /// `D` must equal `N` (the callers match on `D` first); the two types
    /// are then identical.
    unsafe fn cast_items<const D: usize, const N: usize>(
        items: &[([u64; D], u8)],
    ) -> &[([u64; N], u8)] {
        debug_assert_eq!(D, N);
        // SAFETY: D == N makes the element types layout-identical.
        unsafe { std::slice::from_raw_parts(items.as_ptr().cast(), items.len()) }
    }

    /// Batch interleave via BMI2. `target_feature` on the *slice* loop —
    /// not just the per-key helper — lets the interleave inline into the
    /// loop body instead of paying a call boundary per key.
    ///
    /// # Safety
    /// The CPU must support BMI2.
    #[target_feature(enable = "bmi2")]
    pub unsafe fn encode_slice<const D: usize>(items: &[([u64; D], u8)]) -> Vec<Key<D>> {
        let mut out = Vec::with_capacity(items.len());
        match D {
            3 => {
                // SAFETY: D == 3 in this arm.
                let it = unsafe { cast_items::<D, 3>(items) };
                for &(c, l) in it {
                    // Safe call: this fn already carries the bmi2 feature.
                    out.push(Key::from_raw_unchecked(interleave3(c), l));
                }
            }
            2 => {
                // SAFETY: D == 2 in this arm.
                let it = unsafe { cast_items::<D, 2>(items) };
                for &(c, l) in it {
                    out.push(Key::from_raw_unchecked(interleave2(c), l));
                }
            }
            _ => panic!("unsupported dimension {D}"),
        }
        out
    }

    /// `(x | (x >> S)) & MASK` — one step of a 4-lane compact cascade.
    #[target_feature(enable = "avx2")]
    fn gather_step<const S: i32>(x: __m256i, mask: u64) -> __m256i {
        _mm256_and_si256(
            _mm256_or_si256(x, _mm256_srli_epi64::<S>(x)),
            _mm256_set1_epi64x(mask as i64),
        )
    }

    /// 4-lane [`crate::bits::compact3`]: the identical magic-mask cascade,
    /// one step per constant, on four codes at once.
    #[target_feature(enable = "avx2")]
    fn compact3_x4(x: __m256i) -> __m256i {
        let mut x = _mm256_and_si256(x, _mm256_set1_epi64x(0x1249_2492_4924_9249));
        x = gather_step::<2>(x, 0x10c3_0c30_c30c_30c3);
        x = gather_step::<4>(x, 0x100f_00f0_0f00_f00f);
        x = gather_step::<8>(x, 0x001f_0000_ff00_00ff);
        x = gather_step::<16>(x, 0x001f_0000_0000_ffff);
        x = gather_step::<32>(x, 0x1f_ffff);
        x
    }

    /// 4-lane [`crate::bits::compact2`].
    #[target_feature(enable = "avx2")]
    fn compact2_x4(x: __m256i) -> __m256i {
        let mut x = _mm256_and_si256(x, _mm256_set1_epi64x(0x5555_5555_5555_5555));
        x = gather_step::<1>(x, 0x3333_3333_3333_3333);
        x = gather_step::<2>(x, 0x0f0f_0f0f_0f0f_0f0f);
        x = gather_step::<4>(x, 0x00ff_00ff_00ff_00ff);
        x = gather_step::<8>(x, 0x0000_ffff_0000_ffff);
        x = gather_step::<16>(x, 0x7fff_ffff);
        x
    }

    /// Batch deinterleave, 4 keys per iteration through the vectorized
    /// compact cascade. Deliberately *not* `pext`-based: `pext` is
    /// microcoded (slow) on several x86-64 parts where AVX2 shifts are
    /// full-speed, and one cascade amortized over 4 lanes beats even a
    /// fast `pext` per key. Tail keys (< 4) fall back to the BMI2 helper.
    ///
    /// # Safety
    /// The CPU must support AVX2 and BMI2 (the dispatch only selects this
    /// path when both are present).
    #[target_feature(enable = "avx2")]
    #[target_feature(enable = "bmi2")]
    pub unsafe fn decode_slice<const D: usize>(keys: &[Key<D>]) -> Vec<[u64; D]> {
        assert!(D == 2 || D == 3, "unsupported dimension {D}");
        let n = keys.len();
        // Preallocated (not push-grown): the 4-wide body writes 4 * D
        // coordinates per iteration and per-push capacity checks would
        // cost more than the cascade saves.
        let mut out = vec![[0u64; D]; n];
        let mut i = 0;
        while i + 4 <= n {
            // Register inserts, not a gather through a stack array: a
            // 32-byte reload spanning four fresh 8-byte stores defeats
            // store-to-load forwarding and stalls every iteration.
            let c = _mm256_set_epi64x(
                keys[i + 3].raw() as i64,
                keys[i + 2].raw() as i64,
                keys[i + 1].raw() as i64,
                keys[i].raw() as i64,
            );
            // Writes below cover `out[i..i + 4]` exactly (4 * D lanes),
            // in bounds because `i + 4 <= n`.
            let dst: *mut u64 = out[i..].as_mut_ptr().cast();
            if D == 3 {
                // Per-axis cascades over `code >> a`, as in
                // `bits::deinterleave`, then a 4x3 in-register transpose
                // (unpack + cross-lane permutes) so the result lands in
                // `out`'s key-major layout with three contiguous stores —
                // a lane-at-a-time scatter through the stack costs more
                // than the cascades.
                let x = compact3_x4(c);
                let y = compact3_x4(_mm256_srli_epi64::<1>(c));
                let z = compact3_x4(_mm256_srli_epi64::<2>(c));
                let xy_lo = _mm256_unpacklo_epi64(x, y); // [x0 y0 x2 y2]
                let xy_hi = _mm256_unpackhi_epi64(x, y); // [x1 y1 x3 y3]
                let yz_hi = _mm256_unpackhi_epi64(y, z); // [y1 z1 y3 z3]
                let zx = _mm256_unpacklo_epi64(z, xy_hi); // [z0 x1 z2 x3]
                let r0 = _mm256_permute2x128_si256::<0x20>(xy_lo, zx); // [x0 y0 z0 x1]
                let r1 = _mm256_permute2x128_si256::<0x30>(yz_hi, xy_lo); // [y1 z1 x2 y2]
                let r2 = _mm256_permute2x128_si256::<0x31>(zx, yz_hi); // [z2 x3 y3 z3]
                                                                       // SAFETY: 3 unaligned 32-byte stores = 96 bytes = 4 keys'
                                                                       // 3 coordinates each, all inside `out[i..i + 4]`.
                unsafe {
                    _mm256_storeu_si256(dst.cast(), r0);
                    _mm256_storeu_si256(dst.add(4).cast(), r1);
                    _mm256_storeu_si256(dst.add(8).cast(), r2);
                }
            } else {
                let x = compact2_x4(c);
                let y = compact2_x4(_mm256_srli_epi64::<1>(c));
                let xy_lo = _mm256_unpacklo_epi64(x, y); // [x0 y0 x2 y2]
                let xy_hi = _mm256_unpackhi_epi64(x, y); // [x1 y1 x3 y3]
                let r0 = _mm256_permute2x128_si256::<0x20>(xy_lo, xy_hi); // [x0 y0 x1 y1]
                let r1 = _mm256_permute2x128_si256::<0x31>(xy_lo, xy_hi); // [x2 y2 x3 y3]
                                                                          // SAFETY: 2 unaligned 32-byte stores = 64 bytes = 4 keys'
                                                                          // 2 coordinates each, all inside `out[i..i + 4]`.
                unsafe {
                    _mm256_storeu_si256(dst.cast(), r0);
                    _mm256_storeu_si256(dst.add(4).cast(), r1);
                }
            }
            i += 4;
        }
        for (coords, k) in out[i..].iter_mut().zip(&keys[i..]) {
            if D == 3 {
                coords.copy_from_slice(&deinterleave3(k.raw()));
            } else {
                coords.copy_from_slice(&deinterleave2(k.raw()));
            }
        }
        out
    }

    // `pdep`/`pext` are register-only intrinsics: with the feature enabled
    // on the function they are *safe* to call, so the `unsafe` obligation
    // lives solely at the dispatch call sites (which proved the feature at
    // runtime before calling these `#[target_feature]` functions).

    /// One 3D interleave: deposit each axis into its stride-3 lane.
    #[target_feature(enable = "bmi2")]
    fn interleave3(c: [u64; 3]) -> u64 {
        _pdep_u64(c[0], MASK3) | _pdep_u64(c[1], MASK3 << 1) | _pdep_u64(c[2], MASK3 << 2)
    }

    /// One 2D interleave.
    #[target_feature(enable = "bmi2")]
    fn interleave2(c: [u64; 2]) -> u64 {
        _pdep_u64(c[0], MASK2) | _pdep_u64(c[1], MASK2 << 1)
    }

    /// One 3D deinterleave: extract each stride-3 lane.
    #[target_feature(enable = "bmi2")]
    fn deinterleave3(code: u64) -> [u64; 3] {
        [_pext_u64(code, MASK3), _pext_u64(code, MASK3 << 1), _pext_u64(code, MASK3 << 2)]
    }

    /// One 2D deinterleave.
    #[target_feature(enable = "bmi2")]
    fn deinterleave2(code: u64) -> [u64; 2] {
        [_pext_u64(code, MASK2), _pext_u64(code, MASK2 << 1)]
    }

    /// Fused anchor kernel: `keys[i].raw() << (D * (MAX_LEVEL -
    /// keys[i].level()))` in a single pass, 4 lanes at a time (`vpsllvq`),
    /// without materializing intermediate code/shift vectors (three extra
    /// memory passes that erase the SIMD win once the batch spills L2).
    /// Shift counts are < 64 (guaranteed: `D * MAX_LEVEL <= 63`).
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn anchors_slice<const D: usize>(keys: &[Key<D>]) -> Vec<u64> {
        let max = Key::<D>::MAX_LEVEL;
        let n = keys.len();
        let mut out = vec![0u64; n];
        let mut i = 0;
        while i + 4 <= n {
            let mut codes = [0u64; 4];
            let mut shifts = [0u64; 4];
            for (lane, k) in keys[i..i + 4].iter().enumerate() {
                codes[lane] = k.raw();
                shifts[lane] = D as u64 * (max - k.level()) as u64;
            }
            // SAFETY: the 4-lane unaligned accesses cover exactly the two
            // stack arrays and `out[i..i + 4]` (`i + 4 <= n`); AVX2 is
            // enabled on this function.
            unsafe {
                let c = _mm256_loadu_si256(codes.as_ptr().cast());
                let s = _mm256_loadu_si256(shifts.as_ptr().cast());
                _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), _mm256_sllv_epi64(c, s));
            }
            i += 4;
        }
        for (o, k) in out[i..].iter_mut().zip(&keys[i..]) {
            *o = k.raw() << (D as u32 * (max - k.level()) as u32);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{OctKey, QuadKey};

    #[test]
    fn dispatch_respects_env_override() {
        // `active()` is cached per process: when CI pins the fallback via
        // the environment it must report Scalar; otherwise it must agree
        // with the hardware probe. Either way the dispatch path is
        // exercised.
        if forced_scalar() {
            assert_eq!(active(), Dispatch::Scalar);
        } else {
            assert_eq!(active(), Dispatch::hardware());
        }
    }

    #[test]
    fn encode_decode_roundtrip_all_dispatches() {
        let items: Vec<([u64; 3], u8)> =
            vec![([0, 0, 0], 0), ([1, 2, 3], 2), ([5, 9, 14], 4), ([(1 << 21) - 1, 0, 7], 21)];
        for d in [Dispatch::Scalar, Dispatch::hardware()] {
            let keys = encode_many_with(d, &items);
            for (k, &(c, l)) in keys.iter().zip(&items) {
                assert_eq!(*k, OctKey::from_coords(c, l), "{d:?}");
            }
            let back = decode_many_with(d, &keys);
            for (b, &(c, _)) in back.iter().zip(&items) {
                assert_eq!(*b, c, "{d:?}");
            }
        }
    }

    #[test]
    fn cmp_matches_zcmp() {
        let a = vec![OctKey::root(), OctKey::root().child(3), OctKey::root().child(1).child(7)];
        let b = vec![OctKey::root().child(0), OctKey::root().child(3), OctKey::root().child(2)];
        for d in [Dispatch::Scalar, Dispatch::hardware()] {
            let got = cmp_keys_many_with(d, &a, &b);
            let want: Vec<_> = a.iter().zip(&b).map(|(x, y)| x.zcmp(y)).collect();
            assert_eq!(got, want, "{d:?}");
        }
    }

    #[test]
    fn children_match_per_key() {
        let keys = vec![QuadKey::root(), QuadKey::root().child(2).child(1)];
        for d in [Dispatch::Scalar, Dispatch::hardware()] {
            let flat = children_many_with(d, &keys);
            assert_eq!(flat.len(), keys.len() * QuadKey::FANOUT);
            for (i, k) in keys.iter().enumerate() {
                let want: Vec<_> = k.children().collect();
                assert_eq!(&flat[i * QuadKey::FANOUT..(i + 1) * QuadKey::FANOUT], &want[..]);
            }
        }
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
