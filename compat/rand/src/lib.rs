//! Offline, dependency-free stand-in for the tiny slice of the `rand`
//! crate API this workspace uses.
//!
//! The build environment has no network access to a crates registry, so
//! the workspace path-redirects `rand` here (see `[workspace.dependencies]`
//! in the root manifest). The simulator only ever needs *seeded,
//! deterministic* pseudo-randomness — every consumer constructs its RNG
//! with [`SeedableRng::seed_from_u64`] — so a splitmix64 generator is a
//! faithful substitute: same API, same determinism guarantees, no
//! cryptographic claims.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Return the next pseudo-random 64-bit word.
    fn next_u64(&mut self) -> u64;
}

/// RNGs that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Build a generator whose entire stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`] (mirrors `rand::Rng`).
pub trait Rng: RngCore {
    /// Sample uniformly from `range`. Matches `rand`'s panic behaviour on
    /// empty ranges.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

impl<T: RngCore> Rng for T {}

/// Ranges that can be sampled by [`Rng::gen_range`].
pub trait SampleRange {
    /// The element type produced by sampling.
    type Output;
    /// Draw one uniform sample from the range.
    fn sample<R: RngCore>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

impl_sample_range_uint!(usize, u64, u32, u16, u8);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

/// Named RNG implementations (mirrors `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic splitmix64 generator standing in for `rand::rngs::StdRng`.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // splitmix64 (Steele, Lea, Flood 2014): full-period, passes
            // BigCrush; ideal for reproducible simulation streams.
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.gen_range(0usize..100), b.gen_range(0usize..100));
        }
    }

    #[test]
    fn range_sampling_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
    }
}
