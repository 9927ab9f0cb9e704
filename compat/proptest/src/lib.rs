//! Offline, dependency-free stand-in for the slice of the `proptest` API
//! this workspace's property tests use.
//!
//! The build environment cannot reach a crates registry, so the workspace
//! path-redirects `proptest` here. Semantics: each `proptest!` test runs
//! `ProptestConfig::cases` cases with inputs drawn from a per-test
//! deterministic RNG (seeded from the test name), and assertion failures
//! panic immediately. There is **no shrinking** — a failing case reports
//! its values via the assertion message only — but generation is fully
//! reproducible run-to-run, which is what the crash-consistency suites
//! rely on.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Test-runner configuration and deterministic RNG.
pub mod test_runner {
    /// Per-test configuration (stand-in for `proptest::test_runner::ProptestConfig`).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running exactly `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Real proptest defaults to 256; 64 keeps the heavier
            // crash-consistency suites fast while still sweeping the
            // operation space.
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic splitmix64 generator used for case generation.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed the stream from a test name so every test gets a distinct
        /// but stable input sequence.
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the test name.
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next 64-bit word of the stream.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn next_unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform usize in `[0, bound)`; `bound` must be non-zero.
        pub fn next_below(&mut self, bound: usize) -> usize {
            (self.next_u64() % bound as u64) as usize
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of type `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree / shrinking: a strategy
    /// is just a deterministic function of the RNG stream.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! impl_strategy_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start.wrapping_add((rng.next_u64() % span) as $t)
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add((rng.next_u64() % (span + 1)) as $t)
                }
            }
        )*};
    }

    impl_strategy_int_range!(usize, u64, u32, u16, u8, i64, i32, i8);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for core::ops::RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            lo + rng.next_unit_f64() * (hi - lo)
        }
    }

    macro_rules! impl_strategy_tuple {
        ($($name:ident),+) => {
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_strategy_tuple!(A);
    impl_strategy_tuple!(A, B);
    impl_strategy_tuple!(A, B, C);
    impl_strategy_tuple!(A, B, C, D);
    impl_strategy_tuple!(A, B, C, D, E);

    /// Type-erased strategy, used by [`Union`] to mix heterogeneous arms.
    pub struct BoxedStrategy<T> {
        gen_fn: Box<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.gen_fn)(rng)
        }
    }

    /// Erase a strategy's type (used by the `prop_oneof!` expansion).
    pub fn boxed<S>(s: S) -> BoxedStrategy<S::Value>
    where
        S: Strategy + 'static,
    {
        BoxedStrategy { gen_fn: Box::new(move |rng| s.generate(rng)) }
    }

    /// Weighted choice between type-erased arms (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
    }

    impl<T> Union<T> {
        /// Build from `(weight, strategy)` arms; total weight must be > 0.
        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            assert!(
                arms.iter().map(|(w, _)| *w as u64).sum::<u64>() > 0,
                "prop_oneof: zero total weight"
            );
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
            let mut pick = rng.next_u64() % total;
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weighted pick out of range")
        }
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draw a uniformly distributed value of `Self`.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

    impl Arbitrary for f64 {
        fn arbitrary_value(rng: &mut TestRng) -> f64 {
            rng.next_unit_f64()
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Clone, Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// Full-domain strategy for `T` (stand-in for `proptest::arbitrary::any`).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length bounds for generated collections.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_inclusive: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from a [`SizeRange`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi_inclusive - self.size.lo + 1;
            let len = self.size.lo + rng.next_below(span);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vector strategy (stand-in for `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Sampling strategies (`prop::sample`).
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy choosing uniformly from a fixed list.
    #[derive(Clone, Debug)]
    pub struct Select<T: Clone> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.items[rng.next_below(self.items.len())].clone()
        }
    }

    /// Uniform choice from `items` (stand-in for `proptest::sample::select`).
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select from empty list");
        Select { items }
    }
}

/// The proptest prelude: everything tests conventionally glob-import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Module-style access to strategy factories (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
        pub use crate::strategy;
    }
}

/// Assert inside a property test (panics — no shrinking in this stand-in).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assert inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assert inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skip the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($rest:tt)*)?) => {
        if !($cond) {
            return ::core::result::Result::Ok(());
        }
    };
}

/// Weighted (or unweighted) choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $((1u32, $crate::strategy::boxed($strat))),+
        ])
    };
}

/// Define property tests: each `fn name(arg in strategy, ...)` item runs
/// `cases` times with deterministically generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let case_fn = || -> ::core::result::Result<(), ()> {
                    $body
                    ::core::result::Result::Ok(())
                };
                if case_fn().is_err() {
                    panic!("proptest case {case} rejected unexpectedly");
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Push(u8),
        Pop,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                3 => (0u8..=255).prop_map(Op::Push),
                1 => Just(Op::Pop),
            ],
            0..20,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ranges_respect_bounds(a in 3usize..9, b in 0.0f64..=1.0, c in any::<u64>()) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((0.0..=1.0).contains(&b));
            prop_assume!(c != 1);
            prop_assert_ne!(c, 1);
        }

        #[test]
        fn vec_strategy_sizes(ops in arb_ops(), pick in prop::sample::select(vec![-1i8, 1])) {
            prop_assert!(ops.len() < 20);
            prop_assert!(pick == -1 || pick == 1);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = arb_ops();
        let mut r1 = crate::test_runner::TestRng::deterministic("x");
        let mut r2 = crate::test_runner::TestRng::deterministic("x");
        assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
    }
}
