//! Offline stand-in for the `proptest` crate (see the README "Offline
//! builds" section). Supports the subset this workspace uses:
//!
//! - the `proptest! { #![proptest_config(...)] fn name(x in strat, ..) }`
//!   macro form;
//! - range strategies (`1u32..40`, `0.0f64..0.5`), `any::<T>()`, tuples,
//!   `prop::collection::vec(elem, len_range)`, `.prop_map(..)`, `Just`;
//! - `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`.
//!
//! Semantics: each test function runs `ProptestConfig::cases` times with
//! inputs drawn from a deterministic per-(test, case) RNG. Integer and
//! `any` strategies are edge-biased (range endpoints, 0, MAX show up with
//! probability ~1/4) to keep most of proptest's bug-finding power. There
//! is no shrinking: a failing case panics with the sampled values fixed
//! by the deterministic seed, so failures reproduce exactly.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Deterministic RNG used to sample strategy values (splitmix64 seeded
/// from a hash of the test name and case index).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for case `case` of the test named `name`.
    pub fn deterministic(name: &str, case: u32) -> TestRng {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            state: h ^ ((case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Run configuration; only `cases` is honoured.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of sampled cases per test function.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator, mirroring `proptest::strategy::Strategy`.
pub trait Strategy {
    /// Type of the generated values.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Edge bias: hit the endpoints often.
                match rng.next_u64() % 8 {
                    0 => self.start,
                    1 => ((self.end as i128) - 1) as $t,
                    _ => {
                        let r = ((rng.next_u64() as u128) % span) as i128;
                        ((self.start as i128) + r) as $t
                    }
                }
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                if rng.next_u64() % 8 == 0 {
                    return self.start;
                }
                let u = rng.unit_f64() as $t;
                let v = self.start + u * (self.end - self.start);
                if v >= self.end { self.start } else { v }
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// Types with a default "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value (edge-biased).
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                match rng.next_u64() % 8 {
                    0 => 0,
                    1 => <$t>::MAX,
                    2 => <$t>::MIN,
                    3 => 1,
                    _ => rng.next_u64() as $t,
                }
            }
        }
    )*};
}
int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()`: the default strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub mod collection {
    //! Collection strategies (`vec`).

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification accepted by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors of `element` values with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prop {
    //! `prop::` namespace as re-exported by the prelude.
    pub use crate::collection;
}

pub mod prelude {
    //! Glob import mirroring `proptest::prelude::*`.
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig,
        Strategy, TestRng,
    };
}

/// Assert inside a proptest body.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Assert inequality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ($cfg:expr;) => {};
    ($cfg:expr; $(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        #[test]
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_fns!($cfg; $($rest)*);
    };
}

/// The `proptest!` macro: a block of property test functions, optionally
/// preceded by `#![proptest_config(..)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!($crate::ProptestConfig::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        fn ranges_stay_in_bounds(a in 1u32..40, x in -2.0f64..2.0) {
            prop_assert!((1..40).contains(&a));
            prop_assert!((-2.0..2.0).contains(&x));
        }

        fn vec_lengths_respected(v in prop::collection::vec(0u64..10, 1..8)) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            for e in v {
                prop_assert!(e < 10);
            }
        }

        fn tuples_and_map(pair in (1u32..5, 1u32..5).prop_map(|(a, b)| a * b)) {
            prop_assert!((1..=16).contains(&pair));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::deterministic("t", 3);
        let mut b = TestRng::deterministic("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn edges_are_hit() {
        let strat = 1u32..40;
        let mut lo = false;
        let mut hi = false;
        for case in 0..200 {
            let mut rng = TestRng::deterministic("edges", case);
            match Strategy::sample(&strat, &mut rng) {
                1 => lo = true,
                39 => hi = true,
                _ => {}
            }
        }
        assert!(lo && hi, "endpoints never sampled");
    }
}
