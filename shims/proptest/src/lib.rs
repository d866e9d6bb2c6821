//! Minimal, std-only stand-in for the crates.io `proptest` package.
//!
//! The offline CI environment cannot reach a cargo registry, so this shim
//! provides the subset of the proptest API this workspace actually uses:
//!
//! * the [`proptest!`] macro (each `#[test]` runs many generated cases),
//! * range / `any::<T>()` / [`Just`] strategies,
//! * `prop::collection::vec`, `prop::option::of`, [`prop_oneof!`],
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assume!`.
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports its case index and the
//!   derived seed; re-running the same binary reproduces it exactly.
//! * **Deterministic by default.** Seeds are derived from the test name
//!   and case index, so runs are bit-for-bit reproducible. Set
//!   `PROPTEST_SEED` to explore a different universe, `PROPTEST_CASES`
//!   to change the number of cases per test (default 48).
//! * **`.proptest-regressions` files are not replayed automatically.**
//!   The shim's RNG cannot consume upstream seed hashes, but the files
//!   also record the shrunk argument *values*; the [`regressions`]
//!   module parses them so a plain `#[test]` can replay every persisted
//!   failure explicitly (see `tests/properties.rs`).

#![allow(clippy::disallowed_methods, reason = "reads PROPTEST_CASES and _SEED")]

use std::marker::PhantomData;
use std::ops::Range;

pub mod regressions;

/// Why a generated test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was rejected by `prop_assume!` — skipped, not a failure.
    Reject(String),
    /// The case failed an assertion.
    Fail(String),
}

/// Deterministic generator state (splitmix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Builds the RNG for one test case from the test's name and the case
    /// index, plus the optional `PROPTEST_SEED` environment override.
    #[must_use]
    pub fn for_case(test_name: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let env_seed = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        TestRng {
            state: h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ env_seed,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift keeps the distribution uniform enough for tests.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// How many cases each property runs (`PROPTEST_CASES`, default 48).
    #[must_use]
    pub fn cases() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(48)
            .max(1)
    }
}

/// A value generator. The shim generates eagerly; there is no shrinking.
pub trait Strategy {
    /// The type of generated values.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// Strategy producing a constant.
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_uint_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = self.end as u128 - self.start as u128;
                let off = (u128::from(rng.next_u64()) * width) >> 64;
                self.start + off as $t
            }
        }
    )*};
}
impl_uint_range!(u8, u16, u32, u64, usize);

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as i128 - self.start as i128) as u128;
                let off = (u128::from(rng.next_u64()) * width) >> 64;
                (self.start as i128 + off as i128) as $t
            }
        }
    )*};
}
impl_int_range!(i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let u = rng.next_f64() as $t;
                self.start + u * (self.end - self.start)
            }
        }
    )*};
}
impl_float_range!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident/$i:tt),+)),*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy!((A/0, B/1), (A/0, B/1, C/2), (A/0, B/1, C/2, D/3));

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value of this type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite values only: tests use these as measurements.
        (rng.next_f64() - 0.5) * 2e12
    }
}

/// Strategy for any value of `T` (see [`Arbitrary`]).
pub struct Any<T>(PhantomData<T>);

/// Returns the canonical strategy for `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Uniform choice among boxed strategies — backs [`prop_oneof!`].
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Builds a union; panics if `options` is empty.
    #[must_use]
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for a `Vec` with element strategy `S` and a length range.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vector of values drawn from `element`, length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let width = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(width) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies (`prop::option::of`).
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy for `Option<S::Value>` — `None` about half the time.
    pub struct OptionStrategy<S>(S);

    /// Wraps `inner`'s values in `Some` half the time, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 0 {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, Just, Strategy, TestCaseError, TestRng, Union,
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// item becomes a `#[test]` that runs `PROPTEST_CASES` generated cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases = $crate::TestRng::cases();
                for case in 0..cases {
                    let mut __rng = $crate::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match outcome {
                        Ok(()) | Err($crate::TestCaseError::Reject(_)) => {}
                        Err($crate::TestCaseError::Fail(msg)) => panic!(
                            "proptest '{}' failed at case {case}/{cases}: {msg}\n\
                             (deterministic: rerun reproduces; PROPTEST_SEED varies the universe)",
                            stringify!($name),
                        ),
                    }
                }
            }
        )+
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Fails the current case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
}

/// Skips the current case unless `cond` holds (not a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {{
        // Sequential pushes let each integer literal unify with the value
        // type pinned by the first option.
        let mut options: ::std::vec::Vec<::std::boxed::Box<dyn $crate::Strategy<Value = _>>> =
            ::std::vec::Vec::new();
        $(options.push(::std::boxed::Box::new($strat));)+
        $crate::Union::new(options)
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3usize..9, y in -5i32..5, z in 0.0f64..1.0) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.0..1.0).contains(&z));
        }

        #[test]
        fn vec_lengths_respect_bounds(v in prop::collection::vec(any::<u8>(), 2..7)) {
            prop_assert!(v.len() >= 2 && v.len() < 7);
        }

        #[test]
        fn oneof_draws_only_listed_values(
            op in prop_oneof![Just(0u8), Just(1), Just(2)],
            opt in prop::option::of(1u64..4),
        ) {
            prop_assert!(op <= 2);
            if let Some(x) = opt {
                prop_assert!((1..4).contains(&x));
            }
        }
    }

    #[test]
    fn same_case_reproduces_bit_for_bit() {
        let draw = || {
            let mut rng = TestRng::for_case("shim::repro", 17);
            (rng.next_u64(), rng.next_f64())
        };
        assert_eq!(draw().0, draw().0);
        assert_eq!(draw().1.to_bits(), draw().1.to_bits());
    }
}
