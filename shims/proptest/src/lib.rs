//! Hermetic in-tree stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: the
//! [`proptest!`] macro (with `#![proptest_config(...)]` headers),
//! integer-range / `any::<bool>()` / tuple / `collection::vec`
//! strategies, `prop_assert!` / `prop_assert_eq!` / `prop_assume!`, and a
//! deterministic runner seeded from the test name. On failure the runner
//! panics with the sampled inputs printed. Unlike the real crate there is
//! **no shrinking** and no persistence of regression seeds — failures
//! reproduce exactly because the RNG stream per test is fixed.

#![allow(clippy::all)]

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::{Range, RangeInclusive};

pub mod collection;

/// Runner configuration: how many accepted cases to execute.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) test cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// Failure modes a test case body can signal.
#[derive(Debug)]
pub enum TestCaseError {
    /// Assertion failure with a message (from `prop_assert!` family).
    Fail(String),
    /// Input rejected by `prop_assume!`; the runner draws a fresh case.
    Reject,
}

impl TestCaseError {
    /// Build a [`TestCaseError::Fail`].
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }
}

/// The RNG handed to strategies: deterministic per test name.
pub struct TestRng(ChaCha8Rng);

impl TestRng {
    /// Seed from a test name (FNV-1a hash of the bytes).
    pub fn from_name(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(ChaCha8Rng::seed_from_u64(h))
    }
}

impl RngCore for TestRng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The value type this strategy produces.
    type Value: std::fmt::Debug;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

// Integer range strategies. `Copy` ranges would be nicer but `Range` is
// not `Copy`, so sampling clones the bounds.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy producing a constant value (real proptest's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone + std::fmt::Debug>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized + std::fmt::Debug {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Marker strategy for [`Arbitrary`] types; see [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// The canonical strategy for `T`: `any::<bool>()` etc.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+),)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
}

/// Drive one property: sample-and-run until `config.cases` cases are
/// accepted, bailing out with a panic (inputs included) on the first
/// failure or caught panic.
pub fn run_proptest<F>(config: ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng, &mut String) -> Result<(), TestCaseError>,
{
    let mut rng = TestRng::from_name(name);
    let mut accepted = 0u32;
    let mut attempts = 0u64;
    let max_attempts = (config.cases as u64).saturating_mul(10).max(100);
    while accepted < config.cases {
        if attempts >= max_attempts {
            panic!(
                "proptest `{name}`: too many rejected cases \
                 ({accepted}/{} accepted after {attempts} attempts)",
                config.cases
            );
        }
        attempts += 1;
        let mut inputs = String::new();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng, &mut inputs)));
        match outcome {
            Ok(Ok(())) => accepted += 1,
            Ok(Err(TestCaseError::Reject)) => {}
            Ok(Err(TestCaseError::Fail(msg))) => {
                panic!("proptest `{name}` failed: {msg}\n    inputs: {inputs}")
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                panic!("proptest `{name}` panicked: {msg}\n    inputs: {inputs}")
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Everything the tests import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Any, Arbitrary,
        Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a function running the body over sampled inputs. As in the
/// real crate, the caller's attributes are kept and none is added: a
/// property is a test when it carries `#[test]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_proptest($cfg, stringify!($name), |__rng, __inputs| {
                $(let $arg = $crate::Strategy::sample(&($strat), __rng);)+
                *__inputs = {
                    let mut __s = ::std::string::String::new();
                    $(
                        __s.push_str(concat!(stringify!($arg), " = "));
                        __s.push_str(&format!("{:?}, ", $arg));
                    )+
                    __s
                };
                #[allow(clippy::redundant_closure_call)]
                let __result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                __result
            });
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

/// Assert a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+),
            )));
        }
    };
}

/// Assert equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                __l,
                __r,
            )));
        }
    }};
}

/// Assert inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
            )));
        }
    }};
}

/// Reject the current inputs; the runner draws a fresh case.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respected(n in 1usize..50, b in any::<bool>()) {
            prop_assert!(n >= 1 && n < 50);
            let _ = b;
        }

        #[test]
        fn tuples_and_vecs(
            pairs in crate::collection::vec((0u64..10, any::<bool>()), 0..6),
            fixed in crate::collection::vec(0usize..5, 3),
        ) {
            prop_assert!(pairs.len() < 6);
            prop_assert_eq!(fixed.len(), 3);
            for (x, _) in &pairs {
                prop_assert!(*x < 10, "x = {}", x);
            }
        }

        #[test]
        fn assume_filters(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        let mut c = crate::TestRng::from_name("y");
        use rand::RngCore;
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn failure_reports_inputs() {
        let result = std::panic::catch_unwind(|| {
            crate::run_proptest(
                crate::ProptestConfig::with_cases(8),
                "always_fails",
                |rng, inputs| {
                    let n = crate::Strategy::sample(&(0u32..10), rng);
                    *inputs = format!("n = {n:?}");
                    Err(crate::TestCaseError::fail("boom"))
                },
            )
        });
        let msg = match result {
            Err(payload) => crate::panic_message(payload.as_ref()),
            Ok(()) => panic!("runner should have panicked"),
        };
        assert!(msg.contains("boom") && msg.contains("inputs: n ="), "{msg}");
    }
}
