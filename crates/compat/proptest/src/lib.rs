//! Offline shim for `proptest`.
//!
//! Implements the subset of the proptest API this workspace uses, with
//! deterministic sampling and **no shrinking**: each `proptest!` test runs
//! a fixed number of cases (default 64, override with the `PROPTEST_CASES`
//! environment variable or `ProptestConfig::with_cases`) from a generator
//! seeded by the test's name, so failures are reproducible run to run.
//!
//! Supported surface:
//! * `proptest! { #[test] fn name(x in strategy, y: Type) { .. } }` with an
//!   optional leading `#![proptest_config(..)]`;
//! * `prop_compose!` for derived strategies;
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assert_ne!`;
//! * range strategies over ints and floats, tuples of strategies,
//!   `Vec<Strategy>`, `proptest::collection::vec`, `proptest::option::of`,
//!   `proptest::bool::ANY`, and `Strategy::prop_map`.

pub mod strategy;
pub mod test_runner;

pub use strategy::{Arbitrary, Strategy};
pub use test_runner::{ProptestConfig, SampleRng, TestCaseError};

/// Strategies over collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::SampleRng;
    use std::ops::Range;

    /// Accepted length specifications for [`vec()`]: a range or an exact
    /// length (mirrors proptest's `SizeRange` conversions).
    pub trait IntoSizeRange {
        /// Converts to a half-open length range.
        fn into_size_range(self) -> Range<usize>;
    }

    impl IntoSizeRange for Range<usize> {
        fn into_size_range(self) -> Range<usize> {
            self
        }
    }

    impl IntoSizeRange for usize {
        fn into_size_range(self) -> Range<usize> {
            self..self + 1
        }
    }

    /// Strategy for `Vec`s with a length drawn from `size` and elements
    /// drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Builds a [`VecStrategy`].
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let size = size.into_size_range();
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut SampleRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Strategies over `Option`s.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::SampleRng;

    /// Strategy producing `Some` three times out of four.
    pub struct OptionStrategy<S>(S);

    /// Builds an [`OptionStrategy`].
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut SampleRng) -> Option<S::Value> {
            if rng.next_u64().is_multiple_of(4) {
                None
            } else {
                Some(self.0.sample(rng))
            }
        }
    }
}

/// Strategies over `bool`s.
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::SampleRng;

    /// The uniform boolean strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Uniformly random booleans.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn sample(&self, rng: &mut SampleRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// The common imports.
pub mod prelude {
    pub use crate::strategy::{Arbitrary, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_compose, proptest,
    };
}

/// Defines property tests (shim: fixed-case loop, no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                $crate::test_runner::run_cases(stringify!($name), &__cfg, |__rng| {
                    $crate::__proptest_bind!(__rng; $($params)*);
                    $body
                    Ok(())
                });
            }
        )*
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; $var:ident in $strat:expr) => {
        let $var = $crate::strategy::Strategy::sample(&($strat), $rng);
    };
    ($rng:ident; $var:ident in $strat:expr, $($rest:tt)*) => {
        let $var = $crate::strategy::Strategy::sample(&($strat), $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; $var:ident : $ty:ty) => {
        let $var: $ty = $crate::strategy::Arbitrary::arbitrary($rng);
    };
    ($rng:ident; $var:ident : $ty:ty, $($rest:tt)*) => {
        let $var: $ty = $crate::strategy::Arbitrary::arbitrary($rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
}

/// Composes strategies into a derived strategy-returning function.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $argty:ty),* $(,)?)
        ($($var:ident in $strat:expr),* $(,)?) -> $ret:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($arg: $argty),*) -> impl $crate::strategy::Strategy<Value = $ret> {
            $crate::strategy::FnStrategy(move |__rng: &mut $crate::test_runner::SampleRng| {
                $(let $var = $crate::strategy::Strategy::sample(&($strat), __rng);)*
                $body
            })
        }
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    }};
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
}

/// Skips the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Ok(());
        }
    };
}
