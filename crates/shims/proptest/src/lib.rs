//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships the subset of proptest's API that its property tests use: the
//! `proptest!` macro, `any`, integer-range / vec / tuple / select /
//! union / map / recursive strategies, a character-class string
//! strategy, and the `prop_assert*` macros.
//!
//! Semantics differ from real proptest in two deliberate ways: inputs
//! are sampled from a *deterministic* RNG keyed on the test name (every
//! run tests the same cases — reproducibility over novelty), and there
//! is no shrinking (a failing case prints its assertion directly).

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::{SizeRange, Strategy, VecStrategy};

    /// A strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        VecStrategy { element, lo, hi }
    }
}

/// Sampling strategies (`prop::sample::select`).
pub mod sample {
    use crate::strategy::Select;

    /// A strategy drawing one element of `options`, uniformly.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }
}

/// Everything a property test file needs, star-importable.
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirror of proptest's `prelude::prop` module shorthand.
    pub mod prop {
        pub use crate::{collection, sample};
    }
}

/// The per-test loop behind the `proptest!` macro. Not public API.
#[macro_export]
macro_rules! __proptest_body {
    ($cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng =
                    $crate::test_runner::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

/// Declare property tests: each `fn name(arg in strategy, ..) { .. }`
/// becomes a `#[test]` that runs the body over sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

/// Assert inside a property test (no shrinking here, so plain assert).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// A strategy choosing uniformly among the given strategies (which must
/// share a value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::Strategy::boxed($s)),+])
    };
}
