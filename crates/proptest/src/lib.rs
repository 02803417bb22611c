//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace uses: the
//! [`Strategy`] trait with `prop_map`, range and tuple strategies,
//! `proptest::collection::vec`, the [`proptest!`] macro (including
//! `#![proptest_config(...)]`), and `prop_assert!`/`prop_assert_eq!`.
//!
//! Unlike upstream proptest there is no shrinking: a failing case panics
//! with the sampled inputs in the panic message instead. Case generation is
//! deterministic — the RNG is seeded from the test's case index — so
//! failures reproduce exactly across runs and machines.

use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values for property tests.
pub trait Strategy {
    /// The generated type.
    type Value: std::fmt::Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U: std::fmt::Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
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

impl<S: Strategy, U: std::fmt::Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(f64, usize, u64, u32, i64, i32);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);

pub mod collection {
    //! Collection strategies.

    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Size specification: a fixed length or a half-open range of lengths.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for `Vec`s of `element` values with length drawn from `size`.
    pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Re-exports used by `proptest_config` attributes.
    pub use super::ProptestConfig;
}

pub mod prelude {
    //! The usual imports: `use proptest::prelude::*;`.
    pub use super::test_runner::ProptestConfig;
    pub use super::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property, reporting the failing expression.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, "property assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(, $($fmt:tt)*)?) => {
        assert_eq!($a, $b $(, $($fmt)*)?);
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(, $($fmt:tt)*)?) => {
        assert_ne!($a, $b $(, $($fmt)*)?);
    };
}

/// Declares property tests. Supports the forms used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///     #[test]
///     fn my_property(x in 0.0f64..1.0, v in proptest::collection::vec(0u64..9, 4)) {
///         prop_assert!(x < 1.0);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    (@impl ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    // Deterministic per-case seed → failures reproduce.
                    let mut __proptest_rng = <::rand::rngs::StdRng as ::rand::SeedableRng>::seed_from_u64(
                        0x5EED_0000_0000_0000u64 ^ u64::from(case),
                    );
                    $(
                        let $arg = $crate::Strategy::generate(&($strat), &mut __proptest_rng);
                    )+
                    // Render inputs up front: the body closure takes them by value.
                    let __proptest_inputs =
                        [$(format!("{} = {:?}", stringify!($arg), $arg)),+].join(", ");
                    let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| { $body }));
                    if let Err(err) = result {
                        let msg = err
                            .downcast_ref::<String>()
                            .map(|s| s.as_str())
                            .or_else(|| err.downcast_ref::<&str>().copied())
                            .unwrap_or("<non-string panic>");
                        panic!(
                            "property '{}' failed at case {case}: {msg}\n  inputs: {__proptest_inputs}",
                            stringify!($name),
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(x in 1.5f64..2.5, k in 3u64..9) {
            prop_assert!((1.5..2.5).contains(&x));
            prop_assert!((3..9).contains(&k));
        }

        #[test]
        fn vec_and_map_compose(v in crate::collection::vec(0.0f64..1.0, 7)) {
            prop_assert_eq!(v.len(), 7);
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }

        #[test]
        fn tuples_and_prop_map(p in (0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| a + b)) {
            prop_assert!((0.0..2.0).contains(&p));
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(x in 0u32..10) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    fn failing_property_reports_inputs() {
        // A property that always fails must panic with the case inputs.
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(1))]
                #[allow(unused)]
                fn always_fails(x in 0.0f64..1.0) {
                    prop_assert!(x > 2.0);
                }
            }
            always_fails();
        });
        let err = result.expect_err("property should have failed");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("always_fails") && msg.contains("inputs"), "{msg}");
    }
}
