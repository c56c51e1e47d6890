//! Offline drop-in shim for the subset of the `proptest` 1.x API this
//! workspace uses.
//!
//! The build environment has no network access, so the real `proptest`
//! crate cannot be vendored. This shim keeps the same source-level API —
//! the [`proptest!`] macro, [`Strategy`](strategy::Strategy) with `prop_map` /
//! `prop_flat_map` / `prop_recursive` / `boxed`, [`collection::vec`],
//! [`any`](strategy::any),
//! [`prop_oneof!`], and the `prop_assert*` macros — backed by plain
//! seeded random sampling:
//!
//! * each property runs [`test_runner::CASES`] random cases seeded
//!   deterministically from the test's name, so failures reproduce;
//! * there is **no shrinking**: a failing case panics with the sampled
//!   values visible in the assertion message.

pub mod strategy {
    //! Strategies: composable random generators for test inputs.

    use rand::rngs::StdRng;
    use rand::{Rng, SampleUniform};
    use std::marker::PhantomData;
    use std::rc::Rc;

    /// A composable source of random values for property tests.
    pub trait Strategy {
        /// The type of values produced.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps produced values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Draws a value, then draws from the strategy `f` builds from it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Builds a recursive strategy: `recurse` receives a strategy for
        /// the inner levels and the recursion bottoms out at `self` after
        /// `depth` applications. (`desired_size` and `expected_branch_size`
        /// are accepted for API compatibility and ignored.)
        fn prop_recursive<F, S>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
            S: Strategy<Value = Self::Value> + 'static,
        {
            let mut strat = self.boxed();
            for _ in 0..depth {
                strat = recurse(strat.clone()).boxed();
            }
            strat
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// Object-safe sampling, for [`BoxedStrategy`].
    trait DynStrategy<T> {
        fn sample_dyn(&self, rng: &mut StdRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn sample_dyn(&self, rng: &mut StdRng) -> S::Value {
            self.sample(rng)
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            self.0.sample_dyn(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn sample(&self, rng: &mut StdRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, T> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        T: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T::Value;
        fn sample(&self, rng: &mut StdRng) -> T::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// Always produces a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    impl<T: SampleUniform + Copy> Strategy for std::ops::Range<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    impl<T: SampleUniform + Copy> Strategy for std::ops::RangeInclusive<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A / 0);
    impl_tuple_strategy!(A / 0, B / 1);
    impl_tuple_strategy!(A / 0, B / 1, C / 2);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

    /// Types with a canonical "any value" strategy (stand-in for
    /// `Arbitrary`).
    pub trait ArbitrarySample: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    impl ArbitrarySample for bool {
        fn arbitrary(rng: &mut StdRng) -> bool {
            rng.gen()
        }
    }

    macro_rules! impl_arbitrary_std {
        ($($t:ty),*) => {$(
            impl ArbitrarySample for $t {
                fn arbitrary(rng: &mut StdRng) -> $t {
                    rng.gen()
                }
            }
        )*};
    }

    impl_arbitrary_std!(u8, u16, u32, u64, usize, i8, i16, i32, i64, f32, f64);

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: ArbitrarySample> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy producing any value of `T`.
    pub fn any<T: ArbitrarySample>() -> Any<T> {
        Any(PhantomData)
    }

    /// Uniform choice between type-erased alternatives (the engine behind
    /// [`crate::prop_oneof!`]).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union of the given alternatives (must be non-empty).
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            let i = rng.gen_range(0..self.arms.len());
            self.arms[i].sample(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use rand::rngs::StdRng;

    /// A strategy for vectors of exactly `size` elements drawn from
    /// `element`. (The real crate also accepts size ranges; this workspace
    /// only uses fixed sizes.)
    pub fn vec<S: Strategy>(element: S, size: usize) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            (0..self.size).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Deterministic per-test drivers for the [`crate::proptest!`] macro.

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Random cases per property.
    pub const CASES: usize = 64;

    /// A deterministic generator seeded from the property's name, so each
    /// property sees a reproducible stream.
    pub fn rng_for(test_name: &str) -> StdRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        StdRng::seed_from_u64(h)
    }
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running [`test_runner::CASES`] sampled cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident ($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut proptest_rng = $crate::test_runner::rng_for(stringify!($name));
                for _ in 0..$crate::test_runner::CASES {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut proptest_rng);)+
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property (no shrinking: panics directly).
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Skips the current case when its sampled inputs don't satisfy a
/// precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// Uniform choice between strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

pub mod prelude {
    //! The glob-importable API surface, mirroring `proptest::prelude`.

    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn strategies_sample_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = Strategy::sample(&(0u32..7), &mut rng);
            assert!(x < 7);
            let v = Strategy::sample(&crate::collection::vec(any::<bool>(), 9), &mut rng);
            assert_eq!(v.len(), 9);
            let m = Strategy::sample(&(1i64..4).prop_map(|i| i * 10), &mut rng);
            assert!([10, 20, 30].contains(&m));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let s = prop_oneof![Just(1u8), Just(2u8), 5u8..7];
        let mut seen = [false; 7];
        for _ in 0..200 {
            seen[Strategy::sample(&s, &mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[5] && seen[6]);
    }

    #[test]
    fn recursive_bottoms_out() {
        #[derive(Debug)]
        #[allow(dead_code)]
        enum Tree {
            Leaf(bool),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = any::<bool>()
            .prop_map(Tree::Leaf)
            .prop_recursive(4, 16, 2, |inner| {
                prop_oneof![
                    inner.clone(),
                    (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b))),
                ]
            })
            .boxed();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut max_depth = 0;
        for _ in 0..300 {
            let t = Strategy::sample(&strat, &mut rng);
            let d = depth(&t);
            assert!(d <= 4, "recursion must bottom out at the declared depth");
            max_depth = max_depth.max(d);
        }
        assert!(
            max_depth >= 2,
            "recursion should actually nest (saw {max_depth})"
        );
    }

    proptest! {
        #[test]
        fn prop_macro_binds_and_loops(a in 0u32..10, b in 0u32..10) {
            prop_assert!(a < 10 && b < 10);
            prop_assume!(a != b);
            prop_assert!(a != b);
        }
    }
}
