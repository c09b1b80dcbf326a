//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access and no registry cache, so the
//! real `proptest` cannot be fetched. This shim implements the subset of the
//! API the workspace uses — `proptest!`, `prop_assert*`, `prop_assume!`,
//! `prop_oneof!`, `Strategy`/`prop_map`, `any::<T>()`, integer/float range
//! strategies, tuple strategies and `collection::vec` — on top of a small
//! deterministic RNG.
//!
//! Differences from real proptest, by design:
//! - No shrinking. A failing case panics with the sampled inputs unshrunk.
//! - Cases are derived deterministically from the test name and case index,
//!   so every run (and every machine) explores the identical inputs.

#![forbid(unsafe_code)]

pub mod test_runner {
    /// xoshiro256++ seeded via SplitMix64 — same construction simkit uses,
    /// reimplemented here so the shim has no dependencies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            TestRng {
                s: [next(), next(), next(), next()],
            }
        }

        /// Stable per-test, per-case seed: FNV-1a over the test name mixed
        /// with the case index.
        pub fn deterministic(test_name: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self::new(h ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        }

        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        pub fn gen_u64_below(&mut self, bound: u64) -> u64 {
            if bound == 0 {
                return 0;
            }
            // Modulo bias is acceptable for test-input generation.
            self.next_u64() % bound
        }

        pub fn gen_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Only the `cases` knob is honoured; everything else real proptest
    /// configures (shrinking, persistence, forking) has no analogue here.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 48 }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Value-generation strategy. Unlike real proptest there is no value
    /// tree / shrinking: a strategy just samples concrete values.
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                whence,
                f,
            }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    /// `Just(v)` — always yields a clone of `v`.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    pub struct Filter<S, F> {
        inner: S,
        whence: &'static str,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.sample(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter '{}' rejected 1000 consecutive samples",
                self.whence
            );
        }
    }

    /// Uniform choice between boxed alternatives — backs `prop_oneof!`.
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_u64_below(self.arms.len() as u64) as usize;
            self.arms[i].sample(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128 - self.start as u128) as u64;
                    self.start.wrapping_add(rng.gen_u64_below(span) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u128 - lo as u128) + 1;
                    if span > u64::MAX as u128 {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.gen_u64_below(span as u64) as $t)
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.gen_f64() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start() + rng.gen_f64() * (self.end() - self.start())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($n:ident $idx:tt),+);)*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A 0);
        (A 0, B 1);
        (A 0, B 1, C 2);
        (A 0, B 1, C 2, D 3);
        (A 0, B 1, C 2, D 3, E 4);
        (A 0, B 1, C 2, D 3, E 4, F 5);
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.gen_f64()
        }
    }

    impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
        fn arbitrary(rng: &mut TestRng) -> [T; N] {
            std::array::from_fn(|_| T::arbitrary(rng))
        }
    }

    macro_rules! arb_tuple {
        ($(($($n:ident),+);)*) => {$(
            impl<$($n: Arbitrary),+> Arbitrary for ($($n,)+) {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    ($($n::arbitrary(rng),)+)
                }
            }
        )*};
    }
    arb_tuple! {
        (A);
        (A, B);
        (A, B, C);
        (A, B, C, D);
    }

    /// Strategy form of `Arbitrary`, returned by `any::<T>()`.
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.gen_u64_below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::collection;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// `prop::collection::vec(..)`-style paths.
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    (cfg = ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident( $($args:tt)* ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                for __case in 0..__cfg.cases {
                    let mut __rng =
                        $crate::test_runner::TestRng::deterministic(stringify!($name), __case);
                    // A closure per case so `prop_assume!` can early-return.
                    let __one_case = |__rng: &mut $crate::test_runner::TestRng| {
                        $crate::__proptest_bind!(__rng, ($($args)*), $body)
                    };
                    __one_case(&mut __rng);
                }
            }
        )*
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_bind {
    ($rng:ident, ($p:pat in $s:expr, $($rest:tt)*), $body:block) => {{
        let $p = $crate::strategy::Strategy::sample(&($s), $rng);
        $crate::__proptest_bind!($rng, ($($rest)*), $body)
    }};
    ($rng:ident, ($p:pat in $s:expr), $body:block) => {{
        let $p = $crate::strategy::Strategy::sample(&($s), $rng);
        $crate::__proptest_bind!($rng, (), $body)
    }};
    ($rng:ident, ($i:ident : $t:ty, $($rest:tt)*), $body:block) => {{
        let $i: $t = $crate::arbitrary::Arbitrary::arbitrary($rng);
        $crate::__proptest_bind!($rng, ($($rest)*), $body)
    }};
    ($rng:ident, ($i:ident : $t:ty), $body:block) => {{
        let $i: $t = $crate::arbitrary::Arbitrary::arbitrary($rng);
        $crate::__proptest_bind!($rng, (), $body)
    }};
    ($rng:ident, (), $body:block) => { $body };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod self_tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn shim_ranges_in_bounds(x in 10u64..20, y in 0u8..4, f in 0.0f64..1.0) {
            prop_assert!((10..20).contains(&x));
            prop_assert!(y < 4);
            prop_assert!((0.0..1.0).contains(&f));
        }

        #[test]
        fn shim_typed_args(seed: u64, key: [u8; 16], flag: bool) {
            let _ = (seed, key, flag);
            prop_assert_eq!(key.len(), 16);
        }

        #[test]
        fn shim_vec_and_assume(v in collection::vec(any::<u8>(), 0..32)) {
            prop_assume!(!v.is_empty());
            prop_assert!(v.len() < 32);
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        A(u64),
        B(bool),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![(0u64..100).prop_map(Op::A), any::<bool>().prop_map(Op::B),]
    }

    proptest! {
        #[test]
        fn shim_oneof_and_map(ops in collection::vec(op_strategy(), 1..8)) {
            prop_assert!(!ops.is_empty());
        }
    }

    #[test]
    fn shim_is_deterministic() {
        let mut a = TestRng::deterministic("t", 3);
        let mut b = TestRng::deterministic("t", 3);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
