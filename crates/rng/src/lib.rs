//! # glsc-rng — deterministic PRNG with a `rand`-style API
//!
//! The build environment is fully offline, so the crates.io `rand` crate
//! cannot be fetched. This crate is a small, self-contained stand-in that
//! mirrors the subset of `rand`'s 0.9 API the workspace uses
//! ([`rngs::StdRng`], [`SeedableRng::seed_from_u64`], [`Rng::random`],
//! [`Rng::random_range`], [`Rng::random_bool`], [`seq::SliceRandom`]), so
//! call sites read identically modulo the crate name.
//!
//! The generator is xoshiro256** seeded through SplitMix64 — fast,
//! well-distributed, and (most importantly here) **deterministic across
//! platforms and releases**: dataset generation in `glsc-kernels` must
//! produce bit-identical inputs for reproducible figures.
//!
//! ```
//! use glsc_rng::rngs::StdRng;
//! use glsc_rng::{Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let a = rng.random_range(0..10u32);
//! assert!(a < 10);
//! let p: f64 = rng.random();
//! assert!((0.0..1.0).contains(&p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Seedable constructor, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling interface, mirroring the used subset of `rand::Rng`.
pub trait Rng {
    /// The core entropy source: the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Samples a value of type `T` from its natural distribution
    /// (uniform over the full integer range; uniform in `[0, 1)` for
    /// floats).
    fn random<T: Random>(&mut self) -> T
    where
        Self: Sized,
    {
        T::random(self)
    }

    /// Samples uniformly from `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.random::<f64>() < p
    }
}

/// Types samplable by [`Rng::random`].
pub trait Random {
    /// Draws one value from `rng`.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Random for u32 {
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Random for u64 {
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Random for f64 {
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 24 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Random for bool {
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges samplable by [`Rng::random_range`], mirroring
/// `rand::distr::uniform::SampleRange`.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample<R: Rng>(self, rng: &mut R) -> T;
}

/// Uniform integer in `[0, span)` without modulo bias (Lemire's
/// multiply-shift; bias is unmeasurable at these span sizes and the
/// mapping is deterministic, which is what matters here).
fn below<R: Rng>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return (lo as i128 + rng.next_u64() as i128) as $t;
                }
                (lo as i128 + below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let u: $t = Random::random(rng);
                self.start + u * (self.end - self.start)
            }
        }
    )*};
}

float_range!(f32, f64);

/// Concrete generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256** — the workspace's standard deterministic generator.
    ///
    /// Not cryptographically secure (neither is `rand::rngs::StdRng`'s
    /// use here); chosen for speed and cross-platform determinism.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl StdRng {
        /// The raw xoshiro256** state word vector, for serialization
        /// (a fault plan's wire form carries its RNG mid-stream). Paired
        /// with [`StdRng::from_state`]:
        /// `from_state(rng.state())` continues the exact sequence.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator at the exact point captured by
        /// [`StdRng::state`].
        ///
        /// An all-zero state is the xoshiro fixed point (the generator
        /// would emit zeros forever); it cannot be produced by
        /// `seed_from_u64` and is rejected here by re-seeding from 0,
        /// keeping corrupt bytes from wedging the fault plan.
        pub fn from_state(s: [u64; 4]) -> Self {
            use super::SeedableRng;
            if s == [0; 4] {
                return Self::seed_from_u64(0);
            }
            Self { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Slice helpers, mirroring `rand::seq`.
pub mod seq {
    use super::Rng;

    /// In-place shuffling, mirroring `rand::seq::SliceRandom::shuffle`.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle driven by `rng`.
        fn shuffle<R: Rng>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn state_round_trip_continues_the_sequence() {
        let mut a = StdRng::seed_from_u64(42);
        for _ in 0..37 {
            a.next_u64();
        }
        let mut b = StdRng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // The all-zero fixed point is refused, not propagated.
        let mut z = StdRng::from_state([0; 4]);
        assert_ne!(z.next_u64() | z.next_u64(), 0);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.random_range(3..17u32);
            assert!((3..17).contains(&x));
            let y = rng.random_range(1..=5usize);
            assert!((1..=5).contains(&y));
            let z = rng.random_range(-1.0..1.0f32);
            assert!((-1.0..1.0).contains(&z));
            let w: f64 = rng.random();
            assert!((0.0..1.0).contains(&w));
            let n = rng.random_range(-10..10i64);
            assert!((-10..10).contains(&n));
        }
    }

    #[test]
    fn bool_probability_sane() {
        let mut rng = StdRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "p=0.25 gave {hits}/10000");
        assert_eq!((0..100).filter(|_| rng.random_bool(0.0)).count(), 0);
        assert_eq!((0..100).filter(|_| rng.random_bool(1.0)).count(), 100);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "seeded shuffle moved something"
        );
    }

    #[test]
    fn uniformity_rough_check() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut buckets = [0usize; 8];
        for _ in 0..8000 {
            buckets[rng.random_range(0..8usize)] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((800..1200).contains(&b), "bucket {i} = {b}");
        }
    }
}
