//! Deterministic in-tree pseudo-randomness for the HET reproduction.
//!
//! The repo must build and test in a hermetic environment with no crate
//! registry, so this crate replaces the small slice of the `rand` API the
//! workspace actually uses: seedable generators (`rngs::StdRng`,
//! `rngs::SmallRng`), `Rng::{gen, gen_range, gen_bool}`, and
//! `seq::SliceRandom::shuffle`. Module paths mirror `rand` so call sites
//! only swap the crate name.
//!
//! The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA'14): one
//! 64-bit word of state, an additive Weyl sequence mixed by two
//! xor-multiply rounds. It is statistically strong for simulation
//! workloads, trivially seedable from any `u64` (including 0), and —
//! the property everything here depends on — a pure function of its
//! seed, so every dataset, model init, and fault schedule replays
//! bit-identically.

#![warn(missing_docs)]

use std::ops::Range;

/// The SplitMix64 finaliser as a stateless 64-bit hash: the output a
/// [`SplitMix64`] seeded with `x` gives on its first step. Used
/// wherever a value must be a pure function of a key and a salt
/// (shard routing, planted weights, retry jitter).
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The raw SplitMix64 generator: one step per `next_u64`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator from a seed (any value, including 0).
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Advances the state and returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }
}

/// The minimal core every generator implements.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Convenience sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value of a [`Standard`]-distributed type: floats are
    /// uniform in `[0, 1)`, integers uniform over their full range.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from the half-open range `lo..hi`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range.start, range.end)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} outside [0, 1]"
        );
        f64::sample(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Construction from a 64-bit seed, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds the generator from a seed; equal seeds give equal streams.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable from raw uniform bits.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types with uniform sampling over a half-open range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `lo..hi` (must be non-empty).
    fn sample_range<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Maps 64 uniform bits onto `0..n` without modulo bias (Lemire's
/// multiply-shift; the simulation tolerates the ~2⁻⁶⁴ residual bias).
fn bounded(rng: &mut impl RngCore, n: u64) -> u64 {
    debug_assert!(n > 0);
    ((rng.next_u64() as u128 * n as u128) >> 64) as u64
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty gen_range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                lo.wrapping_add(bounded(rng, span) as $t)
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty gen_range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                lo.wrapping_add(bounded(rng, span) as $t)
            }
        }
    )*};
}

impl_uniform_signed!(i32 => u32, i64 => u64, isize => usize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty gen_range");
        let v = lo + f64::sample(rng) * (hi - lo);
        // Guard against round-up to the excluded endpoint.
        if v >= hi {
            lo.max(hi - (hi - lo) * f64::EPSILON)
        } else {
            v
        }
    }
}

impl SampleUniform for f32 {
    fn sample_range<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty gen_range");
        let v = lo + f32::sample(rng) * (hi - lo);
        if v >= hi {
            lo.max(hi - (hi - lo) * f32::EPSILON)
        } else {
            v
        }
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng, SplitMix64};

    /// The workspace's standard deterministic generator (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct StdRng(SplitMix64);

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng(SplitMix64::new(seed))
        }
    }

    /// Alias of [`StdRng`]: one generator serves both roles here.
    pub type SmallRng = StdRng;
}

/// Slice helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{bounded, RngCore};

    /// Random slice operations.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Uniform in-place Fisher–Yates shuffle.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);

        /// A uniformly chosen element, or `None` if empty.
        fn choose<'a, R: RngCore>(&'a self, rng: &mut R) -> Option<&'a Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = bounded(rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }

        fn choose<'a, R: RngCore>(&'a self, rng: &mut R) -> Option<&'a T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[bounded(rng, self.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the canonical C
        // implementation (Vigna, prng.di.unimi.it).
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
        assert_eq!(splitmix64(1234567), 6457827717110365317);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let i = rng.gen_range(3usize..17);
            assert!((3..17).contains(&i));
            let f = rng.gen_range(-2.5f32..2.5);
            assert!((-2.5..2.5).contains(&f));
            let s = rng.gen_range(-5i64..-1);
            assert!((-5..-1).contains(&s));
        }
    }

    #[test]
    fn gen_range_hits_every_small_bucket() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(17);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "empirical {p}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    #[should_panic(expected = "empty gen_range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.gen_range(5u64..5);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 100 items should move something");
    }

    #[test]
    fn choose_uniformity_and_empty() {
        let mut rng = StdRng::seed_from_u64(29);
        let empty: [u8; 0] = [];
        assert_eq!(empty.choose(&mut rng), None);
        let items = [1u8, 2, 3];
        let mut counts = [0usize; 3];
        for _ in 0..3_000 {
            counts[(*items.choose(&mut rng).unwrap() - 1) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 800), "{counts:?}");
    }

    #[test]
    fn mean_of_unit_samples_is_half() {
        let mut rng = StdRng::seed_from_u64(31);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        assert!((sum / n as f64 - 0.5).abs() < 0.005);
    }
}
