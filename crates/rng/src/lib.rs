#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sipt-rng — in-tree, dependency-free deterministic PRNGs
//!
//! The simulator's randomness (workload generation, fragmentation,
//! scattered page placement, random replacement) previously came from the
//! external `rand` crate, which made the tier-1 build depend on a crates.io
//! registry fetch. This crate replaces that surface with two tiny,
//! well-known generators so `cargo build`/`cargo test` are fully offline:
//!
//! - [`SplitMix64`] — Steele/Lea/Vigna's 64-bit mixer; one u64 of state,
//!   used for seeding and cheap streams;
//! - [`Xoshiro256PlusPlus`] — Blackman/Vigna's xoshiro256++ 1.0, the
//!   general-purpose generator (256-bit state, excellent statistical
//!   quality for simulation purposes).
//!
//! The API mirrors the subset of `rand` the repo used: a [`Rng`] trait
//! with `gen_range`/`gen_bool`, a [`SeedableRng`] trait with
//! `seed_from_u64`, and a [`StdRng`] alias (xoshiro256++). Streams are
//! deterministic functions of the seed and stable across platforms; they
//! are **not** reproductions of `rand`'s ChaCha streams, so statistical
//! results shift slightly relative to pre-hermetic builds of this repo
//! (the calibration tests were re-validated against the new streams).

use std::ops::{Range, RangeInclusive};

/// Seed-construction: every generator here can be built from one `u64`.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The random-number interface used across the workspace.
///
/// Only `next_u64` is required; everything else derives from it.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits → [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} outside [0, 1]");
        self.next_f64() < p
    }

    /// A uniform sample from `range` (half-open `a..b` or inclusive
    /// `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        let (lo, hi) = range.bounds_inclusive();
        T::sample_inclusive(self.next_u64(), lo, hi)
    }
}

/// Integer types that can be sampled uniformly from a bounded range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Map 64 uniform bits onto `[lo, hi]` (inclusive). Uses the widening
    /// multiply trick, whose bias is ≤ 2⁻⁶⁴·span — immaterial for
    /// simulation workloads.
    fn sample_inclusive(bits: u64, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_inclusive(bits: u64, lo: Self, hi: Self) -> Self {
                debug_assert!(lo <= hi);
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let idx = ((bits as u128 * span) >> 64) as i128;
                (lo as i128 + idx) as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    /// Continuous uniform on `[lo, hi]`: 53 bits of `bits` become a
    /// fraction in `[0, 1)` scaled onto the span. (The upper endpoint is
    /// reachable only through rounding, mirroring `rand`'s behaviour for
    /// float ranges closely enough for simulation parameters.)
    #[inline]
    fn sample_inclusive(bits: u64, lo: Self, hi: Self) -> Self {
        debug_assert!(lo <= hi);
        let f = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + f * (hi - lo)
    }
}

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// The inclusive `(lo, hi)` bounds of the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn bounds_inclusive(self) -> (T, T);
}

impl<T: SampleUniform + One> SampleRange<T> for Range<T> {
    fn bounds_inclusive(self) -> (T, T) {
        assert!(self.start < self.end, "gen_range called with an empty range");
        (self.start, self.end.minus_one())
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn bounds_inclusive(self) -> (T, T) {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range called with an empty range");
        (lo, hi)
    }
}

/// Decrement helper so half-open ranges convert to inclusive bounds.
pub trait One {
    /// `self - 1`.
    fn minus_one(self) -> Self;
}

macro_rules! impl_one {
    ($($t:ty),* $(,)?) => {$(
        impl One for $t {
            #[inline]
            fn minus_one(self) -> Self {
                self - 1
            }
        }
    )*};
}

impl_one!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl One for f64 {
    /// Identity: a half-open float range samples the same continuum as
    /// the closed one (the endpoint has measure zero).
    #[inline]
    fn minus_one(self) -> Self {
        self
    }
}

/// SplitMix64 (public-domain reference implementation): one u64 of state,
/// period 2⁶⁴. Passes BigCrush when used as a 64-bit generator; here it
/// seeds xoshiro and serves tiny throwaway streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Construct from a raw seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        Self::new(seed)
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 (Blackman & Vigna, public domain): 256-bit state,
/// period 2²⁵⁶ − 1, the workspace's general-purpose generator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl SeedableRng for Xoshiro256PlusPlus {
    /// Seed the four state words from SplitMix64, per the xoshiro
    /// authors' recommendation (never yields the all-zero state).
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }
}

impl Rng for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
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

/// The workspace's default generator (xoshiro256++), named `StdRng` so
/// call sites read like the `rand` idiom they replaced.
pub type StdRng = Xoshiro256PlusPlus;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0 (from the reference implementation).
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(42);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(42);
        let mut c = Xoshiro256PlusPlus::seed_from_u64(43);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn gen_range_respects_bounds_half_open_and_inclusive() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&x));
            let y: u32 = rng.gen_range(64..=256);
            assert!((64..=256).contains(&y));
            let z: usize = rng.gen_range(0..1);
            assert_eq!(z, 0);
            let s: i32 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&s));
        }
    }

    #[test]
    fn gen_range_covers_every_value_of_a_small_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 values should appear: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _: u64 = rng.gen_range(5..5);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((0.29..0.31).contains(&p), "p = {p}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_range_samples_floats_uniformly() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen_range(-2.0..=6.0);
            assert!((-2.0..=6.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((1.8..2.2).contains(&mean), "mean = {mean}");
        let y: f64 = rng.gen_range(3.0..4.0);
        assert!((3.0..4.0).contains(&y));
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = SplitMix64::seed_from_u64(9);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
