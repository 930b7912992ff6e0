//! Offline, dependency-free stand-in for the slice of the `rand` 0.8 API
//! this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a small, std-only implementation under the same crate name.
//! Only the surface actually exercised by the other crates is provided:
//!
//! * [`rngs::StdRng`] — a seedable, deterministic generator
//!   (xoshiro256\*\*, seeded through SplitMix64);
//! * [`SeedableRng::seed_from_u64`];
//! * [`Rng::gen_range`] over half-open and inclusive integer/float
//!   ranges, [`Rng::gen_bool`], and [`Rng::gen`] for `f64`/`u64`/`bool`.
//!
//! The streams are *not* bit-compatible with the real `rand` crate — all
//! in-tree consumers treat RNG output as an opaque deterministic stream,
//! which is the property this crate preserves.

pub mod rngs;

/// Low-level source of randomness: everything derives from `next_u64`.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly distributed bits (upper half of `next_u64`).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// High-level sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range` (half-open `a..b` or inclusive `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        S: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} not in [0, 1]");
        unit_f64(self.next_u64()) < p
    }

    /// A sample from `T`'s standard distribution (`f64` in `[0, 1)`,
    /// full-width integers, fair `bool`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds the generator deterministically from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A `f64` in `[0, 1)` with 53 random mantissa bits.
pub(crate) fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types samplable from a "standard" distribution via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one standard sample.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges usable with [`Rng::gen_range`].
///
/// The single blanket impl per range shape (mirroring `rand`'s
/// `SampleRange`) matters for type inference: it ties the range's element
/// type to `gen_range`'s return type, so `slice[rng.gen_range(0..3)]`
/// infers `usize` instead of falling back to `i32`.
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types uniformly samplable from a range (mirror of `SampleUniform`).
pub trait SampleUniform: Sized {
    /// Uniform sample from `lo..hi`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform sample from `lo..=hi`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// `bits % span`: in `u64` arithmetic when the span fits in 64 bits (every
/// half-open range and all but the full-width inclusive ones), avoiding a
/// 128-bit division; the value is the same either way.
fn reduce(bits: u64, span: u128) -> u128 {
    match u64::try_from(span) {
        Ok(span) => u128::from(bits % span),
        Err(_) => u128::from(bits) % span,
    }
}

macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                assert!(lo < hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128;
                (lo as i128 + reduce(rng.next_u64(), span) as i128) as $t
            }

            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + reduce(rng.next_u64(), span) as i128) as $t
            }
        }
    )*};
}

int_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "cannot sample empty range");
        let v = lo + (hi - lo) * unit_f64(rng.next_u64());
        // Floating rounding can land exactly on `hi`; stay half-open.
        if v >= hi {
            lo
        } else {
            v
        }
    }

    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "cannot sample empty range");
        lo + (hi - lo) * unit_f64(rng.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_in_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let x: i64 = rng.gen_range(-30..60);
            assert!((-30..60).contains(&x));
            let y: usize = rng.gen_range(3..=7);
            assert!((3..=7).contains(&y));
            let f: f64 = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&u));
        }
    }

    #[test]
    fn unit_floats_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn works_through_unsized_refs() {
        fn sample<R: Rng + ?Sized>(rng: &mut R) -> usize {
            rng.gen_range(0..10)
        }
        let mut rng = StdRng::seed_from_u64(4);
        assert!(sample(&mut rng) < 10);
    }

    #[test]
    fn integer_ranges_match_the_wide_formula() {
        // The 128-bit formula `gen_range` used for every span, as the
        // reference the 64-bit path must reproduce value for value.
        fn wide(bits: u64, lo: i128, hi: i128, inclusive: bool) -> i128 {
            let span = (hi - lo) as u128 + u128::from(inclusive);
            lo + (bits as u128 % span) as i128
        }
        macro_rules! check {
            ($($t:ty),*) => {$({
                let mut pick = StdRng::seed_from_u64(<$t>::MAX as u64 ^ 0x51);
                let mut ranges: Vec<($t, $t)> = vec![
                    (<$t>::MIN, <$t>::MAX),
                    (0, 1),
                    (<$t>::MAX - 1, <$t>::MAX),
                    (<$t>::MIN, <$t>::MIN + 3),
                ];
                for _ in 0..200 {
                    // Random endpoints (mostly wide spans), and random
                    // short spans like the simulator's Pauli draws.
                    let (a, b) = (pick.next_u64() as $t, pick.next_u64() as $t);
                    ranges.push((a.min(b), a.max(b)));
                    let short = pick.gen_range(1..20u8) as $t;
                    ranges.push((a, a.saturating_add(short)));
                }
                for (lo, hi) in ranges {
                    for seed in 0..4u64 {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let mut bits = StdRng::seed_from_u64(seed);
                        for _ in 0..8 {
                            let x = rng.gen_range(lo..=hi);
                            let want = wide(bits.next_u64(), lo as i128, hi as i128, true);
                            assert_eq!(x as i128, want, "{lo}..={hi}");
                            if lo < hi {
                                let y = rng.gen_range(lo..hi);
                                let want = wide(bits.next_u64(), lo as i128, hi as i128, false);
                                assert_eq!(y as i128, want, "{lo}..{hi}");
                            }
                        }
                    }
                }
            })*};
        }
        check!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
        // The full-width 64-bit inclusive spans are 2^64: the wide path.
        assert!(u64::try_from((u64::MAX as u128) + 1).is_err());
        let mut rng = StdRng::seed_from_u64(9);
        let mut bits = StdRng::seed_from_u64(9);
        assert_eq!(rng.gen_range(u64::MIN..=u64::MAX), bits.next_u64());
        assert_eq!(rng.gen_range(i64::MIN..=i64::MAX), bits.next_u64() as i64 ^ i64::MIN);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let _: u32 = rng.gen_range(5..5);
    }
}
