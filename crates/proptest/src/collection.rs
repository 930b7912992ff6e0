//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;

/// A length specification: an exact size, `lo..hi`, or `lo..=hi`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SizeRange {
    lo: usize,
    /// Exclusive upper bound.
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec length range");
        SizeRange { lo: r.start, hi: r.end }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty vec length range");
        SizeRange { lo: *r.start(), hi: *r.end() + 1 }
    }
}

/// `Vec`s of `element`-generated values with a length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// See [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = if self.size.lo + 1 == self.size.hi {
            self.size.lo
        } else {
            rng.gen_range(self.size.lo..self.size.hi)
        };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
