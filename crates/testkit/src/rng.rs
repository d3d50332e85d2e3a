//! Seedable deterministic RNG for tests and workload generation.
//!
//! A thin facade over [`veil_crypto::drbg::Drbg`] exposing the small
//! `rand`-like surface the test suites actually use. Two `TestRng`s
//! built from the same seed produce identical streams on every platform,
//! which is what makes `VEIL_TEST_SEED` replay exact.

use std::ops::Range;
use veil_crypto::drbg::Drbg;

/// A deterministic test RNG seeded from a `u64`.
#[derive(Debug, Clone)]
pub struct TestRng {
    drbg: Drbg,
}

impl TestRng {
    /// RNG whose stream is a pure function of `seed`.
    pub fn from_seed(seed: u64) -> Self {
        TestRng { drbg: Drbg::from_seed(&seed.to_le_bytes()) }
    }

    /// Next pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.drbg.next_u64()
    }

    /// Fills `out` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        self.drbg.fill(out);
    }

    /// A uniformly random value below `bound` (rejection-sampled).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.drbg.next_below(bound)
    }

    /// A uniformly random bool.
    pub fn gen_bool(&mut self) -> bool {
        self.drbg.next_u64() & 1 == 1
    }

    /// A uniformly random integer in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T: UniformInt>(&mut self, range: Range<T>) -> T {
        let (lo, hi) = (range.start.to_i128(), range.end.to_i128());
        assert!(lo < hi, "gen_range: empty range");
        let span = (hi - lo) as u128;
        let v = if span > u64::MAX as u128 {
            // Only reachable for the full u64/i64 span.
            self.next_u64() as u128
        } else {
            self.below(span as u64) as u128
        };
        T::from_i128(lo + v as i128)
    }

    /// A uniformly chosen element, or `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.below(xs.len() as u64) as usize])
        }
    }
}

/// Integer types [`TestRng::gen_range`] can sample uniformly.
pub trait UniformInt: Copy {
    /// Widens losslessly into `i128`.
    fn to_i128(self) -> i128;
    /// Narrows from an in-range `i128`.
    fn from_i128(v: i128) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn to_i128(self) -> i128 {
                self as i128
            }
            fn from_i128(v: i128) -> Self {
                v as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// SplitMix64 — used to derive per-case seeds from a base seed.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a string — used to derive a stable base seed per test.
pub fn fnv1a64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TestRng::from_seed(42);
        let mut b = TestRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = TestRng::from_seed(7);
        for _ in 0..1000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let s = r.gen_range(-5i32..5);
            assert!((-5..5).contains(&s));
            let u = r.gen_range(0usize..1);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn full_u64_range_works() {
        let mut r = TestRng::from_seed(9);
        // Must not panic or loop; both halves of the space show up.
        let mut high = false;
        let mut low = false;
        for _ in 0..64 {
            let v = r.gen_range(0u64..u64::MAX);
            if v >= u64::MAX / 2 {
                high = true;
            } else {
                low = true;
            }
        }
        assert!(high && low);
    }

    #[test]
    fn fill_bytes_differs_across_calls() {
        let mut r = TestRng::from_seed(1);
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        r.fill_bytes(&mut a);
        r.fill_bytes(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn choose_covers_slice() {
        let mut r = TestRng::from_seed(5);
        let xs = [1, 2, 3];
        assert!(r.choose::<u8>(&[]).is_none());
        let mut seen = [false; 3];
        for _ in 0..64 {
            seen[(*r.choose(&xs).unwrap() - 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn seed_helpers_are_stable() {
        assert_eq!(fnv1a64("veil"), fnv1a64("veil"));
        assert_ne!(fnv1a64("veil"), fnv1a64("lied"));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
