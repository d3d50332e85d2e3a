//! Log-bucketed (HDR-style, powers-of-√2) cycle histograms.
//!
//! Bucket boundaries are powers of √2: each power-of-two decade is split
//! in half, giving a worst-case relative quantization error of ~41% per
//! bucket while keeping the whole `u64` range in 129 fixed buckets. All
//! bucket math is integer-only (no floating point in the record path), so
//! bucket assignment is bit-deterministic on every platform.
//!
//! Percentiles use the nearest-rank convention of [`nearest_rank`], which
//! exact percentiles over raw samples call too (the adversary fuzzer's
//! `--bench` mode), so a percentile over raw samples and a percentile
//! over the histogram of those samples can only differ by bucket
//! quantization, never by rank convention.

/// Number of buckets: one zero bucket plus two buckets per power of two
/// across the full `u64` range (`2 * 64` halves, of which the first pair
/// collapses into values 1 and 2..=2).
pub const BUCKETS: usize = 129;

/// Returns the bucket index of `value`.
///
/// Index 0 holds zeros; value `v > 0` with `e = floor(log2 v)` lands in
/// bucket `1 + 2e` (lower half of the decade, `v < 2^e·√2`) or `2 + 2e`
/// (upper half). The half test `v ≥ 2^e·√2` is evaluated exactly as
/// `v² ≥ 2^(2e+1)` in 128-bit arithmetic.
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        return 0;
    }
    let e = 63 - value.leading_zeros() as usize;
    let upper_half = (value as u128) * (value as u128) >= 1u128 << (2 * e + 1);
    1 + 2 * e + usize::from(upper_half)
}

/// The smallest value mapping to bucket `index` (the bucket's lower
/// bound; exporters report it as the bucket's representative value).
pub fn bucket_lower(index: usize) -> u64 {
    assert!(index < BUCKETS, "bucket index out of range");
    if index == 0 {
        return 0;
    }
    let b = index - 1;
    let e = b / 2;
    if b.is_multiple_of(2) {
        1u64 << e
    } else {
        // First v with v² ≥ 2^(2e+1): ⌈√(2^(2e+1))⌉ = isqrt(2^(2e+1)-1)+1.
        isqrt((1u128 << (2 * e + 1)) - 1) as u64 + 1
    }
}

/// Integer square root (floor) over `u128`, Newton's method.
fn isqrt(n: u128) -> u128 {
    if n < 2 {
        return n;
    }
    let mut x = 1u128 << (n.ilog2() / 2 + 1);
    loop {
        let next = (x + n / x) / 2;
        if next >= x {
            return x;
        }
        x = next;
    }
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples:
/// `clamp(⌈p/100 · n⌉, 1, n)`. The single rank convention shared by
/// [`Histogram::percentile`] and exact percentiles over raw samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// A fixed-bucket cycle histogram with exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact smallest sample (0 for an empty histogram).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile, quantized to the lower bound of the
    /// bucket holding the ranked sample. Returns 0 for an empty
    /// histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank(self.count as usize, p) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lower(i);
            }
        }
        bucket_lower(BUCKETS - 1)
    }

    /// Nearest-rank percentile with linear interpolation inside the
    /// bucket holding the ranked sample.
    ///
    /// [`Histogram::percentile`] quantizes every rank in a bucket to the
    /// bucket's lower bound, so with sparse high-end counts p99 and p999
    /// collapse onto the same value (one √2-wide bucket holds the whole
    /// tail). This variant spreads the bucket's `c` samples evenly over
    /// its clamped `[lo, hi]` span and returns the value at the rank's
    /// position, so distinct ranks in the same bucket yield distinct,
    /// strictly rank-monotone values whenever the span allows. Exact
    /// `min`/`max` clamp the first and last occupied buckets, so the
    /// result never leaves the observed sample range.
    ///
    /// Kept separate from [`Histogram::percentile`] on purpose: that
    /// convention feeds digest-pinned exports and golden snapshots.
    pub fn percentile_interp(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank(self.count as usize, p) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = seen;
            seen += c;
            if seen >= rank {
                let lo = bucket_lower(i).max(self.min);
                let hi =
                    if i + 1 < BUCKETS { bucket_lower(i + 1) - 1 } else { u64::MAX }.min(self.max);
                if hi <= lo {
                    return lo;
                }
                // Rank positions 1..=c map linearly onto (lo, hi]:
                // position c lands exactly on hi, earlier positions step
                // down by the even per-sample spacing.
                let pos = rank - before;
                return lo + ((hi - lo) as u128 * pos as u128 / c as u128) as u64;
            }
        }
        self.max
    }

    /// Merges `other` into `self`. Merge is associative and commutative:
    /// bucket counts, count, and sum add; min/max take the extremum.
    pub fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterates the non-empty buckets as `(lower_bound, count)`, in
    /// ascending bucket order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(i, &c)| (bucket_lower(i), c))
    }

    /// Raw bucket counts (index order; see [`bucket_lower`]).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_consistent_with_assignment() {
        // Bucket 2 ([√2, 2)) contains no integers and is permanently
        // empty; every other bucket's lower bound maps into it.
        for i in (0..BUCKETS).filter(|&i| i != 2) {
            let lo = bucket_lower(i);
            assert_eq!(bucket_of(lo), i, "lower bound of bucket {i} maps into it");
        }
        for i in 0..BUCKETS - 1 {
            let (lo, next) = (bucket_lower(i), bucket_lower(i + 1));
            assert!(next >= lo, "bounds are monotone at {i}");
            if i != 1 && i != 2 {
                assert!(next > lo, "bounds strictly increase at {i}");
                assert_eq!(bucket_of(next - 1), i, "last value below bucket {} boundary", i + 1);
            }
        }
    }

    #[test]
    fn bucket_of_known_values() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        // 2^e lands in the even "lower half" slot 1 + 2e.
        assert_eq!(bucket_of(2), 3);
        assert_eq!(bucket_of(4), 5);
        // √2·4096 ≈ 5793: 5792 is below, 5793 at/above.
        assert_eq!(bucket_of(5792), 1 + 2 * 12);
        assert_eq!(bucket_of(5793), 2 + 2 * 12);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded_by_sqrt2() {
        for v in [1u64, 3, 7, 100, 7135, 55_000, 1 << 40, u64::MAX / 3] {
            let lo = bucket_lower(bucket_of(v));
            assert!(lo <= v);
            // Bucket width < √2·lower, so v/lo < √2.
            assert!((v as f64) / (lo as f64) < std::f64::consts::SQRT_2 + 1e-9, "{v} vs {lo}");
        }
    }

    #[test]
    fn nearest_rank_matches_bench_convention() {
        assert_eq!(nearest_rank(100, 50.0), 50);
        assert_eq!(nearest_rank(100, 99.0), 99);
        assert_eq!(nearest_rank(100, 99.9), 100);
        assert_eq!(nearest_rank(1, 0.0), 1);
        assert_eq!(nearest_rank(20, 100.0), 20);
        assert_eq!(nearest_rank(0, 50.0), 1, "degenerate n=0 clamps to 1");
    }

    #[test]
    fn percentile_quantizes_to_bucket_lower_bound() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(7135);
        }
        let lo = bucket_lower(bucket_of(7135));
        assert_eq!(h.percentile(50.0), lo);
        assert_eq!(h.percentile(99.9), lo);
        assert_eq!(h.min(), 7135);
        assert_eq!(h.max(), 7135);
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 713_500);
    }

    #[test]
    fn percentile_orders_buckets() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert!(h.percentile(50.0) <= h.percentile(99.0));
        assert!(h.percentile(99.0) <= h.percentile(100.0));
        assert_eq!(h.percentile(100.0), bucket_lower(bucket_of(1000)));
        // The true p50 sample is 500; quantization stays within √2 below.
        let p50 = h.percentile(50.0);
        assert!(p50 <= 500 && 500 < (p50 as f64 * std::f64::consts::SQRT_2) as u64 + 2);
    }

    #[test]
    fn interp_separates_tail_percentiles_on_skewed_distribution() {
        // 1960 fast requests plus a 40-sample tail that all lands in one
        // √2-wide bucket — the overloaded-fleet degenerate case:
        // nearest-rank quantization collapses p99 and p999 onto the
        // bucket lower bound, while interpolation keeps them distinct
        // and ordered.
        let mut h = Histogram::new();
        for _ in 0..1960 {
            h.record(1000);
        }
        for i in 0..40u64 {
            h.record(17_000_000 + i * 150_000); // 17.0M..22.85M, one bucket
        }
        assert_eq!(
            h.percentile(99.0),
            h.percentile(99.9),
            "plain nearest-rank collapses the tail (the bug under test)"
        );
        let p99 = h.percentile_interp(99.0);
        let p999 = h.percentile_interp(99.9);
        assert!(p999 > p99, "interpolated p999 {p999} must exceed p99 {p99}");
        assert!(p99 >= 17_000_000 && p999 <= h.max(), "stay inside the observed range");
    }

    #[test]
    fn interp_is_rank_monotone_and_range_clamped() {
        let mut h = Histogram::new();
        for v in [10u64, 500, 7135, 7200, 7300, 90_000, 90_001] {
            h.record(v);
        }
        let ps = [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0];
        let vals: Vec<u64> = ps.iter().map(|&p| h.percentile_interp(p)).collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]), "monotone in rank: {vals:?}");
        assert!(vals.iter().all(|&v| v >= h.min() && v <= h.max()), "{vals:?}");
        assert_eq!(h.percentile_interp(100.0), h.max(), "top rank hits the exact max");
        // Empty and single-sample degenerate cases.
        assert_eq!(Histogram::new().percentile_interp(50.0), 0);
        let mut one = Histogram::new();
        one.record(7135);
        assert_eq!(one.percentile_interp(50.0), 7135);
        assert_eq!(one.percentile_interp(99.9), 7135);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        a.record(100);
        b.record(1000);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.count(), 3);
        assert_eq!(ab.sum(), 1110);
        assert_eq!(ab.min(), 10);
        assert_eq!(ab.max(), 1000);
        // Commutes.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Merging an empty histogram is the identity.
        let mut id = ab.clone();
        id.merge(&Histogram::new());
        assert_eq!(id, ab);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
        assert_eq!(h.nonzero_buckets().count(), 0);
    }
}
