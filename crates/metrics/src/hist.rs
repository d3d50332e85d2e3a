//! Log-linear (HDR-style) cycle histograms.
//!
//! Values below 16 get one bucket each. Above that, each power of two
//! `[2^e, 2^(e+1))` splits into 16 equal linear sub-buckets of width
//! `2^(e-4)`. A bucket is then at most 1/16 of its lower bound wide, so a
//! value's bucket lower bound sits at most `value/16` below it, and the
//! whole `u64` range fits in 976 fixed buckets. Bucket math is shifts and
//! masks only (no floating point in the record path), so bucket
//! assignment is bit-deterministic on every platform.
//!
//! [`Histogram::percentile`] is the one percentile: the nearest-rank
//! convention of [`nearest_rank`], which exact percentiles over raw
//! samples call too (the adversary fuzzer's `--bench` mode), quantized to
//! the ranked sample's bucket lower bound and clamped to the exact
//! `[min, max]`. It therefore lies within 1/16 below the exact
//! nearest-rank sample and never outside the observed range.

/// Bits of linear sub-bucket index per power of two: 16 sub-buckets.
const SUB_BITS: u32 = 4;

/// Sub-buckets per power of two, and the count of exact small-value
/// buckets below the first split power (`2^SUB_BITS`).
const SUB: usize = 1 << SUB_BITS;

/// Number of buckets: 16 exact buckets for `0..16`, then 16 per power of
/// two for each of the 60 powers `2^4 ..= 2^63`.
pub const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Returns the bucket index of `value`.
///
/// Values `v < 16` land in bucket `v`. Otherwise, with `e = floor(log2 v)`,
/// `v` lands in sub-bucket `(v >> (e - 4)) & 15` of power `e`, i.e. bucket
/// `16 + 16·(e - 4) + ((v >> (e - 4)) & 15)`.
pub fn bucket_of(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let shift = value.ilog2() - SUB_BITS;
    SUB + shift as usize * SUB + ((value >> shift) as usize & (SUB - 1))
}

/// The smallest value mapping to bucket `index` (the bucket's lower
/// bound; exporters report it as the bucket's representative value).
pub fn bucket_lower(index: usize) -> u64 {
    assert!(index < BUCKETS, "bucket index out of range");
    if index < SUB {
        return index as u64;
    }
    let i = index - SUB;
    ((SUB + i % SUB) as u64) << (i / SUB)
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

    /// Nearest-rank percentile: the exact `max` at rank `n`, otherwise
    /// the lower bound of the bucket holding the ranked sample, clamped
    /// to the exact `[min, max]`. The result is never above the exact
    /// nearest-rank sample, and at most 1/16 of it below. Returns 0 for
    /// an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank(self.count as usize, p) as u64;
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lower(i).clamp(self.min, self.max);
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

    /// The largest value mapping to bucket `i`.
    fn bucket_upper(i: usize) -> u64 {
        if i + 1 < BUCKETS {
            bucket_lower(i + 1) - 1
        } else {
            u64::MAX
        }
    }

    #[test]
    fn bucket_bounds_are_consistent_with_assignment() {
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_lower(i)), i, "lower bound of bucket {i} maps into it");
            assert_eq!(bucket_of(bucket_upper(i)), i, "last value of bucket {i} maps into it");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_of_known_values() {
        assert_eq!(BUCKETS, 976);
        // Below 32 every value has its own bucket.
        for v in 0..32u64 {
            assert_eq!(bucket_of(v), v as usize);
        }
        // [32, 64) splits into 16 buckets of width 2.
        assert_eq!(bucket_of(33), 32);
        assert_eq!(bucket_of(34), 33);
        // 7135 = 27·256 + 223: sub-bucket 11 of 2^12, lower bound 6912.
        assert_eq!(bucket_of(7135), 16 + 8 * 16 + 11);
        assert_eq!(bucket_lower(bucket_of(7135)), 6912);
    }

    #[test]
    fn relative_error_is_bounded_by_a_sixteenth() {
        // Every bucket spans at most 1/16 of its lower bound, so any value
        // is at most 1/16 above its bucket's lower bound.
        for i in 0..BUCKETS {
            let (lo, hi) = (bucket_lower(i), bucket_upper(i));
            assert!(u128::from(hi - lo) * 16 <= u128::from(lo), "bucket {i}: [{lo}, {hi}]");
        }
        for v in [1u64, 3, 7, 100, 7135, 55_000, 1 << 40, u64::MAX / 3, u64::MAX] {
            let lo = bucket_lower(bucket_of(v));
            assert!(lo <= v && u128::from(v - lo) * 16 <= u128::from(v), "{v} vs {lo}");
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
        h.record(10);
        for _ in 0..98 {
            h.record(7135);
        }
        h.record(90_000);
        assert_eq!(h.percentile(50.0), bucket_lower(bucket_of(7135)));
        assert_eq!(h.percentile(99.0), bucket_lower(bucket_of(7135)));
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 90_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 10 + 98 * 7135 + 90_000);
        // When every sample is equal, the clamp reports it exactly.
        let mut same = Histogram::new();
        for _ in 0..100 {
            same.record(7135);
        }
        assert_eq!(same.percentile(50.0), 7135);
        assert_eq!(same.percentile(99.9), 7135);
    }

    #[test]
    fn percentile_orders_buckets() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert!(h.percentile(50.0) <= h.percentile(99.0));
        assert!(h.percentile(99.0) <= h.percentile(100.0));
        assert_eq!(h.percentile(100.0), 1000);
        // The true p50 sample is 500; quantization stays within 1/16 below.
        let p50 = h.percentile(50.0);
        assert!(p50 <= 500 && (500 - p50) * 16 <= 500, "{p50}");
    }

    #[test]
    fn percentile_separates_tail_percentiles_on_skewed_distribution() {
        // 1960 fast requests plus a 40-sample tail spread over 17.0M..22.85M
        // (the overloaded-fleet case): p99 and p999 rank different tail
        // samples, which sit in different 1/16-wide buckets.
        let mut h = Histogram::new();
        for _ in 0..1960 {
            h.record(1000);
        }
        for i in 0..40u64 {
            h.record(17_000_000 + i * 150_000);
        }
        let p99 = h.percentile(99.0);
        let p999 = h.percentile(99.9);
        assert!(p999 > p99, "p999 {p999} must exceed p99 {p99}");
        assert!(p99 >= 17_000_000 && p999 <= h.max(), "stay inside the observed range");
    }

    #[test]
    fn percentile_is_rank_monotone_and_range_clamped() {
        let mut h = Histogram::new();
        for v in [10u64, 500, 7135, 7200, 7300, 90_000, 90_001] {
            h.record(v);
        }
        let ps = [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0];
        let vals: Vec<u64> = ps.iter().map(|&p| h.percentile(p)).collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]), "monotone in rank: {vals:?}");
        assert!(vals.iter().all(|&v| v >= h.min() && v <= h.max()), "{vals:?}");
        assert_eq!(h.percentile(100.0), h.max(), "top rank hits the exact max");
        // Empty and single-sample degenerate cases.
        assert_eq!(Histogram::new().percentile(50.0), 0);
        let mut one = Histogram::new();
        one.record(7135);
        assert_eq!(one.percentile(50.0), 7135);
        assert_eq!(one.percentile(99.9), 7135);
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
        assert!(h.is_empty());
        assert_eq!(h.nonzero_buckets().count(), 0);
    }
}
