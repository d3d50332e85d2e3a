//! Order statistics and process figures.

/// Nearest-rank median of `values`: always one of the samples, so the
/// repetition behind it can be picked out with [`median_index`].
pub fn median(values: &[f64]) -> f64 {
    values[median_index(values)]
}

/// Index in `values` of its [`median`].
pub fn median_index(values: &[f64]) -> usize {
    assert!(!values.is_empty(), "median of no samples");
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    order[values.len().div_ceil(2) - 1]
}

/// Exact nearest-rank percentile over raw samples: the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorted copy of `samples`.
pub fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

/// FNV-1a over a sample vector: a compact identity for "every repetition
/// produced the same per-operation model cycles".
pub fn fingerprint(samples: &[u64]) -> u64 {
    samples.iter().fold(0, |h, v| veil_workloads::fnv1a(h, &v.to_le_bytes()))
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM value");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50);
        assert_eq!(nearest_rank(&v, 99.0), 99);
        assert_eq!(nearest_rank(&v, 99.9), 100);
        assert_eq!(nearest_rank(&[7], 99.9), 7);
    }

    #[test]
    fn median_is_a_sample() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(median(&v), 10.0);
        assert_eq!(v[median_index(&v)], 10.0);
        assert_eq!(median(&[5.0, 3.0, 4.0]), 4.0);
    }
}
