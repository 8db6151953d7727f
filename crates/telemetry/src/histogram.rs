//! Log-bucketed latency histograms.
//!
//! Buckets are powers of two over microseconds, so merging two histograms is
//! plain element-wise addition: associative, commutative, and therefore
//! independent of the order in which per-worker recorders are folded together
//! at the epoch barrier.  Percentiles are reconstructed from the buckets
//! (upper-bound estimate, clamped to the exact observed maximum).

/// Number of power-of-two buckets.  Bucket 63 holds everything from
/// `2^62` µs up, far beyond any realistic solver query.
const BUCKETS: usize = 64;

/// A latency histogram over microsecond samples with power-of-two buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    total_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            count: 0,
            total_us: 0,
            max_us: 0,
        }
    }
}

/// Bucket index for a sample: the number of significant bits, so bucket `i`
/// covers `[2^(i-1), 2^i - 1]` (bucket 0 covers exactly 0).
fn bucket_index(us: u64) -> usize {
    (64 - us.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of a bucket, used as the percentile estimate.
fn bucket_upper(index: usize) -> u64 {
    if index >= 63 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample, in microseconds.
    pub fn record(&mut self, us: u64) {
        self.counts[bucket_index(us)] += 1;
        self.count += 1;
        self.total_us = self.total_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Fold another histogram into this one.  Element-wise addition, so the
    /// result is independent of merge order and grouping.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total_us = self.total_us.saturating_add(other.total_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, in microseconds.
    pub fn total_us(&self) -> u64 {
        self.total_us
    }

    /// Exact maximum sample, in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`), clamped to
    /// the exact observed maximum.  Returns 0 for an empty histogram.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(index).min(self.max_us);
            }
        }
        self.max_us
    }

    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    pub fn p90_us(&self) -> u64 {
        self.quantile_us(0.90)
    }

    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_us(), 0);
        assert_eq!(h.p99_us(), 0);
        assert_eq!(h.max_us(), 0);
    }

    #[test]
    fn bucket_index_covers_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
    }

    #[test]
    fn quantiles_are_monotone_and_clamped_to_max() {
        let mut h = LatencyHistogram::new();
        for us in [3u64, 5, 9, 17, 900, 1100] {
            h.record(us);
        }
        assert!(h.p50_us() <= h.p90_us());
        assert!(h.p90_us() <= h.p99_us());
        assert!(h.p99_us() <= h.max_us());
        assert_eq!(h.max_us(), 1100);
        assert_eq!(h.count(), 6);
        assert_eq!(h.total_us(), 3 + 5 + 9 + 17 + 900 + 1100);
    }

    #[test]
    fn merge_is_elementwise_addition() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for us in [1u64, 10, 100] {
            a.record(us);
        }
        for us in [1000u64, 10_000] {
            b.record(us);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        let mut direct = LatencyHistogram::new();
        for us in [1u64, 10, 100, 1000, 10_000] {
            direct.record(us);
        }
        assert_eq!(merged, direct);
    }
}
