//! Fixed-bucket log2 latency histograms with nearest-rank quantile
//! extraction, plus the exact percentile-over-sorted-samples function
//! the serve bench graduated into the library.

/// Number of log2 buckets: one per power of two a `u64` can hold, so
/// any nanosecond value lands in exactly one bucket.
pub const BUCKETS: usize = 64;

/// A streaming latency histogram: 64 fixed log2 buckets (bucket `i`
/// holds values `v` with `floor(log2(v)) == i`; 0 and 1 share bucket 0),
/// plus exact count/sum/min/max. Constant memory, O(1) record, O(64)
/// quantile — the shape a serving tier can afford per request.
///
/// [`LatencyHistogram::quantile`] is nearest-rank over the bucket
/// counts: it returns the upper bound of the bucket containing the
/// ranked sample (clamped to the observed maximum), so it is exact to
/// within one log2 bucket of the true sorted-sample percentile — pinned
/// against the brute-force oracle in `tests/obs_proptests.rs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket index of one value.
fn bucket_of(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// The largest value bucket `i` can hold.
fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample (nanoseconds by convention; any `u64` works).
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank quantile, `q ∈ [0, 1]`: the upper bound of the
    /// bucket holding the sample of rank `⌈q·count⌉` (rank clamped to at
    /// least 1), itself clamped to the observed maximum. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The compact wire/exposition summary of this histogram.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum_ns: self.sum,
            p50_ns: self.quantile(0.50),
            p99_ns: self.quantile(0.99),
            p999_ns: self.quantile(0.999),
            max_ns: self.max,
        }
    }
}

/// The fixed-size digest of a [`LatencyHistogram`] — what travels in
/// `SKS` `Stats` frames and renders into Prometheus exposition. All
/// fields are nanoseconds except `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum_ns: u64,
    /// Median (nearest-rank, bucket-resolution).
    pub p50_ns: u64,
    /// 99th percentile (nearest-rank, bucket-resolution).
    pub p99_ns: u64,
    /// 99.9th percentile (nearest-rank, bucket-resolution).
    pub p999_ns: u64,
    /// Largest recorded sample (exact).
    pub max_ns: u64,
}

/// Exact percentile over **sorted** samples, `p ∈ [0, 1]`: the sample at
/// index `round((len − 1) · p)`. This is the serve bench's percentile
/// function, graduated into the library so the bench, the serving tier,
/// and the tests share one definition.
///
/// # Panics
///
/// Panics if `sorted` is empty — a percentile of nothing is a caller
/// bug, not a value.
pub fn percentile_nearest_rank<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(1), 3);
        assert_eq!(bucket_upper(63), u64::MAX);
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            assert!(v <= bucket_upper(bucket_of(v)), "{v}");
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn quantile_is_within_one_bucket_of_the_oracle() {
        let samples: Vec<u64> = (1..=1000).map(|i| i * 37 % 4096).collect();
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            // The sample at the same nearest-rank position the histogram
            // targets; the histogram answer is that sample's log2 bucket
            // upper bound (clamped to max) — never below it, never more
            // than one bucket (2×) above it.
            let rank = ((q * sorted.len() as f64).ceil() as u64).clamp(1, sorted.len() as u64);
            let exact = sorted[rank as usize - 1];
            let approx = h.quantile(q);
            assert!(
                approx >= exact && approx <= exact.saturating_mul(2).max(1) && approx <= h.max(),
                "q={q}: exact {exact}, approx {approx}"
            );
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), *sorted.last().unwrap());
        assert_eq!(h.min(), Some(sorted[0]));
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in [1u64, 5, 9, 100, 7000] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 900, 65000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn percentile_matches_the_bench_formula() {
        let sorted: Vec<u64> = (0..100).collect();
        assert_eq!(percentile_nearest_rank(&sorted, 0.0), 0);
        assert_eq!(percentile_nearest_rank(&sorted, 0.5), 50);
        assert_eq!(percentile_nearest_rank(&sorted, 0.99), 98);
        assert_eq!(percentile_nearest_rank(&sorted, 1.0), 99);
        assert_eq!(percentile_nearest_rank(&[42u64], 0.999), 42);
    }
}
