//! Log2-bucketed latency histograms with a deterministic merge.
//!
//! [`LatencyHistogram`] replaces the mean-only accumulators that used to
//! back `ClassLatencies`: it keeps the exact count / sum / min / max that
//! the old `RunningMean` provided *and* a 64-bucket power-of-two histogram
//! that supports p50/p95/p99 queries and an order-independent merge, so
//! sweep workers can combine shards in any completion order and still
//! produce byte-identical artifacts.
//!
//! # Determinism contract
//!
//! Floating-point addition is commutative but not associative, so a merged
//! `f64` sum would depend on shard order. The histogram therefore
//! accumulates its sum as an *integer* number of nanoseconds (each sample
//! rounded once at record time): integer addition is associative, so any
//! shard split merges to exactly the same state. `min`/`max` are exact
//! under any order. The mean consequently carries a ≤ 0.5 ns per-sample
//! rounding bound, far below the simulators' nanosecond-scale latencies.

use ringsim_types::Time;
use serde::{Deserialize, Serialize};

/// Number of power-of-two buckets. Bucket 0 holds `[0, 1)` ns and bucket
/// `b ≥ 1` holds `[2^(b-1), 2^b)` ns; the last bucket is open-ended, which
/// at 64 buckets means "anything over ~146 years" — unreachable in practice.
pub const BUCKETS: usize = 64;

/// A log2-bucketed latency histogram over nanosecond samples.
///
/// # Examples
///
/// ```
/// use ringsim_obs::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ns in [100.0, 200.0, 400.0, 800.0] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.mean(), 375.0);
/// // Quantiles resolve to the upper edge of the containing bucket.
/// assert_eq!(h.p50(), 256.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    count: u64,
    /// Sum of samples, each rounded to integer nanoseconds at record time.
    /// Integer so that merges are exactly order-independent.
    sum_ns: u64,
    min: Option<f64>,
    max: Option<f64>,
    buckets: Vec<u64>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self { count: 0, sum_ns: 0, min: None, max: None, buckets: vec![0; BUCKETS] }
    }

    /// Rebuilds a histogram from exported parts (e.g. parsed back from a
    /// metrics JSON file). Returns `None` if the bucket vector has the
    /// wrong length or the counts are inconsistent.
    #[must_use]
    pub fn from_parts(
        count: u64,
        sum_ns: u64,
        min: Option<f64>,
        max: Option<f64>,
        buckets: Vec<u64>,
    ) -> Option<Self> {
        if buckets.len() != BUCKETS || buckets.iter().sum::<u64>() != count {
            return None;
        }
        Some(Self { count, sum_ns, min, max, buckets })
    }

    /// Index of the bucket containing a (non-negative, finite) sample.
    fn bucket_of(ns: f64) -> usize {
        let v = if ns.is_finite() && ns >= 1.0 { ns as u64 } else { 0 };
        if v == 0 {
            0
        } else {
            // v in [2^k, 2^(k+1)) lands in bucket k+1.
            ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Upper edge (exclusive) of bucket `b`, in nanoseconds.
    fn bucket_edge(b: usize) -> f64 {
        if b >= BUCKETS - 1 {
            f64::INFINITY
        } else {
            (1u64 << b) as f64
        }
    }

    /// Records one latency sample in nanoseconds.
    pub fn record(&mut self, ns: f64) {
        let ns = if ns.is_finite() && ns > 0.0 { ns } else { 0.0 };
        self.count += 1;
        self.sum_ns += ns.round() as u64;
        self.min = Some(self.min.map_or(ns, |m| m.min(ns)));
        self.max = Some(self.max.map_or(ns, |m| m.max(ns)));
        self.buckets[Self::bucket_of(ns)] += 1;
    }

    /// Records a [`Time`] duration as a nanosecond sample.
    #[inline]
    pub fn record_time(&mut self, t: Time) {
        self.record(t.as_ns_f64());
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples in integer nanoseconds (exactly mergeable).
    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Mean sample in nanoseconds (0 when empty). Each sample contributes
    /// with ≤ 0.5 ns rounding error.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, if any.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest recorded sample, if any.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// The `q`-quantile (`0 < q ≤ 1`), resolved to the upper edge of the
    /// bucket containing that rank — a conservative (over-)estimate whose
    /// error is bounded by the 2x bucket width. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_edge(b);
            }
        }
        Self::bucket_edge(BUCKETS - 1)
    }

    /// Median (see [`Self::quantile`]).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile (see [`Self::quantile`]).
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile (see [`Self::quantile`]).
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Folds another histogram into this one. Exactly associative and
    /// commutative: any shard split of a sample stream merges to the same
    /// state as recording the whole stream into one histogram.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Per-bucket counts (index `b` covers `[2^(b-1), 2^b)` ns, bucket 0 is
    /// `[0, 1)` ns).
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LatencyHistogram::bucket_of(0.0), 0);
        assert_eq!(LatencyHistogram::bucket_of(0.9), 0);
        assert_eq!(LatencyHistogram::bucket_of(1.0), 1);
        assert_eq!(LatencyHistogram::bucket_of(1.9), 1);
        assert_eq!(LatencyHistogram::bucket_of(2.0), 2);
        assert_eq!(LatencyHistogram::bucket_of(3.9), 2);
        assert_eq!(LatencyHistogram::bucket_of(4.0), 3);
        assert_eq!(LatencyHistogram::bucket_of(1023.0), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024.0), 11);
        assert_eq!(LatencyHistogram::bucket_of(f64::MAX), BUCKETS - 1);
    }

    #[test]
    fn mean_min_max_exact() {
        let mut h = LatencyHistogram::new();
        for ns in [10.0, 20.0, 30.0] {
            h.record(ns);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.min(), Some(10.0));
        assert_eq!(h.max(), Some(30.0));
    }

    #[test]
    fn quantile_upper_edges() {
        let mut h = LatencyHistogram::new();
        // 10 samples: 100 ns ×9 land in bucket 7 ([64,128)), 5000 ns ×1 in
        // bucket 13 ([4096,8192)).
        for _ in 0..9 {
            h.record(100.0);
        }
        h.record(5000.0);
        assert_eq!(h.p50(), 128.0);
        assert_eq!(h.quantile(0.90), 128.0);
        assert_eq!(h.p95(), 8192.0);
        assert_eq!(h.quantile(1.0), 8192.0);
    }

    #[test]
    fn merge_matches_whole_run() {
        let samples: Vec<f64> = (0..200).map(|i| (i * 37 % 997) as f64).collect();
        let mut whole = LatencyHistogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let (a, b) = samples.split_at(71);
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        for &s in a {
            ha.record(s);
        }
        for &s in b {
            hb.record(s);
        }
        // Merge in both orders; both must equal the whole-run histogram.
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.min(), None);
    }
}
