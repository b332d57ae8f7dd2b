//! A fixed-footprint latency histogram with approximate percentiles.
//!
//! Buckets grow geometrically (powers of two), so the histogram covers the
//! full range of DRAM request latencies — from ~100-cycle row hits to
//! multi-thousand-cycle worst cases under QoS schedulers — in 64 counters
//! with bounded relative error.

/// Histogram over `u64` samples with power-of-two buckets.
///
/// # Examples
///
/// ```
/// let mut h = parbs_metrics::LatencyHistogram::new();
/// for v in [100, 200, 400, 10_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.99) >= 8_192);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))` (bucket 0: `[0, 2)`).
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
    /// Exact minimum sample; `u64::MAX` sentinel while empty.
    min: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram { buckets: [0; 64], count: 0, sum: 0, max: 0, min: u64::MAX }
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (64 - value.leading_zeros()).saturating_sub(1).min(63) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of all samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact maximum sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact minimum sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Approximate `p`-th percentile (`p` in `[0, 1]`): the upper bound of
    /// the bucket containing the percentile rank, clamped to the observed
    /// maximum.
    ///
    /// The edge cases are defined, not accidental: an **empty histogram
    /// returns 0** for every `p`, and **`p = 0.0` returns the exact
    /// observed minimum** (not a bucket bound) — so `percentile(0.0)` and
    /// `percentile(1.0)` bracket the recorded samples exactly via
    /// [`LatencyHistogram::min`] and [`LatencyHistogram::max`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be within [0, 1]");
        if self.count == 0 {
            return 0;
        }
        if p == 0.0 {
            return self.min;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        // The empty sentinel (u64::MAX) is absorbing-neutral under min.
        self.min = self.min.min(other.min);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl parbs_snap::Snap for LatencyHistogram {
    fn save(&self, w: &mut parbs_snap::SnapWriter) {
        // Sparse bucket encoding: most of the 64 buckets are empty in any
        // real run, so write only (index, count) pairs.
        let occupied: Vec<(usize, u64)> =
            self.buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c)).collect();
        w.put(&occupied);
        w.u64(self.count);
        w.u64(self.sum);
        w.u64(self.max);
        w.u64(self.min);
    }

    fn load(r: &mut parbs_snap::SnapReader<'_>) -> Result<Self, parbs_snap::SnapError> {
        let occupied: Vec<(usize, u64)> = r.get()?;
        let mut h = LatencyHistogram::new();
        let mut next = 0;
        for (at, (i, c)) in occupied.into_iter().enumerate() {
            if i >= h.buckets.len() {
                return Err(parbs_snap::SnapError::BadTag {
                    what: "histogram bucket index",
                    value: i as u64,
                });
            }
            // The save writes each occupied bucket once, ascending, so a
            // histogram has one encoding.
            if i < next {
                return Err(parbs_snap::SnapError::KeyOrder { index: at });
            }
            if c == 0 {
                return Err(parbs_snap::SnapError::BadTag {
                    what: "histogram bucket count",
                    value: 0,
                });
            }
            next = i + 1;
            h.buckets[i] = c;
        }
        h.count = r.u64()?;
        h.sum = r.u64()?;
        h.max = r.u64()?;
        h.min = r.u64()?;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0, "empty min is defined as 0");
        assert_eq!(h.percentile(0.0), 0, "empty histogram: every percentile is 0");
        assert_eq!(h.percentile(1.0), 0);
    }

    #[test]
    fn p_zero_is_the_exact_observed_minimum() {
        let mut h = LatencyHistogram::new();
        for v in [7u64, 100, 6_000] {
            h.record(v);
        }
        // 7 lives in bucket [4, 8); the bucket upper bound would be 7 too,
        // but 100's bucket is [64, 128) — p=0 must not report a bound.
        assert_eq!(h.percentile(0.0), 7);
        assert_eq!(h.min(), 7);
        h.record(3);
        assert_eq!(h.percentile(0.0), 3, "min tracks new smaller samples");
    }

    #[test]
    fn merge_keeps_the_smaller_minimum() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(500);
        b.record(20);
        a.merge(&b);
        assert_eq!(a.percentile(0.0), 20);
        let empty = LatencyHistogram::new();
        a.merge(&empty);
        assert_eq!(a.min(), 20, "merging an empty histogram keeps the minimum");
        let mut c = LatencyHistogram::new();
        c.merge(&a);
        assert_eq!(c.min(), 20, "merging into an empty histogram adopts the minimum");
    }

    #[test]
    fn mean_and_max_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert!((h.mean() - 20.0).abs() < 1e-12);
        assert_eq!(h.max(), 30);
    }

    #[test]
    fn percentile_bounds_contain_sample() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        // True median 500; bucket upper bound 511.
        assert!((500..=511).contains(&p50), "p50 = {p50}");
        assert_eq!(h.percentile(1.0), 1000);
        assert!(h.percentile(0.0) >= 1);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(100);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 10_000);
        assert!(a.percentile(1.0) == 10_000);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn percentile_rejects_out_of_range() {
        let _ = LatencyHistogram::new().percentile(1.5);
    }

    #[test]
    fn a_snapshot_names_each_occupied_bucket_once_in_order() {
        use parbs_snap::{SnapError, SnapReader, SnapWriter};
        let decode = |buckets: &[(usize, u64)]| {
            let mut w = SnapWriter::new();
            w.put(&buckets.to_vec());
            for v in [2, 600, 500, 100] {
                w.u64(v);
            }
            let bytes = w.into_bytes();
            SnapReader::new(&bytes).get::<LatencyHistogram>()
        };
        assert!(decode(&[(6, 1), (8, 1)]).is_ok());
        assert_eq!(decode(&[(8, 1), (6, 1)]), Err(SnapError::KeyOrder { index: 1 }));
        assert_eq!(decode(&[(6, 1), (6, 1)]), Err(SnapError::KeyOrder { index: 1 }));
        assert!(matches!(decode(&[(6, 0)]), Err(SnapError::BadTag { .. })));
        assert!(matches!(decode(&[(64, 1)]), Err(SnapError::BadTag { .. })));
    }

    #[test]
    fn zero_sample_goes_to_bucket_zero() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(0.5) <= 1);
    }
}
