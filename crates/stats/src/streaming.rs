//! Streaming (constant-memory) metric primitives for hot paths.
//!
//! The simulator originally kept *every* response-time sample in a
//! [`crate::Percentiles`] vector and sorted it at report time — fine
//! for a 30-second run, hostile to the production north-star where a
//! single run completes millions of queries. This module provides the
//! replacement: a log-bucketed [`LogHistogram`] in the spirit of
//! HdrHistogram — bounded memory, O(1) record, mergeable snapshots,
//! and percentiles with a known relative error.
//!
//! Everything here is deterministic: no wall clock, no randomness, and
//! identical inputs produce identical serialized snapshots.

use serde::{DeError, Deserialize, Serialize, Value};

/// Number of sub-bucket bits: each power-of-two range is split into
/// `2^SUB_BITS` equal-width buckets, bounding the relative error of any
/// recorded value (and hence any percentile) by `2^-(SUB_BITS + 1)`
/// with midpoint representatives — under 0.8%.
const SUB_BITS: u32 = 6;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Bucket-array length covering the full `u64` range: the first
/// `2^SUB_BITS` values exactly, then one doubling range of `2^SUB_BITS`
/// sub-buckets per mantissa shift (shift runs 0..=63 − SUB_BITS).
const N_BUCKETS: usize = (SUB_COUNT + (64 - SUB_BITS as u64) * SUB_COUNT) as usize;

/// Log-bucketed histogram over `u64` values (HdrHistogram-style).
///
/// Values below `2^6` are recorded exactly; above that each
/// power-of-two range is split into 64 sub-buckets, so any percentile
/// is reported with relative error below `2^-7 ≈ 0.8%`. Memory is a
/// fixed ~30 KB regardless of the number of observations, `record` is
/// O(1), and two histograms [`merge`](Self::merge) by bucket-wise
/// addition — partial runs aggregate without re-observing anything.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v < SUB_COUNT {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let mantissa = (v >> shift) - SUB_COUNT;
        (SUB_COUNT as u32 + shift * SUB_COUNT as u32 + mantissa as u32) as usize
    }

    /// The value range bucket `i` covers, as `(lo, width)` — the top
    /// bucket's exclusive end would overflow `u64`.
    fn bucket_range(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < SUB_COUNT {
            return (i, 1);
        }
        let shift = (i - SUB_COUNT) / SUB_COUNT;
        let mantissa = SUB_COUNT + (i - SUB_COUNT) % SUB_COUNT;
        (mantissa << shift, 1 << shift)
    }

    /// Midpoint representative of bucket `i`.
    fn bucket_mid(i: usize) -> u64 {
        let (lo, width) = Self::bucket_range(i);
        lo + width / 2
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded values (sums are kept exactly);
    /// 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value; `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank percentile for `p ∈ [0, 100]`, reported as the
    /// containing bucket's midpoint (exact below 64; relative error
    /// < 0.8% above). `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile must be in [0, 100], got {p}"
        );
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        // The extremes are tracked exactly; report them as such.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp into the truly observed range so p0/p100 are
                // exact and representatives never overshoot.
                return Some(Self::bucket_mid(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another histogram in (bucket-wise addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(bucket_midpoint, count)` pairs, in value
    /// order — the mergeable snapshot the exporters serialize.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_mid(i), c))
            .collect()
    }
}

// Sparse hand-written serialization: only non-zero buckets travel, as
// `(index, count)` pairs, and the exact u128 sum is split into two u64
// halves (the vendored serde stand-in's data model has no u128).
impl Serialize for LogHistogram {
    fn to_value(&self) -> Value {
        let buckets: Vec<(u32, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect();
        Value::Object(vec![
            ("buckets".to_owned(), buckets.to_value()),
            ("sum_hi".to_owned(), ((self.sum >> 64) as u64).to_value()),
            ("sum_lo".to_owned(), (self.sum as u64).to_value()),
            ("min".to_owned(), self.min.to_value()),
            ("max".to_owned(), self.max.to_value()),
        ])
    }
}

impl Deserialize for LogHistogram {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| {
            v.field(name)
                .ok_or_else(|| DeError::missing_field("LogHistogram", name))
        };
        let buckets = Vec::<(u32, u64)>::from_value(field("buckets")?)?;
        let mut h = LogHistogram::new();
        for (i, c) in buckets {
            let i = i as usize;
            if i >= N_BUCKETS {
                return Err(DeError(format!(
                    "LogHistogram: bucket index {i} out of range"
                )));
            }
            h.counts[i] = c;
            h.count += c;
        }
        let hi = u64::from_value(field("sum_hi")?)?;
        let lo = u64::from_value(field("sum_lo")?)?;
        h.sum = ((hi as u128) << 64) | lo as u128;
        h.min = u64::from_value(field("min")?)?;
        h.max = u64::from_value(field("max")?)?;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
        // Every percentile lands exactly on a recorded small value.
        for p in [1.0f64, 25.0, 50.0, 75.0, 100.0] {
            let rank = ((p / 100.0) * 64.0).ceil() as u64;
            assert_eq!(h.percentile(p), Some(rank - 1), "p={p}");
        }
    }

    #[test]
    fn percentile_relative_error_is_bounded() {
        // Log-spaced values spanning nine decades.
        let mut h = LogHistogram::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut v = 1u64;
        while v < 1_000_000_000 {
            h.record(v);
            exact.push(v);
            v = (v as f64 * 1.37).ceil() as u64;
        }
        for p in [5.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            let rank = (((p / 100.0) * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let want = exact[rank - 1] as f64;
            let got = h.percentile(p).unwrap() as f64;
            let rel = (got - want).abs() / want;
            assert!(
                rel < 1.0 / 128.0,
                "p={p}: got {got}, exact {want}, rel {rel}"
            );
        }
    }

    #[test]
    fn mean_is_exact_and_percentiles_monotone() {
        let mut h = LogHistogram::new();
        let mut sum = 0u64;
        for i in 1..=10_000u64 {
            let v = i * 977;
            h.record(v);
            sum += v;
        }
        assert!((h.mean() - sum as f64 / 10_000.0).abs() < 1e-6);
        let mut last = 0;
        for p in [1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p).unwrap();
            assert!(v >= last, "p={p}: {v} < {last}");
            last = v;
        }
        assert_eq!(h.percentile(100.0), Some(h.max().unwrap()));
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn rejects_out_of_range_percentile() {
        let _ = LogHistogram::new().percentile(101.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let values: Vec<u64> = (0..5_000u64).map(|i| (i * i) % 777_777 + 1).collect();
        let mut all = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for &v in &values {
            all.record(v);
        }
        for &v in &values[..1_234] {
            a.record(v);
        }
        for &v in &values[1_234..] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.percentile(95.0), all.percentile(95.0));
    }

    #[test]
    fn serde_round_trip_is_lossless() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 63, 64, 1_000, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: LogHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
        // Identical inputs give identical bytes (determinism contract).
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(100.0), Some(u64::MAX));
    }

    #[test]
    fn p0_and_p100_are_exact_tracked_extremes() {
        // The extreme quantiles must bypass bucket midpoints entirely:
        // whatever was recorded, p0 is the exact min and p100 the exact
        // max, even when both land mid-bucket.
        let mut h = LogHistogram::new();
        for v in [1_000_003u64, 999_999_937, 17, 4_294_967_311] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(17));
        assert_eq!(h.percentile(100.0), Some(4_294_967_311));
        assert_eq!(h.percentile(0.0), h.min());
        assert_eq!(h.percentile(100.0), h.max());
    }

    #[test]
    fn single_sample_answers_every_quantile_with_itself() {
        let mut h = LogHistogram::new();
        h.record(123_456_789);
        for p in [0.0, 0.1, 25.0, 50.0, 75.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), Some(123_456_789), "p={p}");
        }
        assert!((h.mean() - 123_456_789.0).abs() < 1e-6);
    }

    proptest::proptest! {
        /// Quantiles are monotone in q: for any observation set and any
        /// ordered pair of probabilities, percentile(p_lo) <=
        /// percentile(p_hi), and both stay within [min, max].
        #[test]
        fn percentiles_monotone_in_q(
            values in proptest::collection::vec(0u64..u64::MAX, 1..200),
            ps in proptest::collection::vec(0.0f64..100.0, 2..8),
        ) {
            // The generator's range is half-open; pin both endpoints so
            // the exact-extreme paths are exercised in every case.
            let mut ps = ps;
            ps.push(0.0);
            ps.push(100.0);
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record(v);
            }
            ps.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut last = h.min().unwrap();
            for &p in &ps {
                let q = h.percentile(p).unwrap();
                proptest::prop_assert!(q >= last, "p={p}: {q} < {last}");
                proptest::prop_assert!(q >= h.min().unwrap() && q <= h.max().unwrap());
                last = q;
            }
        }
    }
}
