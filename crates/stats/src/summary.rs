//! Summary statistics for profiling and metrics collection.
//!
//! The profiler reduces 100 latency samples per (model, batch size) to a
//! 95th percentile (paper Figs. 3 and 9); the simulator reports accuracy
//! and violation-rate aggregates; and the load monitor of §6 tracks query
//! load as a moving average over a 500 ms window. This module provides
//! those primitives.

use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::VecDeque;

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

// Hand-written deserialization: an empty accumulator holds the ±∞
// sentinels in `min`/`max`, which JSON cannot carry (non-finite floats
// serialize as null and read back as NaN). `count == 0` implies exactly
// those sentinels, so they are reconstructed rather than read — every
// reachable accumulator round-trips bit-exactly.
impl Deserialize for OnlineStats {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| {
            v.field(name)
                .ok_or_else(|| DeError::missing_field("OnlineStats", name))
        };
        let count = u64::from_value(field("count")?)?;
        let (min, max) = if count == 0 {
            (f64::INFINITY, f64::NEG_INFINITY)
        } else {
            (
                f64::from_value(field("min")?)?,
                f64::from_value(field("max")?)?,
            )
        };
        Ok(Self {
            count,
            mean: f64::from_value(field("mean")?)?,
            m2: f64::from_value(field("m2")?)?,
            min,
            max,
        })
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation into the accumulator.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact percentile calculator over a retained sample set.
///
/// Retains all pushed values; `percentile(p)` sorts lazily on demand.
/// Uses the *nearest-rank* definition (`ceil(p/100 · n)`-th smallest),
/// matching the artifact's "95th percentile of 100 invocations" usage.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    values: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Creates the sample set from existing values.
    pub fn from_values(values: Vec<f64>) -> Self {
        Self {
            values,
            sorted: false,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile for `p ∈ [0, 100]`; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or any sample is NaN.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile must be in [0, 100], got {p}"
        );
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.values[rank.clamp(1, n) - 1])
    }

    /// Sample mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }
}

/// Time-windowed event-rate estimator — the load monitor of paper §6.
///
/// Tracks query load as the number of arrivals over a sliding window
/// (500 ms in the paper, following [38, 57]), expressed in events per
/// second. Timestamps must be fed in non-decreasing order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MovingAverage {
    window: f64,
    events: VecDeque<f64>,
}

impl MovingAverage {
    /// Creates a monitor with the given window length in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not strictly positive and finite.
    pub fn new(window: f64) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "window must be positive and finite, got {window}"
        );
        Self {
            window,
            events: VecDeque::new(),
        }
    }

    /// Records an event at time `now` (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the most recent recorded event.
    pub fn record(&mut self, now: f64) {
        if let Some(&last) = self.events.back() {
            assert!(
                now >= last,
                "events must be recorded in order: {now} < {last}"
            );
        }
        self.events.push_back(now);
        self.evict(now);
    }

    fn evict(&mut self, now: f64) {
        while let Some(&front) = self.events.front() {
            if now - front > self.window {
                self.events.pop_front();
            } else {
                break;
            }
        }
    }

    /// Estimated event rate (events per second) as of time `now`.
    pub fn rate(&mut self, now: f64) -> f64 {
        self.evict(now);
        self.events.len() as f64 / self.window
    }

    /// Number of events currently inside the window.
    pub fn in_window(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut p = Percentiles::from_values((1..=100).map(|i| i as f64).collect());
        assert_eq!(p.percentile(95.0), Some(95.0));
        assert_eq!(p.percentile(99.0), Some(99.0));
        assert_eq!(p.percentile(100.0), Some(100.0));
        assert_eq!(p.percentile(0.0), Some(1.0));
        assert_eq!(p.percentile(50.0), Some(50.0));
    }

    #[test]
    fn percentiles_single_value() {
        let mut p = Percentiles::from_values(vec![42.0]);
        for q in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(p.percentile(q), Some(42.0));
        }
    }

    #[test]
    fn percentiles_empty() {
        let mut p = Percentiles::new();
        assert_eq!(p.percentile(95.0), None);
        assert_eq!(p.mean(), None);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentiles_rejects_out_of_range() {
        let mut p = Percentiles::from_values(vec![1.0]);
        let _ = p.percentile(101.0);
    }

    #[test]
    fn moving_average_tracks_rate() {
        let mut m = MovingAverage::new(0.5);
        // 100 events over 1 second => steady state 50 in any 500 ms window.
        for i in 0..100 {
            m.record(i as f64 * 0.01);
        }
        let rate = m.rate(0.99);
        assert!((rate - 100.0).abs() <= 4.0, "rate={rate}");
        // After a long silence the window drains.
        assert_eq!(m.rate(10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "recorded in order")]
    fn moving_average_rejects_time_travel() {
        let mut m = MovingAverage::new(1.0);
        m.record(5.0);
        m.record(4.0);
    }
}
