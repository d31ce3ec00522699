//! Query-load estimation (the load monitor of paper §3.2.2 and §6).
//!
//! Online, RAMSIS and the baselines pick a policy / model according to
//! the *anticipated* query load. The paper's implementation "tracks query
//! load via a moving average over a window of 500 milliseconds [38, 57]"
//! and shares that monitor between RAMSIS and the baselines; the
//! constant-load experiments of §7.2 instead assume "the load monitor
//! perfectly predicts the query load" — provided here as
//! [`OracleMonitor`].

use ramsis_stats::summary::MovingAverage;
use serde::{Deserialize, Serialize};

use crate::trace::Trace;

/// A query-load estimator fed with arrival events.
pub trait LoadEstimator {
    /// Records a query arrival at time `now` (seconds).
    fn record_arrival(&mut self, now: f64);

    /// The anticipated query load (QPS) as of time `now`.
    fn estimate(&mut self, now: f64) -> f64;

    /// The observed-to-planned load ratio at `now`, for estimators that
    /// carry a planned trace to compare against ([`DivergenceMonitor`]).
    /// `None` for plain estimators with no notion of a plan.
    fn divergence(&mut self, now: f64) -> Option<f64> {
        let _ = now;
        None
    }

    /// The load trend (QPS per second) at `now`, for estimators that can
    /// measure one — the autoscaler uses it to anticipate warm-up lag.
    /// `None` while there is no meaningful trend (default, and during
    /// warm-up).
    fn trend_qps_per_s(&mut self, now: f64) -> Option<f64> {
        let _ = now;
        None
    }

    /// Serializable internal state for checkpoint/resume. `None`
    /// (the default) declares the estimator unsupported: a simulation
    /// run with checkpointing enabled refuses to start rather than
    /// silently producing unresumable snapshots. Stateless estimators
    /// return `Some(Value::Null)`.
    fn checkpoint_state(&self) -> Option<serde::Value> {
        None
    }

    /// Restores state captured by [`Self::checkpoint_state`] onto a
    /// freshly constructed estimator.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch between the state
    /// tree and this estimator.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        let _ = state;
        Err("estimator does not support checkpoint restore".to_string())
    }
}

/// The 500 ms moving-average monitor of §6.
///
/// Monitoring starts at `t = 0` (the simulation origin). Before one
/// full window has elapsed, dividing the in-window count by the full
/// window length would systematically *under*-estimate the load (at
/// `t = window / 2` a steady stream fills only half the window), so the
/// estimate divides by the elapsed time instead until
/// [`Self::warmed_up`] turns true.
#[derive(Debug, Clone)]
pub struct LoadMonitor {
    state: LoadMonitorState,
    window_s: f64,
}

/// The run state a [`LoadMonitor`] checkpoints: the event queues of
/// both moving-average windows (their lengths are constructor
/// arguments).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LoadMonitorState {
    window: MovingAverage,
    /// A second, longer window recorded in parallel; comparing its rate
    /// against the primary window's yields the load trend. Never
    /// consulted by [`LoadEstimator::estimate`], so adding it changed no
    /// estimate.
    trend_window: MovingAverage,
}

impl LoadMonitor {
    /// The paper's monitoring window.
    pub const DEFAULT_WINDOW_S: f64 = 0.5;

    /// Fraction of the window the elapsed-time divisor is floored at
    /// during warm-up, so the first few arrivals cannot produce a
    /// near-division-by-zero estimate.
    pub const MIN_WARMUP_FRACTION: f64 = 0.05;

    /// The trend window is this many times the estimation window.
    pub const TREND_WINDOW_FACTOR: f64 = 4.0;

    /// Creates a monitor with the paper's 500 ms window.
    pub fn new() -> Self {
        Self::with_window(Self::DEFAULT_WINDOW_S)
    }

    /// Creates a monitor with a custom window length in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `window_s` is not strictly positive and finite.
    pub fn with_window(window_s: f64) -> Self {
        Self {
            state: LoadMonitorState {
                window: MovingAverage::new(window_s),
                trend_window: MovingAverage::new(window_s * Self::TREND_WINDOW_FACTOR),
            },
            window_s,
        }
    }

    /// Whether a full monitoring window has elapsed since `t = 0`, i.e.
    /// the estimate is the steady-state moving average rather than the
    /// elapsed-time-scaled warm-up value.
    pub fn warmed_up(&self, now: f64) -> bool {
        now >= self.window_s
    }
}

impl Default for LoadMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl LoadEstimator for LoadMonitor {
    fn record_arrival(&mut self, now: f64) {
        self.state.window.record(now);
        self.state.trend_window.record(now);
    }

    fn estimate(&mut self, now: f64) -> f64 {
        let raw = self.state.window.rate(now);
        if self.warmed_up(now) {
            return raw;
        }
        // Warm-up: the window spans [0, now), not a full window_s.
        let effective = now.max(self.window_s * Self::MIN_WARMUP_FRACTION);
        raw * self.window_s / effective
    }

    /// Finite difference between the short and long moving averages:
    /// their rates are centered `(trend_window - window) / 2` seconds
    /// apart, so the difference over that gap is the slope. `None`
    /// before a full trend window has elapsed.
    fn trend_qps_per_s(&mut self, now: f64) -> Option<f64> {
        let long_s = self.window_s * Self::TREND_WINDOW_FACTOR;
        if now < long_s {
            return None;
        }
        let short = self.state.window.rate(now);
        let long = self.state.trend_window.rate(now);
        let gap_s = (long_s - self.window_s) / 2.0;
        Some((short - long) / gap_s)
    }

    fn checkpoint_state(&self) -> Option<serde::Value> {
        Some(self.state.to_value())
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.state = LoadMonitorState::from_value(state).map_err(|e| e.to_string())?;
        Ok(())
    }
}

/// A perfect-knowledge monitor that reads the true load off the trace —
/// the assumption of §7.2's constant-load experiments ("to focus our
/// evaluation on comparing the best possible performance of all
/// evaluated MS&S approaches").
#[derive(Debug, Clone)]
pub struct OracleMonitor {
    trace: Trace,
}

impl OracleMonitor {
    /// Creates an oracle over the given trace.
    pub fn new(trace: Trace) -> Self {
        Self { trace }
    }
}

impl LoadEstimator for OracleMonitor {
    fn record_arrival(&mut self, _now: f64) {}

    fn estimate(&mut self, now: f64) -> f64 {
        self.trace.qps_at(now)
    }

    /// Perfect knowledge: the forward difference of the planned trace.
    fn trend_qps_per_s(&mut self, now: f64) -> Option<f64> {
        const HORIZON_S: f64 = 0.25;
        let here = self.trace.qps_at(now);
        let ahead = self.trace.qps_at(now + HORIZON_S);
        Some((ahead - here) / HORIZON_S)
    }

    /// Stateless: the trace is configuration, not run state.
    fn checkpoint_state(&self) -> Option<serde::Value> {
        Some(serde::Value::Null)
    }

    fn restore_state(&mut self, _state: &serde::Value) -> Result<(), String> {
        Ok(())
    }
}

/// A monitor that also reports how far the *observed* load has diverged
/// from the *planned* trace — the signal a degradation-aware serving
/// scheme watches to tell an unexpected surge (fault injection, flash
/// crowd) from ordinary noise.
///
/// Estimation behaves exactly like the wrapped [`LoadMonitor`]: the
/// anticipated load is the measured one, so schemes driven through
/// [`LoadEstimator`] see real conditions, not the plan. On top of that,
/// [`Self::divergence`] exposes the observed-to-planned load ratio
/// (1.0 = on plan, 3.0 = a 3× surge) and [`Self::is_surging`] thresholds
/// it.
#[derive(Debug, Clone)]
pub struct DivergenceMonitor {
    observed: LoadMonitor,
    planned: Trace,
}

impl DivergenceMonitor {
    /// Divergence is meaningless at near-zero planned load; below this
    /// floor (QPS) the ratio is reported as 1.0.
    pub const MIN_PLANNED_QPS: f64 = 1.0;

    /// Creates the monitor with the paper's 500 ms measuring window over
    /// the given planned trace.
    pub fn new(planned: Trace) -> Self {
        Self {
            observed: LoadMonitor::new(),
            planned,
        }
    }

    /// The observed-to-planned load ratio at `now`: above 1.0 the
    /// cluster sees more load than planned for. Clamped to 1.0 when the
    /// plan expects (near-)zero load.
    pub fn divergence(&mut self, now: f64) -> f64 {
        let planned = self.planned.qps_at(now);
        if planned < Self::MIN_PLANNED_QPS {
            return 1.0;
        }
        self.observed.estimate(now) / planned
    }

    /// Whether observed load exceeds the plan by more than `factor`
    /// (e.g. `1.5` flags sustained 50%-over-plan load).
    pub fn is_surging(&mut self, now: f64, factor: f64) -> bool {
        self.divergence(now) > factor
    }
}

impl LoadEstimator for DivergenceMonitor {
    fn record_arrival(&mut self, now: f64) {
        self.observed.record_arrival(now);
    }

    fn estimate(&mut self, now: f64) -> f64 {
        self.observed.estimate(now)
    }

    fn divergence(&mut self, now: f64) -> Option<f64> {
        Some(DivergenceMonitor::divergence(self, now))
    }

    fn trend_qps_per_s(&mut self, now: f64) -> Option<f64> {
        self.observed.trend_qps_per_s(now)
    }

    /// Only the observed monitor carries run state; the planned trace is
    /// configuration.
    fn checkpoint_state(&self) -> Option<serde::Value> {
        self.observed.checkpoint_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.observed.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::sample_poisson_arrivals;
    use crate::trace::TraceKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn moving_average_tracks_poisson_stream() {
        let trace = Trace::constant(2_000.0, 5.0);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let arrivals = sample_poisson_arrivals(&trace, &mut rng);
        let mut mon = LoadMonitor::new();
        for &t in &arrivals {
            mon.record_arrival(t);
        }
        let est = mon.estimate(5.0);
        // 2,000 QPS over a 500 ms window: Poisson(1,000) has sigma ~32;
        // stay within 5 sigma in rate units (sigma_rate ~ 63 QPS).
        assert!((est - 2_000.0).abs() < 320.0, "est={est}");
    }

    #[test]
    fn moving_average_reacts_to_load_change() {
        let trace = Trace::from_interval_qps(&[500.0, 4_000.0], 10.0, TraceKind::Custom);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let arrivals = sample_poisson_arrivals(&trace, &mut rng);
        let mut mon = LoadMonitor::new();
        let mut est_low = 0.0;
        let mut est_high = 0.0;
        for &t in &arrivals {
            mon.record_arrival(t);
            if (9.4..9.5).contains(&t) {
                est_low = mon.estimate(t);
            }
            if (19.4..19.5).contains(&t) {
                est_high = mon.estimate(t);
            }
        }
        assert!(est_low < 1_000.0, "est_low={est_low}");
        assert!(est_high > 3_000.0, "est_high={est_high}");
    }

    #[test]
    fn oracle_reads_the_trace() {
        let trace = Trace::from_interval_qps(&[100.0, 900.0], 10.0, TraceKind::Custom);
        let mut mon = OracleMonitor::new(trace);
        assert_eq!(mon.estimate(5.0), 100.0);
        assert_eq!(mon.estimate(15.0), 900.0);
        // Arrivals are ignored.
        mon.record_arrival(5.0);
        assert_eq!(mon.estimate(5.0), 100.0);
    }

    #[test]
    fn trend_is_none_until_warm_and_tracks_a_ramp() {
        // A linear ramp from 500 to 4,500 QPS over 8 s has a true slope
        // of 500 QPS/s; the finite-difference trend should land in that
        // neighborhood once both windows are populated.
        let steps: Vec<f64> = (0..16).map(|i| 500.0 + 250.0 * i as f64).collect();
        let trace = Trace::from_interval_qps(&steps, 0.5, TraceKind::Custom);
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let arrivals = sample_poisson_arrivals(&trace, &mut rng);
        let mut mon = LoadMonitor::new();
        // Before one full trend window there is no slope to report.
        assert_eq!(mon.trend_qps_per_s(0.0), None);
        let mut slope = None;
        for &t in &arrivals {
            mon.record_arrival(t);
            if t < LoadMonitor::DEFAULT_WINDOW_S * LoadMonitor::TREND_WINDOW_FACTOR {
                assert_eq!(mon.trend_qps_per_s(t), None, "not warm at t={t}");
            }
            if (7.4..7.5).contains(&t) {
                slope = mon.trend_qps_per_s(t);
            }
        }
        let slope = slope.expect("warm by 7.5 s");
        assert!(
            (100.0..1_500.0).contains(&slope),
            "ramp slope should be strongly positive, got {slope}"
        );
    }

    #[test]
    fn trend_is_flat_on_steady_load_and_negative_on_decay() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let steady = sample_poisson_arrivals(&Trace::constant(2_000.0, 6.0), &mut rng);
        let mut mon = LoadMonitor::new();
        for &t in &steady {
            mon.record_arrival(t);
        }
        let flat = mon.trend_qps_per_s(6.0).expect("warm");
        // Poisson noise only: far smaller than the ramp's 500 QPS/s.
        assert!(flat.abs() < 400.0, "steady trend {flat}");

        let falling = Trace::from_interval_qps(&[4_000.0, 2_000.0, 500.0], 2.0, TraceKind::Custom);
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let arrivals = sample_poisson_arrivals(&falling, &mut rng);
        let mut mon = LoadMonitor::new();
        let mut down = None;
        for &t in &arrivals {
            mon.record_arrival(t);
            if (5.3..5.5).contains(&t) {
                down = mon.trend_qps_per_s(t);
            }
        }
        let down = down.expect("warm");
        assert!(down < -200.0, "decaying trend {down}");
    }

    #[test]
    fn oracle_and_divergence_trends_delegate() {
        // The oracle differentiates the plan itself: a step up at t=10
        // is visible just before the boundary, zero elsewhere.
        let trace = Trace::from_interval_qps(&[100.0, 900.0], 10.0, TraceKind::Custom);
        let mut oracle = OracleMonitor::new(trace.clone());
        assert_eq!(oracle.trend_qps_per_s(5.0), Some(0.0));
        let at_step = oracle.trend_qps_per_s(9.9).expect("oracle always knows");
        assert!(at_step > 1_000.0, "step slope {at_step}");
        // DivergenceMonitor reports its observed monitor's trend.
        let mut div = DivergenceMonitor::new(trace);
        assert_eq!(div.trend_qps_per_s(0.1), None);
    }

    #[test]
    fn trend_default_impl_is_none() {
        // The trait default keeps every external estimator valid.
        struct Fixed;
        impl LoadEstimator for Fixed {
            fn record_arrival(&mut self, _now: f64) {}
            fn estimate(&mut self, _now: f64) -> f64 {
                42.0
            }
        }
        assert_eq!(Fixed.trend_qps_per_s(3.0), None);
    }

    #[test]
    fn divergence_flags_a_surge() {
        // Plan for 1,000 QPS, actually receive 3,000.
        let planned = Trace::constant(1_000.0, 10.0);
        let actual = Trace::constant(3_000.0, 10.0);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let arrivals = sample_poisson_arrivals(&actual, &mut rng);
        let mut mon = DivergenceMonitor::new(planned);
        for &t in &arrivals {
            mon.record_arrival(t);
        }
        let d = mon.divergence(10.0);
        assert!((2.5..3.5).contains(&d), "divergence={d}");
        assert!(mon.is_surging(10.0, 1.5));
        assert!(!mon.is_surging(10.0, 4.0));
        // Estimation reports the observed load, not the plan.
        assert!((mon.estimate(10.0) - 3_000.0).abs() < 500.0);
    }

    #[test]
    fn divergence_is_neutral_on_plan_and_at_zero_plan() {
        let planned = Trace::constant(2_000.0, 5.0);
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let arrivals = sample_poisson_arrivals(&planned, &mut rng);
        let mut mon = DivergenceMonitor::new(planned);
        for &t in &arrivals {
            mon.record_arrival(t);
        }
        let d = mon.divergence(5.0);
        assert!((0.8..1.2).contains(&d), "divergence={d}");
        // A zero-load plan never divides by zero.
        let mut idle = DivergenceMonitor::new(Trace::constant(0.0, 5.0));
        idle.record_arrival(1.0);
        assert_eq!(idle.divergence(1.0), 1.0);
    }

    #[test]
    fn warm_up_scaling_removes_cold_start_bias() {
        // Regression: before the first full window has elapsed, dividing
        // the in-window count by the full window length halves a steady
        // 2,000 QPS stream when read at t = window / 2. The warm-up path
        // divides by elapsed time instead.
        let trace = Trace::constant(2_000.0, 0.25);
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let arrivals = sample_poisson_arrivals(&trace, &mut rng);
        let mut mon = LoadMonitor::new();
        for &t in &arrivals {
            mon.record_arrival(t);
        }
        assert!(!mon.warmed_up(0.25));
        let est = mon.estimate(0.25);
        // Unbiased now: ~500 arrivals over 0.25 s => ~2,000 QPS. The old
        // behavior reported ~1,000.
        assert!(
            (est - 2_000.0).abs() < 320.0,
            "cold-start estimate should be unbiased, got {est}"
        );
        assert!(mon.warmed_up(0.5));
    }

    #[test]
    fn warm_up_floor_bounds_first_arrival_estimate() {
        // A single arrival in the first instants must not explode into
        // an absurd rate: the elapsed divisor is floored at 5% of the
        // window.
        let mut mon = LoadMonitor::new();
        mon.record_arrival(0.001);
        let est = mon.estimate(0.001);
        let cap = 1.0 / (LoadMonitor::DEFAULT_WINDOW_S * LoadMonitor::MIN_WARMUP_FRACTION);
        assert!(est <= cap + 1e-9, "est={est} cap={cap}");
        assert!(est > 0.0);
    }

    #[test]
    fn trait_divergence_is_none_for_plain_monitors() {
        let mut plain = LoadMonitor::new();
        assert_eq!(LoadEstimator::divergence(&mut plain, 1.0), None);
        let mut oracle = OracleMonitor::new(Trace::constant(10.0, 5.0));
        assert_eq!(LoadEstimator::divergence(&mut oracle, 1.0), None);
        let mut div = DivergenceMonitor::new(Trace::constant(10.0, 5.0));
        assert!(LoadEstimator::divergence(&mut div, 1.0).is_some());
    }

    #[test]
    fn checkpoint_state_round_trips_mid_stream() {
        let trace = Trace::constant(500.0, 4.0);
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let arrivals = sample_poisson_arrivals(&trace, &mut rng);
        let mut mon = LoadMonitor::new();
        let cut = arrivals.len() / 2;
        for &t in &arrivals[..cut] {
            mon.record_arrival(t);
        }
        let state = mon.checkpoint_state().expect("LoadMonitor supports it");
        let mut restored = LoadMonitor::new();
        restored.restore_state(&state).unwrap();
        // The restored monitor continues identically.
        for &t in &arrivals[cut..] {
            mon.record_arrival(t);
            restored.record_arrival(t);
        }
        assert_eq!(mon.estimate(4.0), restored.estimate(4.0));
        assert_eq!(mon.trend_qps_per_s(4.0), restored.trend_qps_per_s(4.0));
        // Oracle is stateless; divergence delegates to the observed side.
        let mut oracle = OracleMonitor::new(Trace::constant(1.0, 1.0));
        assert_eq!(oracle.checkpoint_state(), Some(serde::Value::Null));
        oracle.restore_state(&serde::Value::Null).unwrap();
        let div = DivergenceMonitor::new(Trace::constant(1.0, 1.0));
        assert!(div.checkpoint_state().is_some());
        // The trait default declares estimators unsupported.
        struct Fixed;
        impl LoadEstimator for Fixed {
            fn record_arrival(&mut self, _now: f64) {}
            fn estimate(&mut self, _now: f64) -> f64 {
                0.0
            }
        }
        assert_eq!(Fixed.checkpoint_state(), None);
        assert!(Fixed.restore_state(&serde::Value::Null).is_err());
    }

    #[test]
    fn custom_window_changes_smoothing() {
        let mut fast = LoadMonitor::with_window(0.1);
        let mut slow = LoadMonitor::with_window(2.0);
        // A burst of 100 arrivals at t = 0, then silence.
        for i in 0..100 {
            let t = i as f64 * 1e-4;
            fast.record_arrival(t);
            slow.record_arrival(t);
        }
        // At t = 0.5 the fast window has drained, the slow one has not.
        assert_eq!(fast.estimate(0.5), 0.0);
        assert!(slow.estimate(0.5) > 0.0);
    }
}
