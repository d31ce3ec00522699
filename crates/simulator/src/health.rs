//! Perceived health: failure detection without oracle knowledge
//! (DESIGN.md §14).
//!
//! Every earlier layer reacts to faults with oracle knowledge — the
//! engine tells the scheme about a crash at the exact crash instant.
//! Real serving systems only see health through delayed, noisy
//! signals. This module models that gap deterministically:
//!
//! - A **heartbeat/probe model**: the engine probes every candidate
//!   worker on a fixed interval ([`HealthPolicy::probe_interval_s`]);
//!   a probe to a dead (or heartbeat-partitioned) worker goes
//!   unanswered after [`HealthPolicy::probe_timeout_s`].
//! - A **phi-accrual-style failure detector**: suspicion level
//!   `phi = (elapsed_since_last_ack / mean_ack_gap) · log10(e)` grows
//!   with silence; crossing [`HealthPolicy::phi_threshold`] ejects the
//!   worker from *perceived* membership. Acks come from both answered
//!   probes and observed batch completions, and the mean gap is an
//!   EWMA clamped into `[interval/4, interval]` so the detection bound
//!   stays provable.
//! - A **per-worker circuit breaker**
//!   (`Closed → Open → HalfOpen → Closed`): a suspected worker's
//!   breaker opens; after [`HealthPolicy::open_backoff_s`] it half-opens
//!   and admits trial probes; [`HealthPolicy::close_probes`] consecutive
//!   successes close it (reinstating the worker), one failure re-opens
//!   it. Closing is *probe-gated*: completions never close a breaker.
//! - **EWMA service-time outlier ejection** for gray failures: each
//!   completion's service time is normalized by the profile's expected
//!   latency for that model and batch; a worker whose normalized ratio
//!   exceeds [`HealthPolicy::outlier_factor`] × the fleet EWMA for
//!   [`HealthPolicy::outlier_strikes`] consecutive batches is ejected
//!   even though it still answers probes. Batch errors count as
//!   strikes too.
//!
//! The monitor is *blind*: nothing the engine tells it about ground
//! truth influences a decision. Ground truth (`down_since`) is passed
//! in purely for scoring — stamping each suspicion as genuine or false
//! and measuring detection lag — so detection quality is measurable
//! without ever informing it.
//!
//! Everything is pure arithmetic over deterministic inputs (simulated
//! time, seeded service times) — no RNG, no wall clock — and with no
//! [`HealthPolicy`] configured the engine schedules no probe ticks at
//! all and takes exactly its oracle paths.

use serde::{Deserialize, Serialize};

use crate::metrics::HealthStats;
use crate::SimError;

/// Simulation time in integer nanoseconds (mirrors the engine clock).
pub type Nanos = u64;

const NANOS_PER_SEC: f64 = 1e9;

/// Circuit-breaker state of one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: traffic flows, failures accumulate suspicion.
    Closed,
    /// Tripped: no traffic; waits out the backoff.
    Open,
    /// Trial: no traffic yet, but probe successes count toward close.
    HalfOpen,
}

impl BreakerState {
    /// Short lowercase label for logs and tables.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Closed => "closed",
            Self::Open => "open",
            Self::HalfOpen => "half-open",
        }
    }
}

/// Perceived-health configuration, hanging off
/// [`crate::SimulationConfig::health`]; without one membership
/// knowledge stays oracular.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthPolicy {
    /// Heartbeat/probe period, seconds. Every candidate worker is
    /// probed once per tick.
    pub probe_interval_s: f64,
    /// Grace before silence can raise suspicion: a worker is never
    /// suspected less than this long after its last ack.
    pub probe_timeout_s: f64,
    /// Phi-accrual suspicion threshold. Suspicion fires when
    /// `(elapsed / mean_gap) · log10(e)` reaches it; 1.0 roughly means
    /// "a healthy worker would be this silent one time in ten".
    pub phi_threshold: f64,
    /// EWMA weight for both the ack-gap mean and the fleet service-time
    /// ratio, in `(0, 1]`.
    pub ewma_alpha: f64,
    /// Outlier ejection: a completion whose profile-normalized service
    /// ratio exceeds this multiple of the fleet EWMA is a strike.
    pub outlier_factor: f64,
    /// Consecutive strikes (outlier completions or batch errors) that
    /// eject a worker.
    pub outlier_strikes: u32,
    /// Consecutive half-open probe successes required to close the
    /// breaker and reinstate the worker.
    pub close_probes: u32,
    /// Seconds an open breaker waits before admitting trial probes.
    pub open_backoff_s: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            probe_interval_s: 0.02,
            probe_timeout_s: 0.01,
            phi_threshold: 1.0,
            ewma_alpha: 0.1,
            outlier_factor: 3.0,
            outlier_strikes: 3,
            close_probes: 2,
            open_backoff_s: 0.1,
        }
    }
}

impl HealthPolicy {
    /// A policy probing at `probe_interval_s` with the default detector
    /// knobs — the one-liner used by benches, the CLI, and chaos.
    pub fn probing(probe_interval_s: f64) -> Self {
        Self {
            probe_interval_s,
            probe_timeout_s: probe_interval_s / 2.0,
            ..Self::default()
        }
    }

    /// Checks the knobs: positive finite probe interval, timeout,
    /// threshold and outlier factor, an EWMA weight in `(0, 1]`,
    /// non-zero strike and close-probe counts, and a non-negative
    /// finite backoff.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |msg: String| Err(SimError::InvalidConfig(msg));
        let pos = |what: &str, v: f64| -> Result<(), SimError> {
            if !v.is_finite() || v <= 0.0 {
                return Err(SimError::InvalidConfig(format!(
                    "health: {what} must be positive and finite, got {v}"
                )));
            }
            Ok(())
        };
        pos("probe_interval_s", self.probe_interval_s)?;
        pos("probe_timeout_s", self.probe_timeout_s)?;
        pos("phi_threshold", self.phi_threshold)?;
        pos("outlier_factor", self.outlier_factor)?;
        if !self.ewma_alpha.is_finite() || self.ewma_alpha <= 0.0 || self.ewma_alpha > 1.0 {
            return bad(format!(
                "health: ewma_alpha must be in (0, 1], got {}",
                self.ewma_alpha
            ));
        }
        if self.outlier_strikes == 0 {
            return bad("health: outlier_strikes must be at least 1".to_string());
        }
        if self.close_probes == 0 {
            return bad("health: close_probes must be at least 1".to_string());
        }
        if !self.open_backoff_s.is_finite() || self.open_backoff_s < 0.0 {
            return bad(format!(
                "health: open_backoff_s must be non-negative and finite, got {}",
                self.open_backoff_s
            ));
        }
        Ok(())
    }

    /// The provable detection bound: a worker that stops answering is
    /// suspected within this many seconds of its failure instant
    /// (while probe ticks keep firing).
    ///
    /// Proof sketch: the last ack is at or before the failure, the mean
    /// gap is clamped to at most one probe interval, so phi reaches the
    /// threshold once silence spans
    /// `max(probe_timeout, threshold · ln 10 · interval)`; the next
    /// probe tick lands within one more interval. The bound adds the
    /// two maxima plus two intervals of tick-alignment slack.
    pub fn detection_bound_s(&self) -> f64 {
        self.probe_timeout_s
            + self.phi_threshold * core::f64::consts::LN_10 * self.probe_interval_s
            + 2.0 * self.probe_interval_s
    }

    /// The provable reinstatement bound: a suspected worker that
    /// answers every probe is reinstated within this many seconds of
    /// its suspicion (while probe ticks keep firing): the breaker
    /// half-opens within `open_backoff + interval`, then
    /// `close_probes` consecutive successes close it, plus two
    /// intervals of tick-alignment slack.
    pub fn reinstate_bound_s(&self) -> f64 {
        self.open_backoff_s + (f64::from(self.close_probes) + 3.0) * self.probe_interval_s
    }
}

/// Detector state of one worker (serializable for checkpoints).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkerHealth {
    /// Time of the last liveness ack (answered probe, completion, or
    /// error reply).
    pub last_ack: Nanos,
    /// EWMA of ack gaps, nanoseconds, clamped into
    /// `[interval/4, interval]`.
    pub mean_gap_ns: f64,
    /// Circuit-breaker state.
    pub breaker: BreakerState,
    /// When the breaker last opened (meaningful while not Closed).
    pub opened_at: Nanos,
    /// Consecutive half-open probe successes so far.
    pub half_open_successes: u32,
    /// Consecutive outlier/error strikes.
    pub strikes: u32,
    /// Whether the worker is ejected from perceived membership.
    pub suspected: bool,
    /// When the current suspicion started (meaningful while suspected).
    pub suspected_since: Nanos,
    /// Whether the current suspicion was genuine (scoring only).
    pub suspect_was_genuine: bool,
}

/// Checkpointable snapshot of a [`HealthMonitor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthState {
    /// Per-worker detector state.
    pub workers: Vec<WorkerHealth>,
    /// Fleet EWMA of profile-normalized service ratios.
    pub fleet_ratio: f64,
    /// Accumulated outcome statistics.
    pub stats: HealthStats,
}

/// Scoring metadata of one suspicion, stamped from ground truth by the
/// engine at the suspicion instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuspectInfo {
    /// True when the worker really was down at the suspicion instant.
    pub genuine: bool,
    /// Detection lag behind the actual failure (0 for false
    /// suspicions).
    pub lag_ns: Nanos,
}

/// What one probe did to the detector (beyond a possible
/// Open → HalfOpen move, reported separately in
/// [`ProbeOutcome::half_opened`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeStep {
    /// Answered; nothing changed.
    Ok,
    /// Unanswered; suspicion below threshold (or breaker already
    /// Open inside its backoff).
    Failed,
    /// Unanswered and phi crossed: the worker is newly suspected
    /// (breaker Closed → Open).
    Suspected(SuspectInfo),
    /// Unanswered while HalfOpen: the breaker re-opened.
    ReOpened,
    /// Answered while HalfOpen, but more successes are needed.
    TrialProgress,
    /// Answered enough half-open probes: breaker Closed, worker
    /// reinstated after being suspected this long.
    Reinstated {
        /// How long the worker spent suspected.
        suspected_ns: Nanos,
    },
}

/// The outcome of one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// The breaker moved Open → HalfOpen on this probe (emit
    /// `BreakerHalfOpen` before the step's own events).
    pub half_opened: bool,
    /// What the probe's answer (or silence) did.
    pub step: ProbeStep,
}

/// The failure detector: per-worker phi-accrual state, circuit
/// breakers, and fleet-normalized outlier ejection. Driven by the
/// engine's probe ticks and completion observations.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    /// Detector run state; its `stats` are finalized into the report,
    /// and the engine adds its own attribution (requeues) there.
    pub(crate) state: HealthState,
}

impl HealthMonitor {
    /// A monitor over `workers` slots, all healthy, with acks anchored
    /// at `start`.
    pub fn new(policy: HealthPolicy, workers: usize, start: Nanos) -> Self {
        let interval = policy.probe_interval_s * NANOS_PER_SEC;
        Self {
            policy,
            state: HealthState {
                workers: vec![
                    WorkerHealth {
                        last_ack: start,
                        mean_gap_ns: interval,
                        breaker: BreakerState::Closed,
                        opened_at: 0,
                        half_open_successes: 0,
                        strikes: 0,
                        suspected: false,
                        suspected_since: 0,
                        suspect_was_genuine: false,
                    };
                    workers
                ],
                fleet_ratio: 1.0,
                stats: HealthStats::default(),
            },
        }
    }

    /// The policy driving this monitor.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Whether worker `w` is currently ejected from perceived
    /// membership.
    pub fn suspected(&self, w: usize) -> bool {
        self.state.workers[w].suspected
    }

    /// Worker `w`'s breaker state.
    pub fn breaker(&self, w: usize) -> BreakerState {
        self.state.workers[w].breaker
    }

    /// Records a liveness ack and folds the gap into the clamped EWMA.
    fn ack(&mut self, w: usize, now: Nanos) {
        let interval = self.policy.probe_interval_s * NANOS_PER_SEC;
        let wh = &mut self.state.workers[w];
        let gap = now.saturating_sub(wh.last_ack) as f64;
        if gap > 0.0 {
            let mean = wh.mean_gap_ns + self.policy.ewma_alpha * (gap - wh.mean_gap_ns);
            wh.mean_gap_ns = mean.clamp(interval / 4.0, interval);
        }
        wh.last_ack = now;
    }

    /// Ejects worker `w`, opening its breaker. `down_since` is ground
    /// truth, used only to score the suspicion.
    fn suspect(&mut self, w: usize, now: Nanos, down_since: Option<Nanos>) -> SuspectInfo {
        let info = SuspectInfo {
            genuine: down_since.is_some(),
            lag_ns: down_since.map_or(0, |d| now.saturating_sub(d)),
        };
        let wh = &mut self.state.workers[w];
        wh.suspected = true;
        wh.suspected_since = now;
        wh.suspect_was_genuine = info.genuine;
        wh.breaker = BreakerState::Open;
        wh.opened_at = now;
        wh.half_open_successes = 0;
        wh.strikes = 0;
        self.state.stats.suspects += 1;
        self.state.stats.breaker_opens += 1;
        if info.genuine {
            self.state.stats.suspects_genuine += 1;
            let lag_s = info.lag_ns as f64 / NANOS_PER_SEC;
            self.state.stats.detection_lag_total_s += lag_s;
            if lag_s > self.state.stats.max_detection_lag_s {
                self.state.stats.max_detection_lag_s = lag_s;
            }
        } else {
            self.state.stats.suspects_false += 1;
        }
        info
    }

    /// Credits the time worker `w` spent suspected, ending `now`.
    fn credit_suspected_time(&mut self, w: usize, now: Nanos) {
        let wh = &self.state.workers[w];
        let spent = now.saturating_sub(wh.suspected_since) as f64 / NANOS_PER_SEC;
        self.state.stats.suspected_time_s += spent;
        if !wh.suspect_was_genuine {
            self.state.stats.false_suspected_time_s += spent;
        }
    }

    /// Feeds one probe of worker `w` at `now`. `responsive` is whether
    /// the probe is answered (the worker is up and not
    /// heartbeat-partitioned); `down_since` is ground truth for
    /// scoring only.
    pub fn probe(
        &mut self,
        w: usize,
        now: Nanos,
        responsive: bool,
        down_since: Option<Nanos>,
    ) -> ProbeOutcome {
        self.state.stats.probes_sent += 1;
        let backoff = (self.policy.open_backoff_s * NANOS_PER_SEC) as Nanos;
        let mut half_opened = false;
        if self.state.workers[w].suspected {
            // Open → HalfOpen once the backoff elapses; the probe's own
            // outcome then applies in the half-open state.
            let wh = &mut self.state.workers[w];
            if wh.breaker == BreakerState::Open && now >= wh.opened_at.saturating_add(backoff) {
                wh.breaker = BreakerState::HalfOpen;
                wh.half_open_successes = 0;
                half_opened = true;
                self.state.stats.breaker_half_opens += 1;
            }
            let step = if responsive {
                self.ack(w, now);
                let wh = &mut self.state.workers[w];
                if wh.breaker == BreakerState::HalfOpen {
                    wh.half_open_successes += 1;
                    if wh.half_open_successes >= self.policy.close_probes {
                        let suspected_ns = now.saturating_sub(wh.suspected_since);
                        wh.breaker = BreakerState::Closed;
                        wh.suspected = false;
                        wh.half_open_successes = 0;
                        self.state.stats.breaker_closes += 1;
                        self.state.stats.reinstates += 1;
                        self.credit_suspected_time(w, now);
                        ProbeStep::Reinstated { suspected_ns }
                    } else {
                        ProbeStep::TrialProgress
                    }
                } else {
                    // Answered inside the backoff: noted, no transition.
                    ProbeStep::Ok
                }
            } else {
                self.state.stats.probes_failed += 1;
                let wh = &mut self.state.workers[w];
                if wh.breaker == BreakerState::HalfOpen {
                    wh.breaker = BreakerState::Open;
                    wh.opened_at = now;
                    wh.half_open_successes = 0;
                    self.state.stats.breaker_opens += 1;
                    ProbeStep::ReOpened
                } else {
                    ProbeStep::Failed
                }
            };
            return ProbeOutcome { half_opened, step };
        }
        if responsive {
            self.ack(w, now);
            return ProbeOutcome {
                half_opened,
                step: ProbeStep::Ok,
            };
        }
        self.state.stats.probes_failed += 1;
        let timeout = (self.policy.probe_timeout_s * NANOS_PER_SEC) as Nanos;
        let wh = &self.state.workers[w];
        let elapsed = now.saturating_sub(wh.last_ack);
        let phi = elapsed as f64 / wh.mean_gap_ns * core::f64::consts::LOG10_E;
        if elapsed >= timeout && phi >= self.policy.phi_threshold {
            let info = self.suspect(w, now, down_since);
            return ProbeOutcome {
                half_opened,
                step: ProbeStep::Suspected(info),
            };
        }
        ProbeOutcome {
            half_opened,
            step: ProbeStep::Failed,
        }
    }

    /// Feeds one observed batch completion: `actual_ns` service time
    /// against the profile's `expected_ns` for that model and batch.
    /// Acts as a liveness ack, then runs outlier ejection; returns the
    /// suspicion it triggered, if any. Completions on a suspected
    /// worker ack but never count toward closing (probe-gated close).
    pub fn observe_completion(
        &mut self,
        w: usize,
        now: Nanos,
        actual_ns: Nanos,
        expected_ns: Nanos,
        down_since: Option<Nanos>,
    ) -> Option<SuspectInfo> {
        self.ack(w, now);
        if self.state.workers[w].suspected || expected_ns == 0 {
            return None;
        }
        let ratio = actual_ns as f64 / expected_ns as f64;
        let outlier = ratio > self.policy.outlier_factor * self.state.fleet_ratio;
        self.state.fleet_ratio += self.policy.ewma_alpha * (ratio - self.state.fleet_ratio);
        if outlier {
            self.state.stats.outlier_strikes += 1;
            self.state.workers[w].strikes += 1;
            if self.state.workers[w].strikes >= self.policy.outlier_strikes {
                return Some(self.suspect(w, now, down_since));
            }
        } else {
            self.state.workers[w].strikes = 0;
        }
        None
    }

    /// Feeds one observed batch error (the worker replied, but with a
    /// failure): a liveness ack and a strike. Returns the suspicion it
    /// triggered, if any.
    pub fn observe_error(
        &mut self,
        w: usize,
        now: Nanos,
        down_since: Option<Nanos>,
    ) -> Option<SuspectInfo> {
        self.ack(w, now);
        self.state.stats.batch_errors += 1;
        if self.state.workers[w].suspected {
            return None;
        }
        self.state.workers[w].strikes += 1;
        if self.state.workers[w].strikes >= self.policy.outlier_strikes {
            return Some(self.suspect(w, now, down_since));
        }
        None
    }

    /// Closes the books at the horizon: open suspicions are credited up
    /// to `horizon` and counted, means are computed.
    pub fn finalize(&mut self, horizon: Nanos) -> HealthStats {
        for w in 0..self.state.workers.len() {
            if self.state.workers[w].suspected {
                self.credit_suspected_time(w, horizon);
                self.state.stats.suspected_at_end += 1;
            }
        }
        let mut stats = self.state.stats;
        if stats.suspects_genuine > 0 {
            stats.mean_detection_lag_s =
                stats.detection_lag_total_s / stats.suspects_genuine as f64;
        }
        stats
    }

    /// Snapshot for checkpointing.
    pub fn snapshot(&self) -> HealthState {
        self.state.clone()
    }

    /// Restores a snapshot taken with the same policy and worker count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on a worker-count mismatch.
    pub fn restore(&mut self, state: &HealthState) -> Result<(), SimError> {
        if state.workers.len() != self.state.workers.len() {
            return Err(SimError::InvalidConfig(format!(
                "health snapshot covers {} workers, engine has {}",
                state.workers.len(),
                self.state.workers.len()
            )));
        }
        self.state = state.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Nanos = 1_000_000;

    fn policy() -> HealthPolicy {
        HealthPolicy::probing(0.02)
    }

    /// Drives probe ticks from `from` while `alive(t)` decides
    /// responsiveness, returning every (time, outcome).
    fn drive(
        mon: &mut HealthMonitor,
        w: usize,
        from: Nanos,
        ticks: u32,
        alive: impl Fn(Nanos) -> bool,
        down_since: impl Fn(Nanos) -> Option<Nanos>,
    ) -> Vec<(Nanos, ProbeOutcome)> {
        let interval = 20 * MS;
        (0..u64::from(ticks))
            .map(|k| {
                let t = from + k * interval;
                (t, mon.probe(w, t, alive(t), down_since(t)))
            })
            .collect()
    }

    #[test]
    fn default_and_probing_policies_are_valid() {
        assert!(HealthPolicy::default().validate().is_ok());
        assert!(HealthPolicy::probing(0.05).validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_knobs() {
        let mut p = policy();
        p.probe_interval_s = 0.0;
        assert!(p.validate().is_err(), "zero interval");
        p = policy();
        p.probe_timeout_s = f64::NAN;
        assert!(p.validate().is_err(), "NaN timeout");
        p = policy();
        p.phi_threshold = -1.0;
        assert!(p.validate().is_err(), "negative threshold");
        p = policy();
        p.ewma_alpha = 1.5;
        assert!(p.validate().is_err(), "alpha past 1");
        p = policy();
        p.outlier_strikes = 0;
        assert!(p.validate().is_err(), "zero strikes");
        p = policy();
        p.close_probes = 0;
        assert!(p.validate().is_err(), "zero close probes");
        p = policy();
        p.open_backoff_s = -0.1;
        assert!(p.validate().is_err(), "negative backoff");
    }

    #[test]
    fn silence_is_suspected_within_the_provable_bound() {
        let p = policy();
        let mut mon = HealthMonitor::new(p, 1, 0);
        // Healthy for 10 ticks, then the worker dies at t = 200 ms.
        let dead_at = 200 * MS;
        let outcomes = drive(
            &mut mon,
            0,
            20 * MS,
            40,
            |t| t < dead_at,
            |t| (t >= dead_at).then_some(dead_at),
        );
        let suspected_at = outcomes
            .iter()
            .find_map(|(t, o)| matches!(o.step, ProbeStep::Suspected(_)).then_some(*t))
            .expect("a dead worker must be suspected");
        let bound_ns = (p.detection_bound_s() * 1e9) as Nanos;
        assert!(
            suspected_at - dead_at <= bound_ns,
            "detected {} ns after death, bound {} ns",
            suspected_at - dead_at,
            bound_ns
        );
        // The stamped lag agrees with the clock.
        let info = outcomes
            .iter()
            .find_map(|(_, o)| match o.step {
                ProbeStep::Suspected(i) => Some(i),
                _ => None,
            })
            .unwrap();
        assert!(info.genuine);
        assert_eq!(info.lag_ns, suspected_at - dead_at);
        assert!(mon.suspected(0));
        assert_eq!(mon.breaker(0), BreakerState::Open);
        assert_eq!(mon.state.stats.suspects_genuine, 1);
    }

    #[test]
    fn false_suspicion_reinstates_within_the_provable_bound() {
        // A heartbeat partition: probes drop while the worker is
        // actually fine. Suspicion must be stamped false, and once
        // probes flow again the breaker walks Open → HalfOpen →
        // Closed within the reinstatement bound.
        let p = policy();
        let mut mon = HealthMonitor::new(p, 1, 0);
        let heal_at = 300 * MS;
        let outcomes = drive(
            &mut mon,
            0,
            20 * MS,
            60,
            |t| t >= heal_at,
            |_| None, // ground truth: never down
        );
        let suspected = outcomes
            .iter()
            .find_map(|(t, o)| match o.step {
                ProbeStep::Suspected(i) => Some((*t, i)),
                _ => None,
            })
            .expect("partition must be suspected");
        assert!(!suspected.1.genuine);
        assert_eq!(suspected.1.lag_ns, 0);
        let reinstated_at = outcomes
            .iter()
            .find_map(|(t, o)| matches!(o.step, ProbeStep::Reinstated { .. }).then_some(*t))
            .expect("a healthy worker must be reinstated");
        // Reinstatement happens within the bound of the first
        // answered probe after healing.
        let first_ok = heal_at.max(suspected.0);
        let bound_ns = (p.reinstate_bound_s() * 1e9) as Nanos;
        assert!(
            reinstated_at - first_ok <= bound_ns,
            "reinstated {} ns after healing, bound {} ns",
            reinstated_at - first_ok,
            bound_ns
        );
        assert!(!mon.suspected(0));
        assert_eq!(mon.breaker(0), BreakerState::Closed);
        // The breaker walked through HalfOpen on the way back.
        assert!(outcomes.iter().any(|(_, o)| o.half_opened));
        assert_eq!(mon.state.stats.suspects_false, 1);
        assert_eq!(mon.state.stats.reinstates, 1);
        assert!(mon.state.stats.false_suspected_time_s > 0.0);
    }

    #[test]
    fn failed_trial_probe_reopens_the_breaker() {
        let p = policy();
        let mut mon = HealthMonitor::new(p, 1, 0);
        // Die, get suspected, stay dead through the first trial.
        let outcomes = drive(&mut mon, 0, 20 * MS, 40, |_| false, |_| Some(0));
        assert!(outcomes
            .iter()
            .any(|(_, o)| matches!(o.step, ProbeStep::Suspected(_))));
        let reopened = outcomes
            .iter()
            .filter(|(_, o)| matches!(o.step, ProbeStep::ReOpened))
            .count();
        assert!(reopened >= 1, "dead trials must re-open the breaker");
        // Every half-open was answered by a re-open; nothing closed.
        assert_eq!(mon.state.stats.breaker_half_opens as usize, reopened);
        assert_eq!(mon.state.stats.breaker_closes, 0);
        assert!(mon.suspected(0));
        // Pairing: opens = initial suspicion + one per re-open.
        assert_eq!(mon.state.stats.breaker_opens as usize, 1 + reopened);
    }

    #[test]
    fn outlier_completions_eject_after_strikes() {
        let p = policy();
        let mut mon = HealthMonitor::new(p, 2, 0);
        // Worker 1 keeps the fleet EWMA honest at ratio 1.0.
        for k in 0..20u64 {
            assert!(mon
                .observe_completion(1, k * MS, 10 * MS, 10 * MS, None)
                .is_none());
        }
        // Worker 0 serves 10× slower than profile: three consecutive
        // outliers eject it — stamped false (it is not down).
        assert!(mon
            .observe_completion(0, 30 * MS, 100 * MS, 10 * MS, None)
            .is_none());
        assert!(mon
            .observe_completion(0, 40 * MS, 100 * MS, 10 * MS, None)
            .is_none());
        let info = mon
            .observe_completion(0, 50 * MS, 100 * MS, 10 * MS, None)
            .expect("third strike ejects");
        assert!(!info.genuine);
        assert!(mon.suspected(0));
        assert!(!mon.suspected(1));
        assert_eq!(mon.state.stats.outlier_strikes, 3);
        // A normal completion resets the streak.
        let mut fresh = HealthMonitor::new(p, 1, 0);
        assert!(fresh
            .observe_completion(0, MS, 100 * MS, 10 * MS, None)
            .is_none());
        assert!(fresh
            .observe_completion(0, 2 * MS, 10 * MS, 10 * MS, None)
            .is_none());
        assert!(fresh
            .observe_completion(0, 3 * MS, 100 * MS, 10 * MS, None)
            .is_none());
        assert!(
            fresh
                .observe_completion(0, 4 * MS, 100 * MS, 10 * MS, None)
                .is_none(),
            "streak was reset, two strikes are not enough"
        );
    }

    #[test]
    fn batch_errors_strike_toward_ejection() {
        let mut mon = HealthMonitor::new(policy(), 1, 0);
        assert!(mon.observe_error(0, 10 * MS, None).is_none());
        assert!(mon.observe_error(0, 20 * MS, None).is_none());
        assert!(mon.observe_error(0, 30 * MS, None).is_some());
        assert_eq!(mon.state.stats.batch_errors, 3);
        assert!(mon.suspected(0));
    }

    #[test]
    fn completions_never_close_a_breaker() {
        let mut mon = HealthMonitor::new(policy(), 1, 0);
        drive(&mut mon, 0, 20 * MS, 20, |_| false, |_| Some(0));
        assert!(mon.suspected(0));
        // An in-flight batch finishing on the suspected worker acks but
        // must not reinstate: close is probe-gated.
        for k in 0..50u64 {
            assert!(mon
                .observe_completion(0, 500 * MS + k * MS, 10 * MS, 10 * MS, None)
                .is_none());
        }
        assert!(mon.suspected(0));
        assert_eq!(mon.state.stats.reinstates, 0);
    }

    #[test]
    fn finalize_credits_open_suspicions_and_means() {
        let mut mon = HealthMonitor::new(policy(), 1, 0);
        drive(&mut mon, 0, 20 * MS, 20, |_| false, |_| Some(0));
        assert!(mon.suspected(0));
        let stats = mon.finalize(1_000 * MS);
        assert_eq!(stats.suspected_at_end, 1);
        assert!(stats.suspected_time_s > 0.0);
        assert!(stats.mean_detection_lag_s > 0.0);
        assert!(stats.max_detection_lag_s >= stats.mean_detection_lag_s);
    }

    #[test]
    fn snapshots_round_trip_through_serde() {
        let mut mon = HealthMonitor::new(policy(), 3, 0);
        drive(&mut mon, 1, 20 * MS, 15, |_| false, |_| Some(0));
        let snap = mon.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: HealthState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let mut fresh = HealthMonitor::new(policy(), 3, 0);
        fresh.restore(&back).unwrap();
        assert_eq!(fresh.snapshot(), snap);
        assert!(fresh.suspected(1));
        // Mismatched shape is refused.
        let mut wrong = HealthMonitor::new(policy(), 2, 0);
        assert!(wrong.restore(&back).is_err());
    }
}
