//! Request-level resilience: dispatch timeouts, retry with backoff,
//! hedged dispatch, and admission control.
//!
//! The MS&S policies assume every dispatched query completes on its
//! worker; fault injection (DESIGN.md §6) models crashes, but a
//! straggling or overloaded worker otherwise burns the query's whole
//! deadline with no recourse. This module adds the reactive substrate
//! under the policy layer:
//!
//! - **Timeouts** ([`TimeoutPolicy`]): each dispatch is granted a
//!   fraction of the batch's remaining SLO slack; a batch that would
//!   run past it is cancelled and its worker freed.
//! - **Retry** ([`RetryPolicy`]): timed-out queries are re-dispatched
//!   after exponential backoff with *deterministic jitter* (a hash of
//!   seed, query id, and attempt — no RNG state, so runs stay
//!   reproducible), capped attempts, and a [`RetryBudget`] token bucket
//!   that prevents retry storms under overload.
//! - **Hedging** ([`HedgePolicy`]): once a batch has been in service
//!   longer than an observed latency quantile, a duplicate is issued to
//!   an idle worker; the first completion wins and the loser is
//!   cancelled, with first-wins accounting so every query counts once.
//! - **Admission control** ([`AdmissionPolicy`]): per-queue hard caps
//!   plus a CoDel-style sojourn threshold ([`CoDelAdmission`]) that
//!   sheds on *enqueue* — before any work is wasted — when the queue
//!   head has been waiting above target for a full interval.
//!
//! A mechanism is off when its policy is `None`; with
//! [`ResiliencePolicy::default`] every one is, the engine takes exactly
//! its pre-resilience paths and seeded reports are bit-identical to runs
//! without the layer (pinned by `tests/subsystem_fingerprints.rs`).

use serde::{Deserialize, Serialize};

use crate::query::{nanos_from_secs, Nanos};
use crate::SimError;

/// Per-dispatch timeout derived from the batch's remaining SLO budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeoutPolicy {
    /// Fraction of the earliest queued deadline's remaining slack
    /// granted to one dispatch attempt (the rest is kept for retries).
    pub slack_fraction: f64,
    /// Floor on the granted timeout, seconds — queries whose slack is
    /// already blown still get one bounded service attempt.
    pub min_timeout_s: f64,
}

impl Default for TimeoutPolicy {
    fn default() -> Self {
        Self {
            slack_fraction: 0.5,
            min_timeout_s: 0.01,
        }
    }
}

/// Exponential backoff with deterministic jitter for timed-out queries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Re-dispatches allowed per query after its first attempt
    /// (0 = timed-out queries are shed immediately).
    pub max_retries: u32,
    /// Backoff before the first retry, seconds; doubles per attempt.
    pub backoff_base_s: f64,
    /// Upper bound on the backoff delay, seconds.
    pub backoff_cap_s: f64,
    /// Fraction of each delay that is jittered (0 = fixed delays,
    /// 1 = fully randomized within `[0, delay)`).
    pub jitter_frac: f64,
    /// Seed of the deterministic jitter hash; same seed, same delays.
    pub jitter_seed: u64,
    /// Retry tokens replenished per second of simulated time.
    pub budget_rate_per_s: f64,
    /// Token-bucket capacity (burst of retries allowed at once).
    pub budget_burst: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 0,
            backoff_base_s: 0.005,
            backoff_cap_s: 0.05,
            jitter_frac: 0.3,
            jitter_seed: 0x5EED_F00D,
            budget_rate_per_s: 20.0,
            budget_burst: 10.0,
        }
    }
}

/// Hedged dispatch after an observed service-latency quantile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HedgePolicy {
    /// Service-time percentile (0–100, exclusive) after which an
    /// in-flight batch is hedged to a second worker.
    pub quantile: f64,
    /// Completed dispatches observed before hedging arms (the quantile
    /// estimate is noise until then).
    pub min_samples: u64,
    /// Floor on the hedge delay, seconds (guards against a degenerate
    /// quantile estimate hedging everything instantly).
    pub min_delay_s: f64,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        Self {
            quantile: 95.0,
            min_samples: 32,
            min_delay_s: 0.002,
        }
    }
}

/// Bounded per-queue admission with a CoDel-style sojourn threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionPolicy {
    /// Hard cap on queue depth; an arrival finding the queue at the cap
    /// is shed on enqueue.
    pub queue_cap: usize,
    /// Target sojourn of the queue head, seconds; sustained excess
    /// signals standing overload (CoDel's `TARGET`).
    pub target_sojourn_s: f64,
    /// How long the head must stay above target before arrivals are
    /// shed (CoDel's `INTERVAL`).
    pub interval_s: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            queue_cap: 64,
            target_sojourn_s: 0.02,
            interval_s: 0.1,
        }
    }
}

/// The full request-level resilience configuration, hanging off
/// [`crate::SimulationConfig`]. A mechanism is off when its policy is
/// `None`; the default turns every one off and reproduces
/// pre-resilience behavior bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResiliencePolicy {
    /// Dispatch timeouts from remaining SLO budget.
    pub timeout: Option<TimeoutPolicy>,
    /// Retry with backoff for timed-out queries (needs `timeout`).
    pub retry: RetryPolicy,
    /// Hedged dispatch past a latency quantile.
    pub hedge: Option<HedgePolicy>,
    /// Bounded queues + CoDel shed-on-enqueue.
    pub admission: Option<AdmissionPolicy>,
}

impl ResiliencePolicy {
    /// A policy with every mechanism switched on at its default knobs —
    /// the one-liner used by benches and the chaos harness.
    pub fn all_on() -> Self {
        Self {
            timeout: Some(TimeoutPolicy::default()),
            retry: RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
            hedge: Some(HedgePolicy::default()),
            admission: Some(AdmissionPolicy::default()),
        }
    }

    /// Checks every present mechanism's knobs: rejects NaN and
    /// non-finite values, zero or negative durations, fractions outside
    /// their range, and degenerate caps.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |msg: String| Err(SimError::InvalidConfig(msg));
        let pos = |what: &str, v: f64| -> Result<(), SimError> {
            if !v.is_finite() || v <= 0.0 {
                return Err(SimError::InvalidConfig(format!(
                    "resilience: {what} must be positive and finite, got {v}"
                )));
            }
            Ok(())
        };
        if let Some(timeout) = &self.timeout {
            pos("timeout slack fraction", timeout.slack_fraction)?;
            if timeout.slack_fraction > 1.0 {
                return bad(format!(
                    "resilience: timeout slack fraction must be <= 1, got {}",
                    timeout.slack_fraction
                ));
            }
            pos("minimum timeout", timeout.min_timeout_s)?;
            if self.retry.max_retries > 0 {
                pos("retry backoff base", self.retry.backoff_base_s)?;
                pos("retry backoff cap", self.retry.backoff_cap_s)?;
                if self.retry.backoff_cap_s < self.retry.backoff_base_s {
                    return bad(format!(
                        "resilience: backoff cap {} below base {}",
                        self.retry.backoff_cap_s, self.retry.backoff_base_s
                    ));
                }
                if !self.retry.jitter_frac.is_finite()
                    || !(0.0..=1.0).contains(&self.retry.jitter_frac)
                {
                    return bad(format!(
                        "resilience: jitter fraction must be in [0, 1], got {}",
                        self.retry.jitter_frac
                    ));
                }
                if !self.retry.budget_rate_per_s.is_finite() || self.retry.budget_rate_per_s < 0.0 {
                    return bad(format!(
                        "resilience: retry budget rate must be non-negative and finite, got {}",
                        self.retry.budget_rate_per_s
                    ));
                }
                pos("retry budget burst", self.retry.budget_burst)?;
                // A burst below one token can never grant a retry
                // ([`RetryBudget::try_take`] needs a whole token), so
                // retries would be configured on yet silently never
                // fire — a zero-capacity budget is a config bug.
                if self.retry.budget_burst < 1.0 {
                    return bad(format!(
                        "resilience: retry budget burst {} can never hold a whole \
                         token; use at least 1 (or set max_retries to 0)",
                        self.retry.budget_burst
                    ));
                }
            }
        }
        if let Some(hedge) = &self.hedge {
            if !hedge.quantile.is_finite() || hedge.quantile <= 0.0 || hedge.quantile >= 100.0 {
                return bad(format!(
                    "resilience: hedge quantile must be in (0, 100), got {}",
                    hedge.quantile
                ));
            }
            // Quantiles are percent (90.0 = p90). A value below 1 is
            // almost certainly a fraction (0.9) slipping through, which
            // would hedge virtually every dispatch; reject it loudly
            // instead of silently doubling the load.
            if hedge.quantile < 1.0 {
                return bad(format!(
                    "resilience: hedge quantile is a percent (e.g. 90.0), got {} — \
                     fractions in (0, 1) are rejected to catch unit confusion",
                    hedge.quantile
                ));
            }
            if hedge.min_samples == 0 {
                return bad("resilience: hedge min_samples must be at least 1".to_string());
            }
            pos("hedge minimum delay", hedge.min_delay_s)?;
        }
        if let Some(admission) = &self.admission {
            if admission.queue_cap == 0 {
                return bad("resilience: admission queue cap must be at least 1".to_string());
            }
            pos("admission target sojourn", admission.target_sojourn_s)?;
            pos("admission interval", admission.interval_s)?;
        }
        Ok(())
    }
}

/// SplitMix64 — the jitter hash. Pure function of its input, so retry
/// delays are reproducible without threading RNG state through the
/// engine.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The backoff delay before retry number `attempt` (1-based) of
/// `query`: exponential in the attempt, capped, with the policy's
/// jitter fraction filled by a deterministic hash — same `(seed, query,
/// attempt)` always gives the same delay, different queries decorrelate
/// so a timed-out batch does not retry in lockstep.
pub fn backoff_delay_s(policy: &RetryPolicy, attempt: u32, query: u64) -> f64 {
    let exp = attempt.saturating_sub(1).min(30);
    let base = (policy.backoff_base_s * f64::from(1u32 << exp)).min(policy.backoff_cap_s);
    let h = splitmix64(
        policy
            .jitter_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(query)
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(u64::from(attempt)),
    );
    // 53 high bits -> uniform in [0, 1).
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    base * (1.0 - policy.jitter_frac) + base * policy.jitter_frac * u
}

/// A token bucket limiting retry volume: `burst` tokens capacity,
/// refilled at `rate` per second of *simulated* time. Deterministic —
/// its state is a pure function of the take-attempt times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryBudget {
    tokens: f64,
    burst: f64,
    rate_per_s: f64,
    last_s: f64,
}

impl RetryBudget {
    /// A full bucket.
    pub fn new(rate_per_s: f64, burst: f64) -> Self {
        Self {
            tokens: burst,
            burst,
            rate_per_s,
            last_s: 0.0,
        }
    }

    /// Takes one token at simulated time `now_s`, refilling first;
    /// `false` means the retry is denied. Calls must use monotone
    /// non-decreasing times (event order guarantees this).
    pub fn try_take(&mut self, now_s: f64) -> bool {
        let elapsed = (now_s - self.last_s).max(0.0);
        self.tokens = (self.tokens + elapsed * self.rate_per_s).min(self.burst);
        self.last_s = self.last_s.max(now_s);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (diagnostics/tests).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Why admission control refused a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// The queue is at its hard cap.
    QueueFull,
    /// The queue head's sojourn stayed above target for a full
    /// interval — standing overload.
    Sojourn,
}

/// Per-queue CoDel-style admission state. One instance per worker queue
/// (plus one for the central queue); the engine consults it on every
/// enqueue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CoDelAdmission {
    /// When the queue head's sojourn first exceeded target, if it has
    /// stayed above since.
    first_above: Option<Nanos>,
}

impl CoDelAdmission {
    /// Decides whether an arrival at `now` may join a queue of `depth`
    /// whose head was enqueued at `front_enqueued_at` (`None` = empty
    /// queue, which resets the sojourn clock). Returns `None` to admit.
    pub fn offer(
        &mut self,
        policy: &AdmissionPolicy,
        now: Nanos,
        depth: usize,
        front_enqueued_at: Option<Nanos>,
    ) -> Option<AdmissionVerdict> {
        let Some(front_at) = front_enqueued_at else {
            // Empty queue: no standing backlog, clock resets.
            self.first_above = None;
            return None;
        };
        if depth >= policy.queue_cap {
            return Some(AdmissionVerdict::QueueFull);
        }
        let target = nanos_from_secs(policy.target_sojourn_s);
        let sojourn = now.saturating_sub(front_at);
        if sojourn > target {
            match self.first_above {
                None => {
                    self.first_above = Some(now);
                    None
                }
                Some(since) if now.saturating_sub(since) >= nanos_from_secs(policy.interval_s) => {
                    Some(AdmissionVerdict::Sojourn)
                }
                Some(_) => None,
            }
        } else {
            self.first_above = None;
            None
        }
    }

    /// The sojourn of the queue head at `now` (0 for an empty queue) —
    /// recorded in [`ramsis_telemetry::Event::Admission`].
    pub fn sojourn_ns(now: Nanos, front_enqueued_at: Option<Nanos>) -> Nanos {
        front_enqueued_at.map_or(0, |at| now.saturating_sub(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_all_on_policies_are_valid() {
        assert!(ResiliencePolicy::default().validate().is_ok());
        assert!(ResiliencePolicy::all_on().validate().is_ok());
    }

    #[test]
    fn validate_rejects_nan_and_degenerate_knobs() {
        let mut p = ResiliencePolicy::all_on();
        p.timeout.as_mut().unwrap().slack_fraction = f64::NAN;
        assert!(p.validate().is_err());

        let mut p = ResiliencePolicy::all_on();
        p.timeout.as_mut().unwrap().min_timeout_s = 0.0;
        assert!(p.validate().is_err());

        let mut p = ResiliencePolicy::all_on();
        p.retry.backoff_cap_s = p.retry.backoff_base_s / 2.0;
        assert!(p.validate().is_err());

        let mut p = ResiliencePolicy::all_on();
        p.retry.jitter_frac = 1.5;
        assert!(p.validate().is_err());

        let mut p = ResiliencePolicy::all_on();
        p.retry.budget_rate_per_s = f64::INFINITY;
        assert!(p.validate().is_err());

        let mut p = ResiliencePolicy::all_on();
        p.hedge.as_mut().unwrap().quantile = 100.0;
        assert!(p.validate().is_err());

        let mut p = ResiliencePolicy::all_on();
        p.admission.as_mut().unwrap().queue_cap = 0;
        assert!(p.validate().is_err());

        let mut p = ResiliencePolicy::all_on();
        p.admission.as_mut().unwrap().target_sojourn_s = -0.5;
        assert!(p.validate().is_err());

        // Retry knobs are only read after a timeout, so without one they
        // are not validated.
        let mut p = ResiliencePolicy::all_on();
        p.timeout = None;
        p.retry.jitter_frac = 1.5;
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_catches_fraction_quantile_and_starved_retry_budget() {
        // 0.95 "meaning" p95 is unit confusion — quantiles are percent.
        // It used to slip through the (0, 100) range check and hedge
        // nearly every dispatch.
        let mut p = ResiliencePolicy::all_on();
        p.hedge.as_mut().unwrap().quantile = 0.95;
        let err = p.validate().unwrap_err();
        assert!(err.to_string().contains("percent"), "{err}");

        // A retry budget whose burst can never hold one whole token is
        // retries-in-name-only: enabled, yet structurally unable to
        // ever grant one.
        let mut p = ResiliencePolicy::all_on();
        p.retry.max_retries = 3;
        p.retry.budget_burst = 0.5;
        let err = p.validate().unwrap_err();
        assert!(err.to_string().contains("token"), "{err}");

        // With retries off the same burst is dormant and acceptable.
        let mut p = ResiliencePolicy::all_on();
        p.retry.max_retries = 0;
        p.retry.budget_burst = 0.5;
        assert!(p.validate().is_ok());

        // Boundary values stay legal: exactly one token, exactly p1.
        let mut p = ResiliencePolicy::all_on();
        p.retry.max_retries = 1;
        p.retry.budget_burst = 1.0;
        p.hedge.as_mut().unwrap().quantile = 1.0;
        assert!(p.validate().is_ok());
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_retries: 5,
            ..RetryPolicy::default()
        };
        for attempt in 1..=5 {
            for q in 0..50u64 {
                let d1 = backoff_delay_s(&policy, attempt, q);
                let d2 = backoff_delay_s(&policy, attempt, q);
                assert_eq!(d1, d2, "same inputs, same delay");
                let cap = policy
                    .backoff_cap_s
                    .min(policy.backoff_base_s * f64::from(1u32 << (attempt - 1)));
                assert!(d1 >= cap * (1.0 - policy.jitter_frac) - 1e-12);
                assert!(d1 <= cap + 1e-12);
            }
        }
        // Different queries decorrelate.
        let a = backoff_delay_s(&policy, 1, 1);
        let b = backoff_delay_s(&policy, 1, 2);
        assert_ne!(a, b);
        // Exponential growth until the cap.
        let unjittered = RetryPolicy {
            jitter_frac: 0.0,
            ..policy
        };
        let d1 = backoff_delay_s(&unjittered, 1, 0);
        let d2 = backoff_delay_s(&unjittered, 2, 0);
        assert!((d2 - 2.0 * d1).abs() < 1e-12);
        let d9 = backoff_delay_s(&unjittered, 9, 0);
        assert_eq!(d9, unjittered.backoff_cap_s);
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let policy = RetryPolicy::default();
        let d = backoff_delay_s(&policy, u32::MAX, 7);
        assert!(d.is_finite() && d <= policy.backoff_cap_s + 1e-12);
    }

    #[test]
    fn retry_budget_caps_bursts_and_refills() {
        let mut b = RetryBudget::new(10.0, 3.0);
        // The initial burst is exactly the bucket capacity.
        assert!(b.try_take(0.0));
        assert!(b.try_take(0.0));
        assert!(b.try_take(0.0));
        assert!(!b.try_take(0.0), "burst exhausted");
        // 0.1 s at 10 tokens/s refills one token.
        assert!(b.try_take(0.1));
        assert!(!b.try_take(0.1));
        // Refill never exceeds the burst cap.
        assert!(b.try_take(100.0));
        assert!(b.tokens() <= 3.0);
    }

    #[test]
    fn retry_budget_is_deterministic() {
        let times = [0.0, 0.01, 0.02, 0.5, 0.5, 0.9, 2.0];
        let run = || {
            let mut b = RetryBudget::new(5.0, 2.0);
            times.map(|t| b.try_take(t))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn codel_admits_below_target_and_caps_depth() {
        let policy = AdmissionPolicy {
            queue_cap: 4,
            target_sojourn_s: 0.02,
            interval_s: 0.1,
        };
        let mut c = CoDelAdmission::default();
        // Empty queue always admits.
        assert_eq!(c.offer(&policy, 0, 0, None), None);
        // Below-target sojourn admits.
        assert_eq!(c.offer(&policy, 10_000_000, 2, Some(0)), None);
        // At the cap: rejected regardless of sojourn.
        assert_eq!(
            c.offer(&policy, 10_000_000, 4, Some(0)),
            Some(AdmissionVerdict::QueueFull)
        );
    }

    #[test]
    fn codel_sheds_after_sustained_sojourn_and_resets_on_empty() {
        let policy = AdmissionPolicy {
            queue_cap: 100,
            target_sojourn_s: 0.02,
            interval_s: 0.1,
        };
        let mut c = CoDelAdmission::default();
        // Head above target: first sighting starts the interval clock.
        assert_eq!(c.offer(&policy, 30_000_000, 1, Some(0)), None);
        // Still above, but interval not elapsed: admitted.
        assert_eq!(c.offer(&policy, 60_000_000, 2, Some(0)), None);
        // A full interval above target: shed.
        assert_eq!(
            c.offer(&policy, 130_000_000, 3, Some(0)),
            Some(AdmissionVerdict::Sojourn)
        );
        // The queue drains: the empty offer resets the clock, and the
        // next above-target sighting starts a fresh interval.
        assert_eq!(c.offer(&policy, 200_000_000, 0, None), None);
        assert_eq!(c.offer(&policy, 230_000_000, 1, Some(200_000_000)), None);
        // Below-target head also resets.
        assert_eq!(c.offer(&policy, 232_000_000, 2, Some(231_000_000)), None);
        assert_eq!(c.offer(&policy, 340_000_000, 2, Some(231_000_000)), None);
    }

    #[test]
    fn serde_round_trip() {
        let p = ResiliencePolicy::all_on();
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(serde_json::from_str::<ResiliencePolicy>(&json).unwrap(), p);
    }
}
