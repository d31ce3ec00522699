//! Elastic capacity: a fault-aware autoscaler with a worker lifecycle
//! and an overload brownout ladder.
//!
//! The paper evaluates fixed worker pools; this module makes membership
//! dynamic while keeping the simulator's core contract — bit-identical
//! seeded runs — intact:
//!
//! - A [`HysteresisController`] (the default [`Autoscaler`]) watches the
//!   load estimate the engine already maintains and computes a desired
//!   pool size from a per-worker capacity target, *anticipating* the
//!   warm-up lag by extrapolating the load trend over the configured
//!   warm-up latency. Direction changes are debounced by consecutive-
//!   tick confirmation and a cooldown, so estimation noise cannot flap
//!   the pool.
//! - Workers move through a lifecycle state machine
//!   (`Down → Warming → Live → Draining → Down`, [`WorkerState`]).
//!   Scale-up pays a configurable warm-up latency before the worker
//!   serves; scale-in *drains*: the worker's queued work is handed off
//!   to survivors immediately and its in-flight batch runs to
//!   completion — no query is ever abandoned by a scaling action.
//! - A [`BrownoutLadder`] sits above the shed path: under sustained
//!   overload (load persistently above the live pool's capacity) the
//!   engine remaps `Serve` selections rung by rung toward the fastest
//!   model — the paper's own action space used as graceful degradation —
//!   and only the existing shed mechanisms fire once the cheapest rung
//!   still cannot keep up. Enter and exit use a Schmitt trigger with
//!   separate thresholds plus consecutive-tick confirmation, so the
//!   ladder is deterministic and cannot oscillate within a tick.
//!
//! Everything here is pure arithmetic over the engine's deterministic
//! signals (simulated time, the seeded load estimate, integer pool
//! counts) — no RNG, no wall clock — so seeded runs stay byte-identical,
//! and with no [`AutoscalePolicy`] configured the engine schedules no
//! controller events at all and takes exactly its pre-autoscale paths.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::SimError;

/// Lifecycle state of one worker slot under autoscaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerState {
    /// Not part of the pool (never started, scaled in, or crashed).
    Down,
    /// Scale-up issued; serving begins after the warm-up latency.
    Warming,
    /// Serving: routable and dispatchable.
    Live,
    /// Scale-in issued: queued work handed off, the in-flight batch
    /// finishes, then the worker goes [`WorkerState::Down`].
    Draining,
}

impl WorkerState {
    /// Short lowercase label for logs and tables.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Down => "down",
            Self::Warming => "warming",
            Self::Live => "live",
            Self::Draining => "draining",
        }
    }
}

/// Overload brownout-ladder configuration (a sub-policy of
/// [`AutoscalePolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BrownoutPolicy {
    /// Load-to-capacity ratio at or above which a sustained overload
    /// escalates the ladder one rung.
    pub enter_ratio: f64,
    /// Load-to-capacity ratio at or below which a sustained recovery
    /// de-escalates one rung. Must be `< enter_ratio` (Schmitt trigger).
    pub exit_ratio: f64,
    /// Consecutive controller ticks the ratio must hold beyond a
    /// threshold before the ladder moves (debounce).
    pub confirm: u32,
    /// Upper bound on the rung; `0` means "as many rungs as the profile
    /// has slower-than-fastest models" (the engine clamps).
    pub max_rung: u32,
}

impl Default for BrownoutPolicy {
    fn default() -> Self {
        Self {
            enter_ratio: 1.25,
            exit_ratio: 0.85,
            confirm: 4,
            max_rung: 0,
        }
    }
}

/// Autoscaler configuration, hanging off
/// [`crate::SimulationConfig::autoscale`]; without one the pool is
/// fixed and membership is left entirely to fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalePolicy {
    /// Floor on the pool: scale-in never drains below this many Live
    /// workers (crashes can still go lower; the controller then scales
    /// back up — that is the fault-aware part).
    pub min_workers: usize,
    /// Ceiling on the pool: the worker vectors are sized to this.
    pub max_workers: usize,
    /// Capacity target: the sustained QPS one Live worker is expected
    /// to absorb. Desired pool size is `ceil(anticipated / target)`.
    pub target_qps_per_worker: f64,
    /// Warm-up latency: seconds between a scale-up decision and the
    /// worker going Live. Zero means instant capacity.
    pub warmup_s: f64,
    /// Controller tick period, seconds.
    pub eval_interval_s: f64,
    /// Consecutive ticks the desired size must exceed the current one
    /// before a scale-up commits.
    pub up_confirm: u32,
    /// Consecutive ticks the desired size must fall below the current
    /// one before a scale-in commits (keep larger than `up_confirm`:
    /// adding capacity late costs SLOs, removing it late costs money).
    pub down_confirm: u32,
    /// Minimum seconds between two committed scaling actions.
    pub cooldown_s: f64,
    /// Most workers one committed action may add or drain.
    pub max_step: usize,
    /// The overload brownout ladder; `None` never degrades model
    /// selection.
    pub brownout: Option<BrownoutPolicy>,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        Self {
            min_workers: 1,
            max_workers: 8,
            target_qps_per_worker: 100.0,
            warmup_s: 1.0,
            eval_interval_s: 0.25,
            up_confirm: 2,
            down_confirm: 8,
            cooldown_s: 1.0,
            max_step: 4,
            brownout: Some(BrownoutPolicy::default()),
        }
    }
}

impl AutoscalePolicy {
    /// A policy with the default knobs over the given pool bounds — the
    /// one-liner used by benches, the CLI, and chaos.
    pub fn elastic(min_workers: usize, max_workers: usize, target_qps_per_worker: f64) -> Self {
        Self {
            min_workers,
            max_workers,
            target_qps_per_worker,
            ..Self::default()
        }
    }

    /// Checks the knobs: pool bounds (`1 ≤ min ≤ max`), a positive
    /// capacity target and tick period, a non-negative finite warm-up
    /// and cooldown, non-zero confirmation counts and step, and a
    /// well-ordered brownout Schmitt trigger.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |msg: String| Err(SimError::InvalidConfig(msg));
        if self.min_workers < 1 {
            return bad("autoscale: min_workers must be at least 1".to_string());
        }
        if self.min_workers > self.max_workers {
            return bad(format!(
                "autoscale: min_workers {} exceeds max_workers {}",
                self.min_workers, self.max_workers
            ));
        }
        let pos = |what: &str, v: f64| -> Result<(), SimError> {
            if !v.is_finite() || v <= 0.0 {
                return Err(SimError::InvalidConfig(format!(
                    "autoscale: {what} must be positive and finite, got {v}"
                )));
            }
            Ok(())
        };
        pos("target_qps_per_worker", self.target_qps_per_worker)?;
        pos("eval_interval_s", self.eval_interval_s)?;
        if !self.warmup_s.is_finite() || self.warmup_s < 0.0 {
            return bad(format!(
                "autoscale: warmup_s must be non-negative and finite, got {}",
                self.warmup_s
            ));
        }
        if !self.cooldown_s.is_finite() || self.cooldown_s < 0.0 {
            return bad(format!(
                "autoscale: cooldown_s must be non-negative and finite, got {}",
                self.cooldown_s
            ));
        }
        if self.up_confirm == 0 || self.down_confirm == 0 {
            return bad("autoscale: confirmation counts must be at least 1".to_string());
        }
        if self.max_step == 0 {
            return bad("autoscale: max_step must be at least 1".to_string());
        }
        if let Some(brownout) = &self.brownout {
            pos("brownout enter_ratio", brownout.enter_ratio)?;
            pos("brownout exit_ratio", brownout.exit_ratio)?;
            if brownout.exit_ratio >= brownout.enter_ratio {
                return bad(format!(
                    "autoscale: brownout needs exit_ratio < enter_ratio, got {} >= {}",
                    brownout.exit_ratio, brownout.enter_ratio
                ));
            }
            if brownout.confirm == 0 {
                return bad("autoscale: brownout confirm must be at least 1".to_string());
            }
        }
        Ok(())
    }
}

/// The deterministic signals one controller tick sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleSignal {
    /// Simulated time of the tick, seconds.
    pub now_s: f64,
    /// The load estimate (QPS) the engine's estimator reports.
    pub load_qps: f64,
    /// Load trend (QPS per second), `0.0` when the estimator has none —
    /// used to anticipate the warm-up lag.
    pub trend_qps_per_s: f64,
    /// Workers currently Live.
    pub live: usize,
    /// Workers currently Warming (capacity already on the way).
    pub warming: usize,
    /// Workers currently Draining.
    pub draining: usize,
    /// Total queries queued across all visible queues.
    pub queued: usize,
}

/// A pool-sizing controller: maps a tick's [`ScaleSignal`] to a desired
/// worker count. Implementations must be deterministic — a pure
/// function of the signal sequence — or seeded runs lose reproducibility.
pub trait Autoscaler {
    /// The desired pool size after this tick, always within the
    /// policy's `[min_workers, max_workers]`.
    fn desired_workers(&mut self, sig: &ScaleSignal) -> usize;

    /// Human-readable controller name.
    fn name(&self) -> &'static str {
        "autoscaler"
    }
}

/// The default [`Autoscaler`]: proportional sizing from the capacity
/// target with trend anticipation, debounced by consecutive-tick
/// confirmation in each direction and a cooldown between actions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HysteresisController {
    policy: AutoscaleV2,
    /// +1 while a scale-up is pending confirmation, -1 for scale-in,
    /// 0 when the desired size matches the current one.
    pending_dir: i8,
    pending_ticks: u32,
    /// Time of the last committed action; `None` before the first.
    last_action_s: Option<f64>,
}

impl HysteresisController {
    /// Creates the controller. The policy should already be validated.
    pub fn new(policy: AutoscalePolicy) -> Self {
        Self {
            policy: AutoscaleV2(policy),
            pending_dir: 0,
            pending_ticks: 0,
            last_action_s: None,
        }
    }

    /// The policy driving this controller.
    pub fn policy(&self) -> &AutoscalePolicy {
        &self.policy.0
    }

    /// The raw (unconfirmed) target for a signal: load anticipated over
    /// the warm-up horizon divided by the per-worker capacity target,
    /// clamped to the pool bounds.
    pub fn raw_target(&self, sig: &ScaleSignal) -> usize {
        let p = &self.policy.0;
        let anticipated = sig.load_qps + sig.trend_qps_per_s.max(0.0) * p.warmup_s;
        let raw = (anticipated / p.target_qps_per_worker).ceil();
        let raw = if raw.is_finite() && raw >= 0.0 {
            raw as usize
        } else {
            p.max_workers
        };
        raw.clamp(p.min_workers, p.max_workers)
    }
}

impl Autoscaler for HysteresisController {
    fn desired_workers(&mut self, sig: &ScaleSignal) -> usize {
        let p = self.policy.0;
        let current = (sig.live + sig.warming).clamp(0, p.max_workers);
        let target = self.raw_target(sig);
        let dir: i8 = match target.cmp(&current) {
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => 0,
        };
        if dir == 0 {
            self.pending_dir = 0;
            self.pending_ticks = 0;
            return current.clamp(p.min_workers, p.max_workers);
        }
        if dir == self.pending_dir {
            self.pending_ticks += 1;
        } else {
            self.pending_dir = dir;
            self.pending_ticks = 1;
        }
        let confirm = if dir > 0 {
            p.up_confirm
        } else {
            p.down_confirm
        };
        let cooled = self
            .last_action_s
            .is_none_or(|t| sig.now_s - t >= p.cooldown_s);
        if self.pending_ticks < confirm || !cooled {
            return current.clamp(p.min_workers, p.max_workers);
        }
        let step = target.abs_diff(current).min(p.max_step);
        let next = if dir > 0 {
            current + step
        } else {
            current.saturating_sub(step)
        };
        self.last_action_s = Some(sig.now_s);
        self.pending_dir = 0;
        self.pending_ticks = 0;
        next.clamp(p.min_workers, p.max_workers)
    }

    fn name(&self) -> &'static str {
        "hysteresis"
    }
}

/// A committed brownout transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrownoutTransition {
    /// The ladder escalated to this rung.
    Enter {
        /// The rung now active (1-based; 0 is "no brownout").
        rung: u32,
    },
    /// The ladder de-escalated, leaving this rung.
    Exit {
        /// The rung that was just left.
        rung: u32,
    },
}

/// The overload brownout ladder: a Schmitt trigger over the
/// load-to-capacity ratio with per-direction confirmation. Rung `r > 0`
/// bans the `r` slowest (most accurate) models; the engine remaps any
/// banned `Serve` selection to the slowest still-allowed model, so
/// degradation sacrifices accuracy before any query is shed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrownoutLadder {
    policy: BrownoutV2,
    max_rung: u32,
    rung: u32,
    above_ticks: u32,
    below_ticks: u32,
}

impl BrownoutLadder {
    /// Creates the ladder; `profile_rungs` is the number of useful rungs
    /// the model set supports (`n_models - 1`). A `max_rung` of 0 in the
    /// policy means "all of them"; without a policy the ladder never
    /// moves.
    pub fn new(policy: Option<BrownoutPolicy>, profile_rungs: u32) -> Self {
        let max_rung = match policy.unwrap_or_default().max_rung {
            0 => profile_rungs,
            cap => cap.min(profile_rungs),
        };
        Self {
            policy: BrownoutV2(policy),
            max_rung,
            rung: 0,
            above_ticks: 0,
            below_ticks: 0,
        }
    }

    /// The active rung (0 = no degradation).
    pub fn rung(&self) -> u32 {
        self.rung
    }

    /// The highest rung this ladder can reach.
    pub fn max_rung(&self) -> u32 {
        self.max_rung
    }

    /// Feeds one controller tick: the current load estimate against the
    /// live pool's capacity. Returns a committed transition, if any
    /// (at most one rung per tick).
    pub fn observe(&mut self, load_qps: f64, capacity_qps: f64) -> Option<BrownoutTransition> {
        let policy = self.policy.0?;
        if self.max_rung == 0 {
            return None;
        }
        let ratio = if capacity_qps > 0.0 {
            load_qps / capacity_qps
        } else if load_qps > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        if ratio >= policy.enter_ratio {
            self.below_ticks = 0;
            if self.rung >= self.max_rung {
                self.above_ticks = 0;
                return None;
            }
            self.above_ticks += 1;
            if self.above_ticks >= policy.confirm {
                self.above_ticks = 0;
                self.rung += 1;
                return Some(BrownoutTransition::Enter { rung: self.rung });
            }
        } else if ratio <= policy.exit_ratio {
            self.above_ticks = 0;
            if self.rung == 0 {
                self.below_ticks = 0;
                return None;
            }
            self.below_ticks += 1;
            if self.below_ticks >= policy.confirm {
                self.below_ticks = 0;
                let left = self.rung;
                self.rung -= 1;
                return Some(BrownoutTransition::Exit { rung: left });
            }
        } else {
            // The dead band between exit and enter holds the rung.
            self.above_ticks = 0;
            self.below_ticks = 0;
        }
        None
    }
}

// Snapshot format v2 (`crate::checkpoint::SNAPSHOT_VERSION`) predates
// "off is `None`": it writes the controller's and the ladder's policies
// with a leading `enabled` flag, and an absent brownout policy as a
// disabled one with the default knobs. The two wrappers below keep
// those bytes; a controller exists only when autoscaling is on, so its
// flag is always true.

/// The controller's policy, serialized in the snapshot layout.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AutoscaleV2(AutoscalePolicy);

/// The ladder's optional policy, serialized in the snapshot layout.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BrownoutV2(Option<BrownoutPolicy>);

/// `v` with a leading `enabled` flag.
fn flagged(v: Value, enabled: bool) -> Value {
    let Value::Object(mut fields) = v else {
        return v;
    };
    fields.insert(0, ("enabled".to_string(), Value::Bool(enabled)));
    Value::Object(fields)
}

impl Serialize for AutoscaleV2 {
    fn to_value(&self) -> Value {
        let mut v = flagged(self.0.to_value(), true);
        if let Value::Object(fields) = &mut v {
            if let Some((_, brownout)) = fields.iter_mut().find(|(k, _)| k == "brownout") {
                *brownout = BrownoutV2(self.0.brownout).to_value();
            }
        }
        v
    }
}

impl Deserialize for AutoscaleV2 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let mut policy = AutoscalePolicy::from_value(v)?;
        if let Some(brownout) = v.field("brownout") {
            policy.brownout = BrownoutV2::from_value(brownout)?.0;
        }
        Ok(Self(policy))
    }
}

impl Serialize for BrownoutV2 {
    fn to_value(&self) -> Value {
        flagged(self.0.unwrap_or_default().to_value(), self.0.is_some())
    }
}

impl Deserialize for BrownoutV2 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if v.field("enabled") == Some(&Value::Bool(false)) {
            return Ok(Self(None));
        }
        BrownoutPolicy::from_value(v).map(|p| Self(Some(p)))
    }
}

/// Autoscaler outcome statistics, reported as
/// [`crate::SimulationReport::autoscale`] when the subsystem is enabled.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AutoscaleStats {
    /// Controller ticks evaluated.
    pub ticks: u64,
    /// Workers sent Warming by scale-up actions.
    pub scale_ups: u64,
    /// Workers sent Draining by scale-in actions.
    pub scale_downs: u64,
    /// Warm-ups that reached Live (a crash can cancel one mid-warm-up).
    pub warmups_completed: u64,
    /// Drains that reached Down cleanly (in-flight batch finished).
    pub drains_completed: u64,
    /// Queued queries handed off to survivors at drain start.
    pub drain_handoffs: u64,
    /// Integral of Live workers over the horizon — the cost metric the
    /// elastic-frontier bench compares against fixed pools.
    pub worker_seconds: f64,
    /// `worker_seconds / horizon`.
    pub mean_live_workers: f64,
    /// Smallest Live count observed.
    pub min_live_workers: usize,
    /// Largest Live count observed.
    pub max_live_workers: usize,
    /// Brownout rung escalations committed.
    pub brownout_enters: u64,
    /// Brownout rung de-escalations committed.
    pub brownout_exits: u64,
    /// Simulated seconds spent at rung ≥ 1.
    pub brownout_time_s: f64,
    /// Highest rung reached.
    pub max_brownout_rung: u32,
    /// `Serve` selections remapped to a faster model by the ladder.
    pub degraded_selections: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(now_s: f64, load: f64, live: usize) -> ScaleSignal {
        ScaleSignal {
            now_s,
            load_qps: load,
            trend_qps_per_s: 0.0,
            live,
            warming: 0,
            draining: 0,
            queued: 0,
        }
    }

    #[test]
    fn default_and_elastic_policies_are_valid() {
        assert!(AutoscalePolicy::default().validate().is_ok());
        assert!(AutoscalePolicy::elastic(1, 4, 50.0).validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_bounds() {
        let mut p = AutoscalePolicy::elastic(0, 4, 50.0);
        assert!(p.validate().is_err(), "min_workers 0");
        p.min_workers = 5;
        assert!(p.validate().is_err(), "min > max");
        p = AutoscalePolicy::elastic(1, 4, 50.0);
        p.warmup_s = -0.5;
        assert!(p.validate().is_err(), "negative warm-up");
        p = AutoscalePolicy::elastic(1, 4, 50.0);
        p.target_qps_per_worker = 0.0;
        assert!(p.validate().is_err(), "zero capacity target");
        p = AutoscalePolicy::elastic(1, 4, 50.0);
        p.eval_interval_s = f64::NAN;
        assert!(p.validate().is_err(), "NaN tick period");
        p = AutoscalePolicy::elastic(1, 4, 50.0);
        p.up_confirm = 0;
        assert!(p.validate().is_err(), "zero confirm");
        p = AutoscalePolicy::elastic(1, 4, 50.0);
        p.max_step = 0;
        assert!(p.validate().is_err(), "zero step");
        p = AutoscalePolicy::elastic(1, 4, 50.0);
        let brownout = p.brownout.as_mut().expect("elastic has a ladder");
        brownout.exit_ratio = brownout.enter_ratio;
        assert!(p.validate().is_err(), "Schmitt trigger inverted");
    }

    #[test]
    fn controller_confirms_before_scaling_up() {
        let policy = AutoscalePolicy {
            up_confirm: 3,
            cooldown_s: 0.0,
            ..AutoscalePolicy::elastic(1, 8, 100.0)
        };
        let mut c = HysteresisController::new(policy);
        // 350 QPS over 100 QPS/worker wants 4 workers; two ticks are not
        // enough confirmation, the third commits.
        assert_eq!(c.desired_workers(&sig(0.0, 350.0, 2)), 2);
        assert_eq!(c.desired_workers(&sig(0.25, 350.0, 2)), 2);
        assert_eq!(c.desired_workers(&sig(0.5, 350.0, 2)), 4);
    }

    #[test]
    fn controller_respects_cooldown_and_step() {
        let policy = AutoscalePolicy {
            up_confirm: 1,
            cooldown_s: 10.0,
            max_step: 1,
            ..AutoscalePolicy::elastic(1, 8, 100.0)
        };
        let mut c = HysteresisController::new(policy);
        assert_eq!(c.desired_workers(&sig(0.0, 800.0, 1)), 2, "one step only");
        // Inside the cooldown nothing commits, however long the demand.
        assert_eq!(c.desired_workers(&sig(5.0, 800.0, 2)), 2);
        assert_eq!(c.desired_workers(&sig(9.9, 800.0, 2)), 2);
        assert_eq!(c.desired_workers(&sig(10.1, 800.0, 2)), 3);
    }

    #[test]
    fn controller_anticipates_with_the_trend() {
        let policy = AutoscalePolicy {
            warmup_s: 2.0,
            ..AutoscalePolicy::elastic(1, 8, 100.0)
        };
        let c = HysteresisController::new(policy);
        let mut s = sig(0.0, 100.0, 1);
        assert_eq!(c.raw_target(&s), 1);
        // Load climbing 100 QPS/s with a 2 s warm-up: plan for +200 QPS.
        s.trend_qps_per_s = 100.0;
        assert_eq!(c.raw_target(&s), 3);
        // A falling trend never shrinks the target below current load.
        s.trend_qps_per_s = -500.0;
        assert_eq!(c.raw_target(&s), 1);
    }

    #[test]
    fn controller_output_is_always_bounded() {
        let mut c = HysteresisController::new(AutoscalePolicy {
            up_confirm: 1,
            down_confirm: 1,
            cooldown_s: 0.0,
            max_step: 100,
            ..AutoscalePolicy::elastic(2, 5, 10.0)
        });
        assert_eq!(c.desired_workers(&sig(0.0, 1e9, 3)), 5, "clamped to max");
        assert_eq!(c.desired_workers(&sig(1.0, 0.0, 5)), 2, "clamped to min");
        assert_eq!(c.desired_workers(&sig(2.0, f64::NAN, 3)), 5, "NaN -> max");
    }

    #[test]
    fn direction_reversal_resets_confirmation() {
        let policy = AutoscalePolicy {
            up_confirm: 2,
            down_confirm: 2,
            cooldown_s: 0.0,
            ..AutoscalePolicy::elastic(1, 8, 100.0)
        };
        let mut c = HysteresisController::new(policy);
        assert_eq!(c.desired_workers(&sig(0.0, 400.0, 2)), 2);
        // Demand flips low before confirming: the up streak dies.
        assert_eq!(c.desired_workers(&sig(0.25, 100.0, 2)), 2);
        assert_eq!(c.desired_workers(&sig(0.5, 400.0, 2)), 2);
        assert_eq!(c.desired_workers(&sig(0.75, 400.0, 2)), 4);
    }

    #[test]
    fn ladder_escalates_and_deescalates_with_hysteresis() {
        let policy = BrownoutPolicy {
            enter_ratio: 1.2,
            exit_ratio: 0.8,
            confirm: 2,
            max_rung: 0,
        };
        let mut ladder = BrownoutLadder::new(Some(policy), 3);
        assert_eq!(ladder.max_rung(), 3);
        assert_eq!(ladder.observe(130.0, 100.0), None, "first sighting");
        assert_eq!(
            ladder.observe(130.0, 100.0),
            Some(BrownoutTransition::Enter { rung: 1 })
        );
        // The dead band holds the rung and resets the streaks.
        assert_eq!(ladder.observe(100.0, 100.0), None);
        assert_eq!(ladder.observe(130.0, 100.0), None);
        assert_eq!(
            ladder.observe(130.0, 100.0),
            Some(BrownoutTransition::Enter { rung: 2 })
        );
        // Recovery: two sub-exit ticks per rung.
        assert_eq!(ladder.observe(50.0, 100.0), None);
        assert_eq!(
            ladder.observe(50.0, 100.0),
            Some(BrownoutTransition::Exit { rung: 2 })
        );
        assert_eq!(ladder.observe(50.0, 100.0), None);
        assert_eq!(
            ladder.observe(50.0, 100.0),
            Some(BrownoutTransition::Exit { rung: 1 })
        );
        assert_eq!(ladder.rung(), 0);
        assert_eq!(ladder.observe(50.0, 100.0), None, "floor at rung 0");
    }

    #[test]
    fn ladder_saturates_at_max_rung_and_handles_zero_capacity() {
        let policy = BrownoutPolicy {
            enter_ratio: 1.2,
            exit_ratio: 0.8,
            confirm: 1,
            max_rung: 2,
        };
        let mut ladder = BrownoutLadder::new(Some(policy), 5);
        assert_eq!(ladder.max_rung(), 2);
        // Zero capacity with load reads as infinite overload.
        assert!(ladder.observe(10.0, 0.0).is_some());
        assert!(ladder.observe(10.0, 0.0).is_some());
        assert_eq!(ladder.rung(), 2);
        assert_eq!(ladder.observe(10.0, 0.0), None, "saturated");
        // Zero load, zero capacity is idle, not overload.
        let mut idle = BrownoutLadder::new(Some(policy), 5);
        assert_eq!(idle.observe(0.0, 0.0), None);
        assert_eq!(idle.rung(), 0);
    }

    #[test]
    fn absent_ladder_never_moves_and_keeps_the_snapshot_layout() {
        let mut ladder = BrownoutLadder::new(None, 4);
        for _ in 0..100 {
            assert_eq!(ladder.observe(1e9, 1.0), None);
        }
        assert_eq!(ladder.rung(), 0);
        // Format v2 stores the absent policy as a disabled one with the
        // default knobs.
        let json = serde_json::to_string(&ladder).unwrap();
        assert_eq!(
            json,
            "{\"policy\":{\"enabled\":false,\"enter_ratio\":1.25,\"exit_ratio\":0.85,\
             \"confirm\":4,\"max_rung\":0},\"max_rung\":4,\"rung\":0,\"above_ticks\":0,\
             \"below_ticks\":0}"
        );
        assert_eq!(
            serde_json::from_str::<BrownoutLadder>(&json).unwrap(),
            ladder
        );
        let mut policy = AutoscalePolicy::elastic(1, 4, 50.0);
        for brownout in [policy.brownout, None] {
            policy.brownout = brownout;
            let controller = HysteresisController::new(policy);
            let json = serde_json::to_string(&controller).unwrap();
            assert!(json.starts_with("{\"policy\":{\"enabled\":true,"), "{json}");
            let flag = format!("\"brownout\":{{\"enabled\":{},", brownout.is_some());
            assert!(json.contains(&flag), "{json}");
            let back: HysteresisController = serde_json::from_str(&json).unwrap();
            assert_eq!(back, controller);
        }
    }

    #[test]
    fn controller_is_deterministic() {
        let policy = AutoscalePolicy::elastic(1, 8, 100.0);
        let run = || {
            let mut c = HysteresisController::new(policy);
            (0..200)
                .map(|i| {
                    let t = i as f64 * 0.25;
                    let load = 100.0 + 300.0 * (t / 10.0).sin().abs();
                    c.desired_workers(&sig(t, load, 2))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
