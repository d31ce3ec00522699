//! The discrete-event simulation engine.
//!
//! Events are processed in `(time, sequence)` order from a binary heap,
//! so runs are exactly reproducible. The event kinds are: a query
//! arrival at the central queue, a worker completing a batch, an
//! injected fault from a [`FaultPlan`] (crash, recovery, slowdown), and
//! — when the [`ResiliencePolicy`] enables them — a dispatch timeout, a
//! hedge trigger, and a retry re-entry. Workers never idle while their
//! visible queue is non-empty (unless the scheme explicitly declines to
//! serve), and routing skips dead workers.
//!
//! Every dispatch ends in exactly one of: completion (`WorkerDone`),
//! timeout, or crash displacement. The worker's epoch is bumped at each
//! such end, so any still-queued end event for the old dispatch (a
//! timeout racing a completion, a hedge racing a cancel) is recognized
//! as stale and discarded — the scheduled-event set never needs
//! surgical removal from the heap.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ramsis_profiles::WorkerProfile;
use ramsis_stats::LogHistogram;
use ramsis_telemetry::{
    Action, CandidateAction, ChosenAction, DecisionRecord, DecisionSink, DecisionState, Event,
    GaugeId, HotCounter, NullSink, Phase, Profiler, QueueId, ReasonCode, ShedCause, TelemetrySink,
};
use ramsis_workload::{sample_poisson_arrivals, LoadEstimator, Trace};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::autoscale::{
    AutoscalePolicy, AutoscaleStats, Autoscaler, BrownoutLadder, BrownoutTransition,
    HysteresisController, ScaleSignal, WorkerState,
};
use crate::checkpoint::{
    arrivals_fingerprint, AutoscaleState, CheckpointPolicy, CheckpointRecorder, ClusterState,
    EngineSnapshot, HeapEntry, InFlightState, ResilienceState, SnapshotMeta, SNAPSHOT_VERSION,
};
use crate::faults::{CrashPolicy, FaultEvent, FaultPlan};
use crate::health::{HealthMonitor, HealthPolicy, ProbeStep, SuspectInfo};
use crate::latency::{LatencyMode, LatencySampler};
use crate::metrics::{MetricsCollector, SimulationReport};
use crate::query::{nanos_from_secs, secs_from_nanos, Nanos, Query};
use crate::resilience::{
    backoff_delay_s, splitmix64, CoDelAdmission, HedgePolicy, ResiliencePolicy, RetryBudget,
};
use crate::scheme::{Routing, Selection, SelectionContext, ServingScheme};
use crate::SimError;

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Number of workers.
    pub workers: usize,
    /// Response-latency SLO in seconds (stamps query deadlines).
    pub slo_s: f64,
    /// Service-time realization mode.
    pub latency: LatencyMode,
    /// Seed for arrival-time sampling.
    pub arrival_seed: u64,
    /// Seed for stochastic service times.
    pub latency_seed: u64,
    /// Collect a per-window timeline in the report (window length in
    /// seconds); `None` disables it.
    pub timeline_window_s: Option<f64>,
    /// Request-level resilience knobs (timeouts, retry, hedging,
    /// admission control). The default turns every mechanism off and
    /// reproduces pre-resilience behavior bit-for-bit.
    pub resilience: ResiliencePolicy,
    /// Elastic-capacity knobs (autoscaler, worker lifecycle, brownout
    /// ladder). `None` (the default) reproduces the fixed-pool engine
    /// bit-for-bit.
    pub autoscale: Option<AutoscalePolicy>,
    /// Perceived-health knobs (DESIGN.md §14): heartbeat probes, the
    /// phi-accrual failure detector, per-worker circuit breakers, and
    /// EWMA outlier ejection. `None` (the default) reproduces the
    /// oracle-membership engine bit-for-bit.
    pub health: Option<HealthPolicy>,
}

impl SimulationConfig {
    /// A config with the given worker count and SLO, deterministic
    /// latency, and fixed seeds.
    pub fn new(workers: usize, slo_s: f64) -> Self {
        Self {
            workers,
            slo_s,
            latency: LatencyMode::DeterministicP95,
            arrival_seed: 1,
            latency_seed: 2,
            timeline_window_s: None,
            resilience: ResiliencePolicy::default(),
            autoscale: None,
            health: None,
        }
    }

    /// Enables per-window timeline collection.
    pub fn with_timeline(mut self, window_s: f64) -> Self {
        self.timeline_window_s = Some(window_s);
        self
    }

    /// Installs a request-level resilience policy.
    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> Self {
        self.resilience = resilience;
        self
    }

    /// Installs an elastic-capacity (autoscaler) policy.
    pub fn with_autoscale(mut self, autoscale: AutoscalePolicy) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Installs a perceived-health policy (probes, failure detector,
    /// circuit breakers).
    pub fn with_health(mut self, health: HealthPolicy) -> Self {
        self.health = Some(health);
        self
    }

    /// Switches to stochastic ("prototype implementation") latency.
    pub fn stochastic(mut self) -> Self {
        self.latency = LatencyMode::Stochastic;
        self
    }

    /// Sets both seeds from one value (different streams derived).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.arrival_seed = seed;
        self.latency_seed = seed ^ 0x9E37_79B9_7F4A_7C15;
        self
    }

    /// Checks the config is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when there are no workers,
    /// the SLO is not strictly positive and finite, or the timeline
    /// window is degenerate.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.workers == 0 {
            return Err(SimError::InvalidConfig(
                "need at least one worker".to_string(),
            ));
        }
        if !self.slo_s.is_finite() || self.slo_s <= 0.0 {
            return Err(SimError::InvalidConfig(format!(
                "SLO must be positive, got {}",
                self.slo_s
            )));
        }
        if let Some(w) = self.timeline_window_s {
            if !w.is_finite() || w <= 0.0 {
                return Err(SimError::InvalidConfig(format!(
                    "timeline window must be positive, got {w}"
                )));
            }
        }
        self.resilience.validate()?;
        if let Some(health) = &self.health {
            health.validate()?;
        }
        if let Some(autoscale) = &self.autoscale {
            autoscale.validate()?;
            if self.workers > autoscale.max_workers {
                return Err(SimError::InvalidConfig(format!(
                    "autoscale: initial pool {} exceeds max_workers {}",
                    self.workers, autoscale.max_workers
                )));
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Index into the pre-sampled arrival array.
    Arrival(u64),
    /// Worker finished its in-flight batch; the epoch invalidates
    /// completions of dispatches already ended by a crash, timeout, or
    /// hedge cancellation.
    WorkerDone(usize, u64),
    /// Index into the expanded fault-action array.
    Fault(u32),
    /// The worker's in-flight dispatch exceeded its granted timeout
    /// (same epoch discipline as `WorkerDone`). Only scheduled with a
    /// [`TimeoutPolicy`]; a dispatch gets *either* a `WorkerDone` or a
    /// `Timeout`, never both.
    ///
    /// [`TimeoutPolicy`]: crate::resilience::TimeoutPolicy
    Timeout(usize, u64),
    /// The worker's in-flight dispatch has been running past the hedge
    /// quantile; duplicate it to an idle worker if one exists.
    HedgeDue(usize, u64),
    /// A backed-off query re-enters routing; index into the engine's
    /// retry buffer.
    Retry(u32),
    /// Autoscaler controller tick: evaluate the pool size and the
    /// brownout ladder. Only ever scheduled with an [`AutoscalePolicy`];
    /// reschedules itself while arrivals remain.
    ScaleTick,
    /// A warming worker's warm-up latency elapsed (same epoch discipline
    /// as `WorkerDone`: a crash or a cancelling scale-in bumps the epoch
    /// and strands the event).
    WarmupDone(usize, u64),
    /// Health-probe tick: heartbeat every probed worker and feed the
    /// failure detector. Only ever scheduled with a [`HealthPolicy`];
    /// reschedules itself while arrivals remain (mirrors `ScaleTick`).
    HealthTick,
}

impl EventKind {
    /// Flattens the kind to `(tag, a, b)` for checkpoint heap entries
    /// (the vendored serde derive has no tuple-variant support, and an
    /// explicit encoding keeps the snapshot format stable anyway).
    fn encode(self) -> (u8, u64, u64) {
        match self {
            EventKind::Arrival(i) => (0, i, 0),
            EventKind::WorkerDone(w, e) => (1, w as u64, e),
            EventKind::Fault(i) => (2, u64::from(i), 0),
            EventKind::Timeout(w, e) => (3, w as u64, e),
            EventKind::HedgeDue(w, e) => (4, w as u64, e),
            EventKind::Retry(i) => (5, u64::from(i), 0),
            EventKind::ScaleTick => (6, 0, 0),
            EventKind::WarmupDone(w, e) => (7, w as u64, e),
            EventKind::HealthTick => (8, 0, 0),
        }
    }

    /// The profiler phase the event's handling is charged to.
    fn phase(self) -> Phase {
        match self {
            EventKind::Arrival(_) => Phase::Arrival,
            EventKind::WorkerDone(..) => Phase::Completion,
            EventKind::Timeout(..) => Phase::Timeout,
            EventKind::HedgeDue(..) => Phase::Hedge,
            EventKind::Retry(_) => Phase::Retry,
            // Membership machinery shares the fault phase bucket.
            EventKind::Fault(_)
            | EventKind::ScaleTick
            | EventKind::WarmupDone(..)
            | EventKind::HealthTick => Phase::Fault,
        }
    }

    /// Inverse of [`Self::encode`]. Indices are range-checked against
    /// the run by [`Engine::check_snapshot`].
    fn decode(tag: u8, a: u64, b: u64) -> Result<Self, SimError> {
        let too_big = || {
            SimError::InvalidConfig(format!(
                "cannot resume: snapshot heap entry ({tag}, {a}, {b}) has an out-of-range index"
            ))
        };
        let w = || usize::try_from(a).map_err(|_| too_big());
        let i = || u32::try_from(a).map_err(|_| too_big());
        Ok(match tag {
            0 => EventKind::Arrival(a),
            1 => EventKind::WorkerDone(w()?, b),
            2 => EventKind::Fault(i()?),
            3 => EventKind::Timeout(w()?, b),
            4 => EventKind::HedgeDue(w()?, b),
            5 => EventKind::Retry(i()?),
            6 => EventKind::ScaleTick,
            7 => EventKind::WarmupDone(w()?, b),
            8 => EventKind::HealthTick,
            _ => {
                return Err(SimError::InvalidConfig(format!(
                    "cannot resume: snapshot heap entry has unknown event tag {tag}"
                )))
            }
        })
    }
}

/// The event heap: `(time, sequence, kind)` min-ordered. Sequence
/// numbers are unique, so the `EventKind` ordering never decides.
type EventHeap = BinaryHeap<Reverse<(Nanos, u64, EventKind)>>;

/// The alternative a counterfactual replay injects: at decision
/// `k` — the index every run counts across all decision sites whether
/// or not recording is on — the scheme's selection is replaced by
/// `action`. Everything before `k` replays the original run exactly;
/// everything after diverges only through that one change, so the
/// report delta is the *exact* per-decision regret.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForcedDecision {
    /// Decision index to intercept. Only selection-site decisions can
    /// be forced; hedge, retry, and retry-exhaustion records consume
    /// indices but are mechanisms, not choices.
    pub k: u64,
    /// The selection applied instead of the scheme's. A `Serve` batch
    /// or `Drop` count outside `1..=queue` is clamped at the site.
    pub action: Selection,
}

/// The run loop's handle on decision provenance (mirror of [`Tracer`]).
/// The index `k` advances at every decision site unconditionally — one
/// u64 add per site, so disabled runs stay bit-identical — while
/// records are only built when an enabled sink is attached.
struct DecisionTracer<'a> {
    sink: Option<&'a mut dyn DecisionSink>,
    on: bool,
    /// Next decision index.
    k: u64,
    /// Heap events fully processed before the current one, stamped
    /// into records so they join against checkpoint `events_done`.
    event: u64,
    forced: Option<ForcedDecision>,
    forced_applied: bool,
}

impl<'a> DecisionTracer<'a> {
    /// `forced` carries the alternative and the decision-index offset
    /// (decisions the snapshotted prefix already made; 0 from time
    /// zero).
    fn new(sink: Option<&'a mut dyn DecisionSink>, forced: Option<(ForcedDecision, u64)>) -> Self {
        let on = sink.as_ref().is_some_and(|s| s.enabled());
        Self {
            sink,
            on,
            k: forced.map_or(0, |(_, k_offset)| k_offset),
            event: 0,
            forced: forced.map(|(f, _)| f),
            forced_applied: false,
        }
    }

    /// Claims the next decision index. Called at every site whether or
    /// not recording is on, so a replay's indices always line up with
    /// the recorded run's.
    #[inline]
    fn next(&mut self) -> u64 {
        let k = self.k;
        self.k += 1;
        k
    }

    /// Records the decision `build` makes (handing it the stamped event
    /// count) when recording is on, timed as the `decision` phase. The
    /// record — candidates, regime — is only built under that branch.
    #[inline]
    fn record(&mut self, prof: &mut Profiler, build: impl FnOnce(u64) -> DecisionRecord) {
        if self.on {
            prof.enter(Phase::Decision);
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.record(&build(self.event));
            }
            prof.exit(Phase::Decision);
        }
    }

    /// The forced alternative targeted at decision `k`, if any.
    #[inline]
    fn force(&mut self, k: u64) -> Option<Selection> {
        match self.forced {
            Some(f) if f.k == k => {
                self.forced_applied = true;
                Some(f.action)
            }
            _ => None,
        }
    }
}

/// MDP state coordinates at a selection site, as stamped into a
/// [`DecisionRecord`]. Slack mirrors the telemetry convention: signed
/// nanoseconds, negative once the queue head is past its deadline.
fn decision_state(ctx: &SelectionContext) -> DecisionState {
    DecisionState {
        load_qps: ctx.load_qps,
        queued: ctx.queued as u32,
        slack_ns: (ctx.earliest_slack_s * 1e9).round() as i64,
        live_workers: ctx.live_workers as u32,
    }
}

/// Per-model candidate scores at a selection site: expected head-of-line
/// slack after serving `cand_batch` on each model, and the model's
/// accuracy as its value. Only built when decision recording is on.
fn decision_candidates(
    profile: &WorkerProfile,
    ctx: &SelectionContext,
    cand_batch: u32,
) -> Vec<CandidateAction> {
    let slack_ns = (ctx.earliest_slack_s * 1e9).round() as i64;
    (0..profile.n_models())
        .map(|m| CandidateAction {
            model: m as u32,
            batch: cand_batch,
            expected_slack_ns: slack_ns
                - (profile.latency_extrapolated(m, cand_batch) * 1e9).round() as i64,
            value: profile.accuracy(m),
        })
        .collect()
}

/// A timed, engine-level fault action expanded from a [`FaultPlan`]
/// (slowdowns split into start/end edges; surges are applied to the
/// trace before sampling, not here).
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    Crash(usize),
    Recover(usize),
    SlowStart(usize, f64),
    SlowEnd(usize),
}

fn expand_fault_actions(plan: &FaultPlan) -> Vec<(Nanos, FaultAction)> {
    let mut actions: Vec<(Nanos, FaultAction)> = Vec::new();
    for event in &plan.events {
        match *event {
            FaultEvent::WorkerCrash { worker, at_s } => {
                actions.push((nanos_from_secs(at_s), FaultAction::Crash(worker)));
            }
            FaultEvent::WorkerRecover { worker, at_s } => {
                actions.push((nanos_from_secs(at_s), FaultAction::Recover(worker)));
            }
            FaultEvent::WorkerSlowdown {
                worker,
                from_s,
                to_s,
                factor,
            } => {
                actions.push((
                    nanos_from_secs(from_s),
                    FaultAction::SlowStart(worker, factor),
                ));
                actions.push((nanos_from_secs(to_s), FaultAction::SlowEnd(worker)));
            }
            FaultEvent::ArrivalSurge { .. } => {}
            FaultEvent::WorkerFlap {
                worker,
                from_s,
                to_s,
                period_s,
            } => {
                // 50% duty-cycle square wave of micro-outages: down at
                // from + k·period, back up half a period later (clipped
                // to the window end so the flap always leaves the
                // worker live).
                let mut k = 0u32;
                loop {
                    let down_s = from_s + f64::from(k) * period_s;
                    if down_s >= to_s {
                        break;
                    }
                    let up_s = (down_s + period_s / 2.0).min(to_s);
                    actions.push((nanos_from_secs(down_s), FaultAction::Crash(worker)));
                    actions.push((nanos_from_secs(up_s), FaultAction::Recover(worker)));
                    k += 1;
                }
            }
            // Error rates are drawn per completed batch in the
            // WorkerDone handler; partitions only affect probe
            // delivery. Neither produces a timed membership action.
            FaultEvent::WorkerErrorRate { .. } | FaultEvent::HeartbeatPartition { .. } => {}
        }
    }
    // Stable sort: same-time actions keep their plan order, so runs are
    // deterministic for any plan.
    actions.sort_by_key(|&(t, _)| t);
    actions
}

/// The engine's handle on a run's telemetry sink. `enabled` is read
/// once at run start; with the default [`NullSink`] every emission site
/// reduces to one predictable branch and no event is ever constructed.
struct Tracer<'s> {
    sink: &'s mut dyn TelemetrySink,
    on: bool,
    /// Scratch for draining scheme-buffered audit events.
    buf: Vec<Event>,
    /// Events recorded into the sink so far. Checkpoints carry this
    /// count so a resume can truncate a JSONL log to the exact line the
    /// snapshot saw (healing any torn tail past it).
    emitted: u64,
}

impl<'s> Tracer<'s> {
    fn new(sink: &'s mut dyn TelemetrySink) -> Self {
        let on = sink.enabled();
        Self {
            sink,
            on,
            buf: Vec::new(),
            emitted: 0,
        }
    }

    /// Records the event `f` builds, constructing it only when tracing.
    #[inline]
    fn emit(&mut self, f: impl FnOnce() -> Event) {
        if self.on {
            self.sink.record(&f());
            self.emitted += 1;
        }
    }

    /// Moves the scheme's buffered audit events into the sink, keeping
    /// the stream in simulation-time order.
    fn drain_scheme(&mut self, scheme: &mut dyn ServingScheme) {
        if !self.on {
            return;
        }
        scheme.drain_audit(&mut self.buf);
        for e in self.buf.drain(..) {
            self.sink.record(&e);
            self.emitted += 1;
        }
    }
}

impl ClusterState {
    /// A cluster with `capacity` slots of which the first `initial` are
    /// Live; the rest are Down, waiting on a scale-up.
    fn elastic(capacity: usize, initial: usize) -> Self {
        let mut c = Self {
            busy: vec![false; capacity],
            alive: vec![true; capacity],
            slow: vec![1.0; capacity],
            epochs: vec![0; capacity],
            in_flight: vec![None; capacity],
            down_since: vec![None; capacity],
            live: initial.min(capacity),
            lifecycle: vec![WorkerState::Live; capacity],
        };
        for w in initial..capacity {
            c.alive[w] = false;
            c.lifecycle[w] = WorkerState::Down;
        }
        c
    }

    /// Workers currently warming up.
    fn warming(&self) -> usize {
        self.lifecycle
            .iter()
            .filter(|s| **s == WorkerState::Warming)
            .count()
    }

    /// Workers currently draining out.
    fn draining(&self) -> usize {
        self.lifecycle
            .iter()
            .filter(|s| **s == WorkerState::Draining)
            .count()
    }
}

/// The perceived-membership runtime (DESIGN.md §14): the failure
/// detector plus the router's suspicion-filtered view of the pool. Only
/// constructed with a [`HealthPolicy`]; without one nothing here exists
/// and the oracle engine stays bit-identical.
struct HealthRuntime {
    monitor: HealthMonitor,
    /// Routable per the detector: not suspected, and either actually
    /// live or crash-down (the router cannot see a crash until the
    /// detector calls it). Commanded transitions (Warming, Draining,
    /// scaled-down slots) stay visible — the control plane ordered
    /// them, no detection needed.
    view: Vec<bool>,
    /// `view.iter().filter(|v| **v).count()`, kept in lockstep.
    perceived_live: usize,
    /// Probe cadence; ticks stop past `tick_end` (mirrors `ScaleTick`).
    tick_ns: Nanos,
    tick_end: Nanos,
}

impl HealthRuntime {
    /// Recomputes the routing view from ground truth + suspicion.
    fn rebuild_view(&mut self, cluster: &ClusterState) {
        self.perceived_live = 0;
        for w in 0..self.view.len() {
            self.view[w] =
                !self.monitor.suspected(w) && (cluster.alive[w] || cluster.down_since[w].is_some());
            if self.view[w] {
                self.perceived_live += 1;
            }
        }
    }
}

/// The resilience layer's per-run state. Constructed from the config's
/// [`ResiliencePolicy`]; with every mechanism `None` none of it is ever
/// consulted on the hot path beyond one branch per site.
struct ResilienceRuntime {
    policy: ResiliencePolicy,
    state: ResilienceState,
}

impl ResilienceRuntime {
    fn new(policy: ResiliencePolicy, n_workers: usize) -> Self {
        Self {
            policy,
            state: ResilienceState {
                budget: RetryBudget::new(policy.retry.budget_rate_per_s, policy.retry.budget_burst),
                admission: vec![CoDelAdmission::default(); n_workers + 1],
                service_hist: LogHistogram::new(),
                retry_buf: Vec::new(),
            },
        }
    }

    /// How long after dispatch a hedge under `h` fires, once enough
    /// service times have been observed; `None` while the estimate is
    /// still noise.
    fn hedge_delay_ns(&self, h: &HedgePolicy) -> Option<Nanos> {
        let hist = &self.state.service_hist;
        if hist.count() < h.min_samples {
            return None;
        }
        let p = hist.percentile(h.quantile)?;
        Some(p.max(nanos_from_secs(h.min_delay_s)))
    }
}

/// The autoscaler's per-run state: the controller, the ladder, and the
/// accounting behind [`AutoscaleStats`], next to what the run derives
/// from its config. `None` when the subsystem is disabled — the engine
/// then schedules no ticks and takes exactly its fixed-pool paths.
struct AutoscaleRuntime {
    state: AutoscaleState,
    /// Controller tick period in simulated nanoseconds.
    tick_ns: Nanos,
    /// Last arrival time; ticks stop rescheduling past it so the run
    /// terminates.
    tick_end: Nanos,
    /// Model indices fastest → slowest by deterministic batch-1
    /// latency: the order in which brownout rungs ban models.
    order: Vec<usize>,
    /// `pos[m]` is model `m`'s rank in `order`.
    pos: Vec<usize>,
}

impl AutoscaleRuntime {
    fn new(
        policy: AutoscalePolicy,
        initial_live: usize,
        profile: &WorkerProfile,
        tick_end: Nanos,
    ) -> Self {
        let n = profile.n_models();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            profile
                .latency_extrapolated(a, 1)
                .partial_cmp(&profile.latency_extrapolated(b, 1))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut pos = vec![0usize; n];
        for (rank, &m) in order.iter().enumerate() {
            pos[m] = rank;
        }
        let profile_rungs = n.saturating_sub(1) as u32;
        Self {
            state: AutoscaleState {
                controller: HysteresisController::new(policy),
                ladder: BrownoutLadder::new(policy.brownout, profile_rungs),
                stats: AutoscaleStats {
                    min_live_workers: initial_live,
                    max_live_workers: initial_live,
                    ..AutoscaleStats::default()
                },
                last_live_change: 0,
                live_at_change: initial_live,
                brownout_since: None,
                brown_rung: 0,
                brown_degraded: 0,
            },
            tick_ns: nanos_from_secs(policy.eval_interval_s).max(1),
            tick_end,
            order,
            pos,
        }
    }

    /// Folds a live-count change at `now` into the worker-seconds
    /// integral and the min/max tracking.
    fn account_live(&mut self, now: Nanos, new_live: usize) {
        let s = &mut self.state;
        s.stats.worker_seconds +=
            s.live_at_change as f64 * secs_from_nanos(now.saturating_sub(s.last_live_change));
        s.last_live_change = now;
        s.live_at_change = new_live;
        s.stats.min_live_workers = s.stats.min_live_workers.min(new_live);
        s.stats.max_live_workers = s.stats.max_live_workers.max(new_live);
    }

    /// Closes the books at the end of the run.
    fn finalize(mut self, horizon: Nanos) -> AutoscaleStats {
        self.account_live(horizon, self.state.live_at_change);
        let s = &mut self.state;
        if let Some(start) = s.brownout_since.take() {
            s.stats.brownout_time_s += secs_from_nanos(horizon.saturating_sub(start));
        }
        let horizon_s = secs_from_nanos(horizon);
        s.stats.mean_live_workers = if horizon_s > 0.0 {
            s.stats.worker_seconds / horizon_s
        } else {
            s.live_at_change as f64
        };
        s.stats.degraded_selections = s.brown_degraded;
        self.state.stats
    }

    /// Applies the active brownout rung to a scheme's model choice:
    /// rung `r` bans the `r` slowest models, and a banned choice
    /// degrades to the slowest (most accurate) still-allowed model.
    fn remap(&mut self, model: usize) -> usize {
        let rung = self.state.brown_rung;
        if rung == 0 || self.order.is_empty() {
            return model;
        }
        let slowest_allowed = self
            .order
            .len()
            .saturating_sub(1)
            .saturating_sub(rung as usize)
            .min(self.order.len() - 1);
        if self.pos[model] > slowest_allowed {
            self.state.brown_degraded += 1;
            self.order[slowest_allowed]
        } else {
            model
        }
    }
}

/// Re-queues `queries` at the head of `queue`, keeping their order: a
/// displaced batch carries the earliest deadlines.
fn push_front_all(queue: &mut VecDeque<Query>, queries: Vec<Query>, now: Nanos) {
    for mut q in queries.into_iter().rev() {
        q.enqueued_at = now;
        queue.push_front(q);
    }
}

/// The next live worker in round-robin order, advancing the cursor;
/// `None` when every worker is dead.
fn next_live_rr(alive: &[bool], rr_next: &mut usize) -> Option<usize> {
    let n = alive.len();
    for _ in 0..n {
        let w = *rr_next;
        *rr_next = (*rr_next + 1) % n;
        if alive[w] {
            return Some(w);
        }
    }
    None
}

/// Where a run's arrivals come from.
#[derive(Clone, Copy)]
enum Arrivals<'r> {
    /// Poisson arrivals sampled from a trace, surges applied first.
    Trace(&'r Trace),
    /// Explicit arrival times (seconds, sorted), replayed exactly.
    Exact(&'r [f64]),
}

/// One run's inputs besides the scheme and the load estimator: the
/// arrivals plus every optional attachment. Built with
/// [`RunSpec::trace`] or [`RunSpec::arrivals`] and extended by the
/// chained setters; [`Simulation::execute`] runs it. Observers
/// (telemetry, decisions, profiler, checkpoint recorder) never change
/// the simulated run: its report is byte-identical with or without
/// them.
pub struct RunSpec<'r> {
    arrivals: Arrivals<'r>,
    plan: Option<&'r FaultPlan>,
    sink: Option<&'r mut dyn TelemetrySink>,
    decisions: Option<&'r mut dyn DecisionSink>,
    profiler: Option<&'r mut Profiler>,
    recorder: Option<(&'r mut dyn CheckpointRecorder, CheckpointPolicy)>,
    resume: Option<&'r EngineSnapshot>,
    forced: Option<(ForcedDecision, u64)>,
}

impl<'r> RunSpec<'r> {
    fn new(arrivals: Arrivals<'r>) -> Self {
        Self {
            arrivals,
            plan: None,
            sink: None,
            decisions: None,
            profiler: None,
            recorder: None,
            resume: None,
            forced: None,
        }
    }

    /// Poisson arrivals sampled from `trace` with the config's arrival
    /// seed; arrival surges in the fault plan scale the trace first.
    pub fn trace(trace: &'r Trace) -> Self {
        Self::new(Arrivals::Trace(trace))
    }

    /// Explicit arrival times (seconds, sorted), replayed exactly as
    /// given: arrival surges in the fault plan are ignored.
    pub fn arrivals(arrivals: &'r [f64]) -> Self {
        Self::new(Arrivals::Exact(arrivals))
    }

    /// Injects `plan`'s faults: crashes, recoveries, slowdowns, flaps,
    /// error rates and partitions play back through the event heap.
    pub fn faults(mut self, plan: &'r FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Emits every lifecycle and audit event into `sink`. Same seeds
    /// give a byte-identical event stream.
    pub fn telemetry(mut self, sink: &'r mut dyn TelemetrySink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Emits every selection, shed, retry, and hedge decision into
    /// `sink` as a [`DecisionRecord`].
    pub fn decisions(mut self, sink: &'r mut dyn DecisionSink) -> Self {
        self.decisions = Some(sink);
        self
    }

    /// Attaches the engine's self-profiler: wall-clock phase timings
    /// and hot-path counters, never the simulated clock.
    pub fn profiler(mut self, prof: &'r mut Profiler) -> Self {
        self.profiler = Some(prof);
        self
    }

    /// Snapshots the complete engine state into `recorder` at the
    /// cadence `policy` sets. A recorder that declines a snapshot stops
    /// the run with [`SimError::Interrupted`].
    pub fn checkpoints(
        mut self,
        recorder: &'r mut dyn CheckpointRecorder,
        policy: CheckpointPolicy,
    ) -> Self {
        self.recorder = Some((recorder, policy));
        self
    }

    /// Continues an interrupted run from `snapshot`. The trace, plan,
    /// config, and scheme must be the ones it was taken under; the
    /// report and every event emitted are byte-identical to the
    /// uninterrupted run's suffix past the snapshot point.
    pub fn resume_from(mut self, snapshot: &'r EngineSnapshot) -> Self {
        self.resume = Some(snapshot);
        self
    }

    /// Replaces the scheme's selection at decision `forced.k` with
    /// `forced.action` (a counterfactual replay). `k_offset` is the
    /// number of decisions made before the run starts: 0 from time
    /// zero; when resuming, the factual records with
    /// `record.event < snapshot.meta.events_done`. Forcing the
    /// factual run's own raw choice reproduces its report exactly.
    pub fn force(mut self, forced: ForcedDecision, k_offset: u64) -> Self {
        self.forced = Some((forced, k_offset));
        self
    }
}

/// A simulation run binding worker profiles, a trace, and a scheme.
pub struct Simulation<'a> {
    /// Per-worker profiles; length 1 means a homogeneous cluster.
    profiles: Vec<&'a WorkerProfile>,
    config: SimulationConfig,
}

impl<'a> Simulation<'a> {
    /// Creates a run harness over a homogeneous cluster (every worker
    /// runs `profile`'s hardware and models).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the config fails
    /// [`SimulationConfig::validate`].
    pub fn new(profile: &'a WorkerProfile, config: SimulationConfig) -> Result<Self, SimError> {
        config.validate()?;
        Ok(Self {
            profiles: vec![profile],
            config,
        })
    }

    /// Creates a run harness over a *heterogeneous* cluster: one profile
    /// per worker (§7: "Worker homogeneity is not a fundamental
    /// requirement for RAMSIS since policies are generated per worker").
    /// All profiles must share the SLO class of the config.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the config is degenerate,
    /// `profiles.len() != config.workers`, or a profile's SLO disagrees
    /// with the config's.
    pub fn heterogeneous(
        profiles: Vec<&'a WorkerProfile>,
        config: SimulationConfig,
    ) -> Result<Self, SimError> {
        config.validate()?;
        if config.autoscale.is_some() {
            return Err(SimError::InvalidConfig(
                "autoscaling requires a homogeneous cluster: scale-up slots \
                 beyond the initial pool have no profile of their own"
                    .to_string(),
            ));
        }
        if profiles.len() != config.workers {
            return Err(SimError::InvalidConfig(format!(
                "one profile per worker ({} vs {})",
                profiles.len(),
                config.workers
            )));
        }
        for (w, p) in profiles.iter().enumerate() {
            if (p.slo() - config.slo_s).abs() >= 1e-9 {
                return Err(SimError::InvalidConfig(format!(
                    "worker {w}'s profile was built for SLO {}s, config says {}s",
                    p.slo(),
                    config.slo_s
                )));
            }
        }
        Ok(Self { profiles, config })
    }

    /// The profile worker `w` runs.
    fn profile_of(&self, w: usize) -> &'a WorkerProfile {
        if self.profiles.len() == 1 {
            self.profiles[0]
        } else {
            self.profiles[w]
        }
    }

    /// Runs `scheme` over Poisson arrivals sampled from `trace`,
    /// reporting per-query outcomes. `estimator` is the load monitor
    /// shared by all evaluated systems (§6). Shorthand for
    /// [`Self::execute`] with nothing attached.
    pub fn run(
        &self,
        trace: &Trace,
        scheme: &mut dyn ServingScheme,
        estimator: &mut dyn LoadEstimator,
    ) -> SimulationReport {
        self.execute(RunSpec::trace(trace), scheme, estimator)
            .expect("a run with nothing attached has nothing to refuse")
    }

    /// Runs `spec` with `scheme` selecting and `estimator` monitoring
    /// the load — the one entry point every run goes through. Same
    /// seeds and spec give identical reports.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the fault plan fails
    /// [`FaultPlan::validate`] for this cluster; the checkpoint policy
    /// fails [`CheckpointPolicy::validate`]; a recorder or a resume
    /// snapshot is used with a scheme or estimator that cannot
    /// checkpoint; the snapshot does not belong to this run; or the
    /// forced decision is out of range, precedes `k_offset`, or is
    /// never reached. Returns [`SimError::Interrupted`] when the
    /// checkpoint recorder stops the run mid-flight.
    pub fn execute(
        &self,
        spec: RunSpec<'_>,
        scheme: &mut dyn ServingScheme,
        estimator: &mut dyn LoadEstimator,
    ) -> Result<SimulationReport, SimError> {
        let RunSpec {
            arrivals,
            plan,
            sink,
            decisions,
            profiler,
            recorder,
            resume,
            forced,
        } = spec;
        if let Some((f, k_offset)) = forced {
            self.validate_forced(&f, k_offset)?;
        }
        let no_faults = FaultPlan::none();
        let plan = plan.unwrap_or(&no_faults);
        plan.validate(self.config.workers)?;
        if let Some((_, policy)) = &recorder {
            policy.validate()?;
        }
        if recorder.is_some() || resume.is_some() {
            if scheme.checkpoint_state().is_none() {
                return Err(SimError::InvalidConfig(format!(
                    "scheme `{}` does not support checkpointing",
                    scheme.name()
                )));
            }
            if estimator.checkpoint_state().is_none() {
                return Err(SimError::InvalidConfig(
                    "load estimator does not support checkpointing".to_string(),
                ));
            }
        }
        let mut null_sink = NullSink;
        let mut prof_off = Profiler::off();
        let prof = profiler.unwrap_or(&mut prof_off);
        prof.run_begin();
        prof.enter(Phase::Setup);
        let sampled;
        let arrivals = match arrivals {
            Arrivals::Trace(trace) => {
                sampled = self.sampled_arrivals(trace, plan);
                &sampled[..]
            }
            Arrivals::Exact(arrivals) => arrivals,
        };
        let sink: &mut dyn TelemetrySink = match sink {
            Some(sink) => sink,
            None => &mut null_sink,
        };
        // The casts shorten the attached trait objects' lifetimes to
        // this run's (`&mut` is invariant, so it takes a coercion).
        let observers = Observers {
            tracer: Tracer::new(sink),
            dec: DecisionTracer::new(decisions.map(|d| d as &mut dyn DecisionSink), forced),
            prof: &mut *prof,
            recorder: recorder.map(|(r, p)| (r as &mut dyn CheckpointRecorder, p)),
        };
        let mut engine = Engine::new(self, arrivals, plan, scheme, estimator, observers);
        engine.prof.exit(Phase::Setup);
        let result = match resume {
            Some(snap) => engine.resume_from(snap).and_then(|()| engine.run()),
            None => engine.run(),
        };
        prof.run_end();
        result
    }

    /// [`Self::execute`] over `trace` with faults, telemetry, decisions
    /// and the profiler attached. Kept only as a forward because the
    /// standalone `perfbench` harness calls it by this name and
    /// signature; new code builds a [`RunSpec`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::execute`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_faulted_traced_decisions_profiled(
        &self,
        trace: &Trace,
        plan: &FaultPlan,
        scheme: &mut dyn ServingScheme,
        estimator: &mut dyn LoadEstimator,
        sink: &mut dyn TelemetrySink,
        decisions: &mut dyn DecisionSink,
        prof: &mut Profiler,
    ) -> Result<SimulationReport, SimError> {
        let spec = RunSpec::trace(trace)
            .faults(plan)
            .telemetry(sink)
            .decisions(decisions)
            .profiler(prof);
        self.execute(spec, scheme, estimator)
    }

    /// Samples the run's Poisson arrivals: surges from `plan` scale the
    /// trace, then arrival times are drawn from the config's arrival
    /// seed. Deterministic — a resumed run re-derives the identical
    /// array.
    fn sampled_arrivals(&self, trace: &Trace, plan: &FaultPlan) -> Vec<f64> {
        let mut surged = trace.clone();
        for (from_s, to_s, factor) in plan.surges() {
            surged = surged.scaled_between(from_s, to_s, factor);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.arrival_seed);
        sample_poisson_arrivals(&surged, &mut rng)
    }

    /// Rejects forced actions no worker in the pool could execute, and
    /// branch points before the run's first decision.
    fn validate_forced(&self, forced: &ForcedDecision, k_offset: u64) -> Result<(), SimError> {
        if let Selection::Serve { model, .. } = forced.action {
            let n_models = self
                .profiles
                .iter()
                .map(|p| p.n_models())
                .min()
                .unwrap_or(0);
            if model >= n_models {
                return Err(SimError::InvalidConfig(format!(
                    "counterfactual: forced model {model} is out of range \
                     (every worker serves {n_models} models)"
                )));
            }
        }
        if forced.k < k_offset {
            return Err(SimError::InvalidConfig(format!(
                "counterfactual: forced decision k={} precedes the snapshot (k_offset={}); \
                 branch from an earlier checkpoint",
                forced.k, k_offset
            )));
        }
        Ok(())
    }
}

/// The observers a run attaches, handed to [`Engine::new`] in one piece.
struct Observers<'r> {
    tracer: Tracer<'r>,
    dec: DecisionTracer<'r>,
    prof: &'r mut Profiler,
    recorder: Option<(&'r mut dyn CheckpointRecorder, CheckpointPolicy)>,
}

/// The pending-event heap and its tie-breaking sequence counter.
struct Schedule {
    heap: EventHeap,
    seq: u64,
}

impl Schedule {
    /// Schedules `kind` at `at`; the sequence number keeps same-time
    /// events in push order.
    #[inline]
    fn push(&mut self, prof: &mut Profiler, at: Nanos, kind: EventKind) {
        self.heap.push(Reverse((at, self.seq, kind)));
        self.seq += 1;
        prof.incr(HotCounter::HeapPushes);
    }
}

/// One run in progress: the queues, the cluster, the event heap, every
/// per-run runtime (resilience, autoscale, brownout, health), the
/// latency sampler, the metrics, and the attached observers. The run
/// loop pops an event and hands it to the method for its
/// [`EventKind`]; [`Engine::snapshot`] serializes exactly this state
/// and [`Engine::resume_from`] restores it.
struct Engine<'r> {
    sim: &'r Simulation<'r>,
    arrivals: &'r [f64],
    plan: &'r FaultPlan,
    /// The plan's timed membership actions; `EventKind::Fault` indexes
    /// into it.
    actions: Vec<(Nanos, FaultAction)>,
    scheme: &'r mut dyn ServingScheme,
    estimator: &'r mut dyn LoadEstimator,
    tracer: Tracer<'r>,
    dec: DecisionTracer<'r>,
    prof: &'r mut Profiler,
    recorder: Option<&'r mut dyn CheckpointRecorder>,
    routing: Routing,
    slo: Nanos,
    sampler: LatencySampler,
    metrics: MetricsCollector,
    /// Per-worker queues (per-worker routing) or one central queue.
    worker_queues: Vec<VecDeque<Query>>,
    central_queue: VecDeque<Query>,
    /// Queries with no live worker to go to (per-worker routing under
    /// a full outage); drained to the first worker that recovers.
    limbo: VecDeque<Query>,
    rr_next: usize,
    cluster: ClusterState,
    resil: ResilienceRuntime,
    events: Schedule,
    /// Autoscaler and brownout state; `None` when the subsystem is off,
    /// so the run takes exactly the fixed-pool paths.
    scale: Option<AutoscaleRuntime>,
    /// Failure detector and perceived view; `None` with health off, so
    /// the run takes exactly the oracle-membership paths.
    health: Option<HealthRuntime>,
    /// Whether the plan injects gray batch errors, and the seed of the
    /// stateless per-batch draw.
    has_batch_errors: bool,
    err_seed: u64,
    horizon: Nanos,
    /// Heap events fully processed.
    events_done: u64,
    /// Checkpoint cadence: the event-count and sim-time periods (0 =
    /// off) and the next due points by time and by event count
    /// (`u64::MAX` = off).
    ckpt_every_events: u64,
    ckpt_period_ns: Nanos,
    next_ckpt_ns: Nanos,
    next_ckpt_events: u64,
    /// Fingerprint of `arrivals`, computed only for durable runs.
    arrivals_hash: u64,
}

impl<'r> Engine<'r> {
    /// Sets up a run from time zero: the first arrival, every fault
    /// action, and the first autoscale and health ticks are scheduled.
    fn new(
        sim: &'r Simulation<'r>,
        arrivals: &'r [f64],
        plan: &'r FaultPlan,
        scheme: &'r mut dyn ServingScheme,
        estimator: &'r mut dyn LoadEstimator,
        obs: Observers<'r>,
    ) -> Self {
        let config = &sim.config;
        scheme.set_audit(obs.tracer.on);
        // With autoscaling every per-worker structure is sized to the
        // pool ceiling; slots beyond the initial pool start Down.
        let n_workers = config
            .autoscale
            .map_or(config.workers, |a| a.max_workers.max(config.workers));
        let mut metrics = match config.timeline_window_s {
            Some(w) => MetricsCollector::new().with_timeline(w),
            None => MetricsCollector::new(),
        };
        if !plan.is_empty() {
            metrics = metrics.with_fault_windows(plan.fault_windows());
        }
        let (ckpt_every_events, ckpt_period_ns) = obs.recorder.as_ref().map_or((0, 0), |(_, p)| {
            let period_ns = if p.every_sim_s > 0.0 {
                nanos_from_secs(p.every_sim_s).max(1)
            } else {
                0
            };
            (p.every_events, period_ns)
        });
        let recorder = obs.recorder.map(|(r, _)| r);
        let mut engine = Engine {
            sim,
            arrivals,
            plan,
            actions: expand_fault_actions(plan),
            routing: scheme.routing(),
            scheme,
            estimator,
            tracer: obs.tracer,
            dec: obs.dec,
            prof: obs.prof,
            arrivals_hash: if recorder.is_some() {
                arrivals_fingerprint(arrivals)
            } else {
                0
            },
            recorder,
            slo: nanos_from_secs(config.slo_s),
            sampler: LatencySampler::new(config.latency, config.latency_seed),
            metrics,
            worker_queues: vec![VecDeque::new(); n_workers],
            central_queue: VecDeque::new(),
            limbo: VecDeque::new(),
            rr_next: 0,
            cluster: ClusterState::elastic(n_workers, config.workers),
            resil: ResilienceRuntime::new(config.resilience, n_workers),
            events: Schedule {
                heap: BinaryHeap::new(),
                seq: 0,
            },
            scale: None,
            health: None,
            // Gray batch-error faults are plan physics, not detector
            // behavior: they fire with health on or off. The draw is
            // stateless — keyed on (seed, worker, dispatch time) — so a
            // resumed run replays every outcome exactly.
            has_batch_errors: plan
                .events
                .iter()
                .any(|e| matches!(e, FaultEvent::WorkerErrorRate { .. })),
            err_seed: splitmix64(config.arrival_seed ^ 0xE44A_575D_11CE_A57E),
            horizon: 0,
            events_done: 0,
            ckpt_every_events,
            ckpt_period_ns,
            next_ckpt_ns: ckpt_period_ns,
            // Event-count cadence as a precomputed target rather than a
            // per-event modulo: one u64 compare on the hot path.
            next_ckpt_events: if ckpt_every_events > 0 {
                ckpt_every_events
            } else {
                u64::MAX
            },
        };
        for i in 0..engine.actions.len() {
            let t = engine.actions[i].0;
            engine
                .events
                .push(engine.prof, t, EventKind::Fault(i as u32));
        }
        let Some(&last) = arrivals.last() else {
            return engine;
        };
        engine.events.push(
            engine.prof,
            nanos_from_secs(arrivals[0]),
            EventKind::Arrival(0),
        );
        let tick_end = nanos_from_secs(last);
        // The autoscaler's state and its first controller tick. Nothing
        // here runs without a policy, so the event stream and the report
        // stay byte-identical to the fixed-pool engine.
        if let Some(autoscale) = config.autoscale {
            let rt =
                AutoscaleRuntime::new(autoscale, engine.cluster.live, sim.profiles[0], tick_end);
            engine
                .events
                .push(engine.prof, rt.tick_ns, EventKind::ScaleTick);
            engine.scale = Some(rt);
        }
        // The failure detector and the perceived-membership view. As
        // with autoscaling, nothing here runs without a policy, so the
        // event stream and the report stay byte-identical to the
        // oracle-membership engine.
        if let Some(health) = config.health {
            let tick_ns = nanos_from_secs(health.probe_interval_s).max(1);
            let mut hs = HealthRuntime {
                monitor: HealthMonitor::new(health, n_workers, 0),
                view: vec![false; n_workers],
                perceived_live: 0,
                tick_ns,
                tick_end,
            };
            hs.rebuild_view(&engine.cluster);
            engine
                .events
                .push(engine.prof, tick_ns, EventKind::HealthTick);
            engine.health = Some(hs);
        }
        engine
    }

    /// Workers the run is sized for (the autoscale ceiling when on).
    fn n_workers(&self) -> usize {
        self.cluster.alive.len()
    }

    /// Replaces the fresh state with `snap`'s, after checking the
    /// snapshot belongs to this exact run.
    fn resume_from(&mut self, snap: &EngineSnapshot) -> Result<(), SimError> {
        self.arrivals_hash = arrivals_fingerprint(self.arrivals);
        // The snapshot's heap already holds everything still pending,
        // including the setup-time pushes (fault actions, the
        // in-progress arrival chain, the next scale tick) in their
        // mid-run form — rebuild from it wholesale.
        self.events.heap = self.check_snapshot(snap)?;
        self.events.seq = snap.next_seq;
        self.horizon = snap.horizon;
        self.events_done = snap.meta.events_done;
        self.tracer.emitted = snap.meta.events_emitted;
        // The smallest cadence multiple past the snapshot's event
        // count / time: exactly where the uninterrupted run's cadence
        // stands. `checked_div` is `None` only for a zero divisor,
        // i.e. that cadence dimension is off.
        let every_events = self.ckpt_every_events;
        if let Some(periods) = self.events_done.checked_div(every_events) {
            self.next_ckpt_events = (periods + 1) * every_events;
        }
        if let Some(periods) = snap.meta.sim_time_ns.checked_div(self.ckpt_period_ns) {
            self.next_ckpt_ns = (periods + 1) * self.ckpt_period_ns;
        }
        self.worker_queues = snap.worker_queues.clone();
        self.central_queue = snap.central_queue.clone();
        self.limbo = snap.limbo.clone();
        self.rr_next = snap.rr_next;
        self.cluster = snap.cluster.clone();
        self.resil.state = snap.resilience.clone();
        self.sampler
            .restore_rng(snap.latency_rng.0, snap.latency_rng.1);
        // Fault windows are re-derived from the plan rather than
        // trusted to the snapshot: an unrecovered crash's window ends at
        // +inf, which the JSON tree cannot carry (non-finite floats
        // serialize as null).
        self.metrics = snap
            .metrics
            .clone()
            .with_fault_windows(self.plan.fault_windows());
        if let (Some(rt), Some(s)) = (self.scale.as_mut(), &snap.autoscale) {
            rt.state = s.clone();
        }
        if let (Some(hs), Some(s)) = (self.health.as_mut(), &snap.health) {
            hs.monitor.restore(s)?;
            hs.rebuild_view(&self.cluster);
        }
        self.scheme
            .restore_state(&snap.scheme_state)
            .map_err(SimError::InvalidConfig)?;
        self.estimator
            .restore_state(&snap.estimator_state)
            .map_err(SimError::InvalidConfig)
    }

    /// Refuses to resume a snapshot that does not belong to this exact
    /// run: same config identity (pool, SLO, seeds), same scheme, same
    /// subsystems, and the same pre-sampled arrival array. A snapshot is
    /// read from a file, so every length and index it carries is checked
    /// here too, before the run uses any. Returns the decoded event
    /// heap.
    fn check_snapshot(&self, snap: &EngineSnapshot) -> Result<EventHeap, SimError> {
        let config = &self.sim.config;
        let scheme_name = self.scheme.name();
        let n = self.n_workers();
        let m = &snap.meta;
        let bad = |msg: String| Err(SimError::InvalidConfig(format!("cannot resume: {msg}")));
        if m.version != SNAPSHOT_VERSION {
            return bad(format!(
                "snapshot version {} != supported {SNAPSHOT_VERSION}",
                m.version
            ));
        }
        if m.workers != config.workers {
            return bad(format!(
                "snapshot has {} workers, config has {}",
                m.workers, config.workers
            ));
        }
        if m.slo_s != config.slo_s {
            return bad(format!(
                "snapshot SLO {}s != config SLO {}s",
                m.slo_s, config.slo_s
            ));
        }
        if m.arrival_seed != config.arrival_seed || m.latency_seed != config.latency_seed {
            return bad(format!(
                "snapshot seeds ({}, {}) != config seeds ({}, {})",
                m.arrival_seed, m.latency_seed, config.arrival_seed, config.latency_seed
            ));
        }
        if m.scheme != scheme_name {
            return bad(format!(
                "snapshot was taken under scheme `{}`, resuming with `{scheme_name}`",
                m.scheme
            ));
        }
        if m.arrivals_len != self.arrivals.len() || m.arrivals_hash != self.arrivals_hash {
            return bad(format!(
                "arrival stream mismatch ({} arrivals, hash {:#x}; snapshot says {}, {:#x}) — \
                 different trace, seed, or surge plan",
                self.arrivals.len(),
                self.arrivals_hash,
                m.arrivals_len,
                m.arrivals_hash
            ));
        }
        if self.scale.is_some() != snap.autoscale.is_some() {
            return Err(subsystem_mismatch("autoscale", self.scale.is_some()));
        }
        if self.health.is_some() != snap.health.is_some() {
            return Err(subsystem_mismatch("health", self.health.is_some()));
        }
        let c = &snap.cluster;
        let mut lengths = vec![
            ("cluster.busy", c.busy.len(), n),
            ("cluster.alive", c.alive.len(), n),
            ("cluster.slow", c.slow.len(), n),
            ("cluster.epochs", c.epochs.len(), n),
            ("cluster.in_flight", c.in_flight.len(), n),
            ("cluster.down_since", c.down_since.len(), n),
            ("cluster.lifecycle", c.lifecycle.len(), n),
            ("worker_queues", snap.worker_queues.len(), n),
            (
                "resilience.admission",
                snap.resilience.admission.len(),
                n + 1,
            ),
        ];
        if let Some(h) = &snap.health {
            lengths.push(("health.workers", h.workers.len(), n));
        }
        for (what, len, want) in lengths {
            if len != want {
                return bad(format!(
                    "{what} has {len} entries, this run has {n} workers"
                ));
            }
        }
        if c.live != c.alive.iter().filter(|a| **a).count() {
            return bad(format!(
                "cluster.live {} disagrees with cluster.alive",
                c.live
            ));
        }
        if snap.rr_next >= n {
            return bad(format!("rr_next {} is past {n} workers", snap.rr_next));
        }
        // A ChaCha block holds 16 words; 16 means the block is used up.
        if snap.latency_rng.1 > 16 {
            return bad(format!(
                "latency_rng word {} is past 16",
                snap.latency_rng.1
            ));
        }
        for (w, fl) in c.in_flight.iter().enumerate() {
            let Some(fl) = fl else { continue };
            if fl.model >= self.sim.profile_of(w).n_models() {
                return bad(format!("worker {w} runs unknown model {}", fl.model));
            }
            if fl.twin.is_some_and(|v| v >= n || c.in_flight[v].is_none()) {
                return bad(format!("worker {w}'s hedge twin is not in flight"));
            }
        }
        let mut heap = EventHeap::with_capacity(snap.heap.len());
        for e in &snap.heap {
            let kind = EventKind::decode(e.tag, e.a, e.b)?;
            let in_range = match kind {
                EventKind::Arrival(i) => i < self.arrivals.len() as u64,
                EventKind::Fault(i) => (i as usize) < self.actions.len(),
                EventKind::Retry(i) => (i as usize) < snap.resilience.retry_buf.len(),
                EventKind::WorkerDone(w, _)
                | EventKind::Timeout(w, _)
                | EventKind::HedgeDue(w, _)
                | EventKind::WarmupDone(w, _) => w < n,
                EventKind::ScaleTick | EventKind::HealthTick => true,
            };
            if !in_range {
                return bad(format!("heap entry {e:?} indexes past this run"));
            }
            heap.push(Reverse((e.t, e.seq, kind)));
        }
        Ok(heap)
    }

    /// Captures the complete mid-run state as an [`EngineSnapshot`].
    /// Pure observation: nothing the run later touches is mutated.
    /// Events pop in time order, so the horizon is the current time.
    fn snapshot(&self) -> EngineSnapshot {
        let config = &self.sim.config;
        // Heap iteration order is arbitrary; entries are sorted by
        // `(t, seq)` so equal states serialize to equal bytes.
        let mut heap: Vec<HeapEntry> = self
            .events
            .heap
            .iter()
            .map(|Reverse((t, s, k))| {
                let (tag, a, b) = k.encode();
                HeapEntry {
                    t: *t,
                    seq: *s,
                    tag,
                    a,
                    b,
                }
            })
            .collect();
        heap.sort_unstable_by_key(|e| (e.t, e.seq));
        EngineSnapshot {
            meta: SnapshotMeta {
                version: SNAPSHOT_VERSION,
                workers: config.workers,
                slo_s: config.slo_s,
                arrival_seed: config.arrival_seed,
                latency_seed: config.latency_seed,
                scheme: self.scheme.name().to_owned(),
                events_done: self.events_done,
                sim_time_ns: self.horizon,
                events_emitted: self.tracer.emitted,
                arrivals_len: self.arrivals.len(),
                arrivals_hash: self.arrivals_hash,
            },
            heap,
            next_seq: self.events.seq,
            horizon: self.horizon,
            worker_queues: self.worker_queues.clone(),
            central_queue: self.central_queue.clone(),
            limbo: self.limbo.clone(),
            rr_next: self.rr_next,
            cluster: self.cluster.clone(),
            resilience: self.resil.state.clone(),
            metrics: self.metrics.clone(),
            latency_rng: self.sampler.rng_state(),
            autoscale: self.scale.as_ref().map(|rt| rt.state.clone()),
            health: self.health.as_ref().map(|h| h.monitor.snapshot()),
            scheme_state: self
                .scheme
                .checkpoint_state()
                .expect("scheme support validated at run start"),
            estimator_state: self
                .estimator
                .checkpoint_state()
                .expect("estimator support validated at run start"),
        }
    }

    /// The run loop: pops events in `(time, sequence)` order and hands
    /// each to the method for its kind, checkpointing at the cadence.
    fn run(mut self) -> Result<SimulationReport, SimError> {
        while let Some(Reverse((now, _, kind))) = self.events.heap.pop() {
            self.prof.incr(HotCounter::HeapPops);
            self.prof
                .gauge(GaugeId::HeapDepth, self.events.heap.len() as u64 + 1);
            self.horizon = self.horizon.max(now);
            self.dec.event = self.events_done;
            let phase = kind.phase();
            self.prof.enter(phase);
            match kind {
                EventKind::Arrival(i) => self.on_arrival(now, i),
                EventKind::WorkerDone(w, epoch) => self.on_worker_done(now, w, epoch),
                EventKind::Fault(i) => self.on_fault(now, i),
                EventKind::Timeout(w, epoch) => self.on_timeout(now, w, epoch),
                EventKind::HedgeDue(w, epoch) => self.on_hedge_due(now, w, epoch),
                EventKind::Retry(i) => self.on_retry(now, i),
                EventKind::ScaleTick => self.on_scale_tick(now),
                EventKind::WarmupDone(w, epoch) => self.on_warmup_done(now, w, epoch),
                EventKind::HealthTick => self.on_health_tick(now),
            }
            self.prof.exit(phase);
            self.events_done += 1;
            if self.recorder.is_some() && !self.checkpoint_if_due(now) {
                // Simulated kill (or a failed checkpoint write): stop on
                // the spot, mid-heap, exactly as a crash would.
                return Err(SimError::Interrupted {
                    events_done: self.events_done,
                });
            }
        }
        self.finish()
    }

    /// Hands a snapshot to the recorder when a cadence point is due.
    /// Returns `false` when the recorder stops the run.
    fn checkpoint_if_due(&mut self, now: Nanos) -> bool {
        let due_events = self.events_done == self.next_ckpt_events;
        let due_time = self.ckpt_period_ns > 0 && now >= self.next_ckpt_ns;
        if !(due_events || due_time) {
            return true;
        }
        if due_events {
            self.next_ckpt_events += self.ckpt_every_events;
        }
        while self.ckpt_period_ns > 0 && self.next_ckpt_ns <= now {
            self.next_ckpt_ns += self.ckpt_period_ns;
        }
        self.prof.enter(Phase::Checkpoint);
        // A checkpoint attests that `events_emitted` trace records are
        // durable; with a buffered sink that is only true after a flush.
        self.tracer.sink.flush();
        let snap = self.snapshot();
        let keep_going = self
            .recorder
            .as_deref_mut()
            .is_some_and(|rec| rec.record(&snap));
        self.prof.exit(Phase::Checkpoint);
        keep_going
    }

    /// Closes the books once the heap is empty and builds the report.
    fn finish(mut self) -> Result<SimulationReport, SimError> {
        // A counterfactual replay that never reached its branch point
        // would silently reproduce the factual run; fail loudly instead.
        if let Some(f) = self.dec.forced {
            if !self.dec.forced_applied {
                return Err(SimError::InvalidConfig(format!(
                    "counterfactual: forced decision k={} was never applied \
                     (run made {} decisions; only selection-site decisions can be forced)",
                    f.k, self.dec.k
                )));
            }
        }
        let horizon = self.horizon;
        // Workers still dead at the end of the run accrue downtime up
        // to the horizon.
        for start in self.cluster.down_since.iter().flatten() {
            self.metrics
                .record_downtime_s(secs_from_nanos(horizon.saturating_sub(*start)));
        }
        self.tracer.sink.flush();

        self.prof.enter(Phase::Report);
        let regime_breakdown = self.metrics.regime_breakdown();
        // Utilization stays relative to the *configured* pool: with
        // autoscaling the true cost denominator is the live-worker
        // integral reported in `autoscale.worker_seconds`.
        let mut report = self.metrics.report(
            self.scheme.name().to_owned(),
            self.arrivals.len() as u64,
            horizon,
            self.sim.config.workers,
        );
        if let Some(mut stats) = self.scheme.adaptive_stats() {
            stats.per_regime = regime_breakdown;
            report.adaptive = Some(stats);
        }
        if let Some(rt) = self.scale.take() {
            report.autoscale = Some(rt.finalize(horizon));
        }
        if let Some(mut hs) = self.health.take() {
            report.health = Some(hs.monitor.finalize(horizon));
        }
        self.prof.exit(Phase::Report);
        Ok(report)
    }

    /// A fresh arrival: record it, schedule the next one, route it.
    fn on_arrival(&mut self, now: Nanos, i: u64) {
        let idx = i as usize;
        let t = nanos_from_secs(self.arrivals[idx]);
        let q = Query::new(i, t, self.slo);
        self.tracer.emit(|| Event::Arrival {
            at: now,
            query: i,
            deadline: q.deadline,
        });
        self.estimator.record_arrival(secs_from_nanos(t));
        self.scheme.on_arrival(secs_from_nanos(t));
        self.tracer.drain_scheme(self.scheme);
        if let Some(&next) = self.arrivals.get(idx + 1) {
            self.events
                .push(self.prof, nanos_from_secs(next), EventKind::Arrival(i + 1));
        }
        self.prof.enter(Phase::Route);
        self.route_query(q, now);
        self.prof.exit(Phase::Route);
    }

    /// A backed-off query re-enters routing.
    fn on_retry(&mut self, now: Nanos, idx: u32) {
        let q = self.resil.state.retry_buf[idx as usize];
        self.prof.enter(Phase::Route);
        self.route_query(q, now);
        self.prof.exit(Phase::Route);
    }

    /// Worker `w`'s dispatch ended in a reply: a gray batch error, or a
    /// completion (cancelling a hedge twin first-wins).
    fn on_worker_done(&mut self, now: Nanos, w: usize, epoch: u64) {
        if epoch != self.cluster.epochs[w] {
            // The dispatch already ended (crash, timeout, or hedge
            // cancel) after this completion was scheduled.
            self.prof.incr(HotCounter::StaleEvents);
            return;
        }
        let fl = self.cluster.in_flight[w]
            .take()
            .expect("completion implies in-flight work");
        self.cluster.epochs[w] += 1;
        if self.batch_errored(now, w, &fl) {
            self.on_batch_error(now, w, fl);
            return;
        }
        // First-wins: cancel the losing side of a hedged pair before
        // accounting the completion.
        let cancelled_twin = fl.twin.inspect(|&v| {
            let loser = self.cluster.in_flight[v]
                .take()
                .expect("hedge twin implies in-flight work");
            self.cluster.epochs[v] += 1;
            self.cluster.busy[v] = false;
            self.prof.incr(HotCounter::HedgesCancelled);
            self.metrics.record_hedge_cancelled(loser.started, now);
            if fl.is_hedge {
                self.metrics.record_hedge_win();
            }
            self.tracer.emit(|| Event::HedgeCancelled {
                at: now,
                worker: v as u32,
                winner: w as u32,
            });
        });
        self.metrics.note_regime(self.scheme.regime());
        if let Some(d) = self.estimator.divergence(secs_from_nanos(now)) {
            self.metrics.record_divergence(d);
        }
        let profile = self.sim.profile_of(w);
        self.metrics
            .record_batch(profile, fl.model, &fl.queries, fl.started, now);
        if self.tracer.on {
            for q in &fl.queries {
                self.tracer.emit(|| Event::Complete {
                    at: now,
                    query: q.id,
                    worker: w as u32,
                    model: fl.model as u32,
                    response_ns: now.saturating_sub(q.arrival),
                    violated: now > q.deadline,
                });
            }
        }
        self.cluster.busy[w] = false;
        // Feed the detector: a completion is a liveness ack and an
        // outlier-ejection sample against the profile's
        // slow-factor-free expectation (so a gray slowdown reads as an
        // outlier).
        if !fl.is_hedge && cancelled_twin.is_none() {
            let down_since = self.cluster.down_since[w];
            let info = self.health.as_mut().and_then(|hs| {
                let expected_ns = nanos_from_secs(
                    profile.latency_extrapolated(fl.model, fl.queries.len() as u32),
                );
                hs.monitor.observe_completion(
                    w,
                    now,
                    now.saturating_sub(fl.started),
                    expected_ns,
                    down_since,
                )
            });
            if let Some(info) = info {
                self.suspect(now, w, info);
                self.kick_idle_workers(now);
            }
        }
        if self.cluster.lifecycle[w] == WorkerState::Draining {
            // The drain's last in-flight batch just finished; the
            // worker leaves the pool.
            self.finish_drain(now, w);
        } else if !self.suspected(w) {
            self.dispatch(now, w);
        }
        // The freed loser picks up queued work too — or finishes its
        // drain if it was on the way out.
        if let Some(v) = cancelled_twin {
            if self.cluster.lifecycle[v] == WorkerState::Draining {
                self.finish_drain(now, v);
            } else if self.cluster.alive[v]
                && !self.cluster.busy[v]
                && !self.suspected(v)
                && self.has_queued(v)
            {
                self.dispatch(now, v);
            }
        }
    }

    /// Gray batch-error injection (plan physics, on with or without the
    /// detector): whether `fl`'s reply is a retriable failure. Hedged
    /// pairs are exempt: the twin owns the outcome.
    fn batch_errored(&self, now: Nanos, w: usize, fl: &InFlightState) -> bool {
        if !self.has_batch_errors || fl.twin.is_some() || fl.is_hedge {
            return false;
        }
        let rate = self.plan.error_rate_at(w, secs_from_nanos(now));
        let draw =
            splitmix64(self.err_seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ fl.started);
        rate > 0.0 && ((draw >> 11) as f64 / (1u64 << 53) as f64) < rate
    }

    /// An errored reply: nothing completes, the batch goes back to a
    /// queue head, and the attempt's time is lost as extra wait.
    fn on_batch_error(&mut self, now: Nanos, w: usize, fl: InFlightState) {
        self.cluster.busy[w] = false;
        if self.tracer.on {
            for q in &fl.queries {
                self.tracer.emit(|| Event::CrashRequeue {
                    at: now,
                    query: q.id,
                    from: w as u32,
                });
            }
        }
        self.metrics.record_crash_requeued(fl.queries.len() as u64);
        // An error reply is an ack with bad news: the detector hears it
        // and strikes toward ejection.
        let down_since = self.cluster.down_since[w];
        let info = self
            .health
            .as_mut()
            .and_then(|hs| hs.monitor.observe_error(w, now, down_since));
        if let Some(info) = info {
            self.suspect(now, w, info);
        }
        let draining = self.cluster.lifecycle[w] == WorkerState::Draining;
        if draining {
            // The drain's last batch errored; the worker still leaves
            // the pool, its batch retries elsewhere.
            self.finish_drain(now, w);
        }
        if self.routing == Routing::Central {
            push_front_all(&mut self.central_queue, fl.queries, now);
        } else if !draining && !self.suspected(w) {
            push_front_all(&mut self.worker_queues[w], fl.queries, now);
        } else {
            // The errored worker is leaving (or ejected): its batch
            // retries on the effective survivors.
            self.spread(fl.queries, now);
        }
        self.kick_idle_workers(now);
    }

    /// Worker `w`'s dispatch ran out of its granted time: a hedge side
    /// is just cancelled, a primary's queries retry or are shed.
    fn on_timeout(&mut self, now: Nanos, w: usize, epoch: u64) {
        if epoch != self.cluster.epochs[w] {
            self.prof.incr(HotCounter::StaleEvents);
            return; // dispatch already ended
        }
        let fl = self.cluster.in_flight[w]
            .take()
            .expect("timeout implies in-flight work");
        self.cluster.epochs[w] += 1;
        self.cluster.busy[w] = false;
        if let Some(v) = fl.twin {
            // One side of a hedged pair timing out is just a
            // cancellation; the twin keeps the queries.
            if let Some(tw) = self.cluster.in_flight[v].as_mut() {
                tw.twin = None;
            }
            self.prof.incr(HotCounter::HedgesCancelled);
            self.metrics.record_hedge_cancelled(fl.started, now);
            self.tracer.emit(|| Event::HedgeCancelled {
                at: now,
                worker: w as u32,
                winner: v as u32,
            });
        } else {
            self.prof.incr(HotCounter::TimeoutsFired);
            self.metrics.record_timeout(&fl.queries, fl.started, now);
            for q in fl.queries {
                self.retry_or_shed(now, w, q);
            }
        }
        // The freed worker picks up queued work — or finishes its drain
        // if it was on the way out.
        if self.cluster.lifecycle[w] == WorkerState::Draining {
            self.finish_drain(now, w);
        } else if !self.suspected(w) {
            self.dispatch(now, w);
        }
    }

    /// A timed-out query's next attempt: backed off and re-routed while
    /// the retry policy and budget allow, shed otherwise.
    fn retry_or_shed(&mut self, now: Nanos, w: usize, mut q: Query) {
        let rpol = self.resil.policy.retry;
        q.attempt += 1;
        let attempt = q.attempt;
        self.tracer.emit(|| Event::Timeout {
            at: now,
            query: q.id,
            worker: w as u32,
            attempt,
        });
        let exhausted = attempt > rpol.max_retries;
        if !exhausted && self.resil.state.budget.try_take(secs_from_nanos(now)) {
            self.prof.incr(HotCounter::RetriesScheduled);
            self.metrics.record_retry();
            let delay_ns = nanos_from_secs(backoff_delay_s(&rpol, attempt, q.id));
            self.tracer.emit(|| Event::Retry {
                at: now,
                query: q.id,
                attempt,
                delay_ns,
            });
            let chosen = ChosenAction::Retry { attempt, delay_ns };
            self.decide(now, Some(q.id), w, chosen, ReasonCode::Retry);
            let idx = self.resil.state.retry_buf.len() as u32;
            self.resil.state.retry_buf.push(q);
            self.events
                .push(self.prof, now + delay_ns, EventKind::Retry(idx));
            return;
        }
        self.prof.incr(HotCounter::RetriesAbandoned);
        self.tracer.emit(|| Event::Shed {
            at: now,
            query: q.id,
            cause: ShedCause::RetryExhausted,
        });
        let chosen = ChosenAction::Shed { count: 1 };
        self.decide(now, Some(q.id), w, chosen, ReasonCode::Shed);
        // A shed with retries left was denied by the budget.
        self.metrics
            .record_retry_dropped(&[q], u64::from(!exhausted));
    }

    /// Worker `w`'s dispatch passed the hedge quantile: duplicate it to
    /// an idle worker that can run the model, if one exists (better to
    /// keep waiting than to queue a duplicate).
    fn on_hedge_due(&mut self, now: Nanos, w: usize, epoch: u64) {
        if epoch != self.cluster.epochs[w] {
            self.prof.incr(HotCounter::StaleEvents);
            return; // dispatch already ended
        }
        let (model, queries) = match self.cluster.in_flight[w].as_ref() {
            Some(fl) if fl.twin.is_none() && !fl.is_hedge => (fl.model, fl.queries.clone()),
            _ => return,
        };
        let target = (0..self.n_workers()).find(|&v| {
            v != w
                && self.cluster.alive[v]
                && !self.cluster.busy[v]
                && !self.suspected(v)
                && model < self.sim.profile_of(v).n_models()
        });
        let Some(v) = target else { return };
        let batch = queries.len() as u32;
        let first_query = queries.first().map(|q| q.id);
        let service =
            self.sampler.sample(self.sim.profile_of(v), model, batch) * self.cluster.slow[v];
        let service_ns = nanos_from_secs(service);
        self.resil.state.service_hist.record(service_ns);
        self.cluster.busy[v] = true;
        self.cluster.in_flight[v] = Some(InFlightState {
            model,
            queries,
            started: now,
            twin: Some(w),
            is_hedge: true,
        });
        if let Some(fl) = self.cluster.in_flight[w].as_mut() {
            fl.twin = Some(v);
        }
        // The hedge side gets a plain completion: no nested timeout or
        // hedge-of-a-hedge.
        let done = EventKind::WorkerDone(v, self.cluster.epochs[v]);
        self.events.push(self.prof, now + service_ns, done);
        self.prof.incr(HotCounter::HedgesIssued);
        self.metrics.record_hedge_issued();
        self.tracer.emit(|| Event::HedgeIssued {
            at: now,
            primary: w as u32,
            hedge: v as u32,
            model: model as u32,
            batch,
        });
        let chosen = ChosenAction::Hedge {
            model: model as u32,
            batch,
            target: v as u32,
        };
        self.decide(now, first_query, w, chosen, ReasonCode::Hedge);
    }

    /// A timed membership action from the fault plan.
    fn on_fault(&mut self, now: Nanos, idx: u32) {
        match self.actions[idx as usize].1 {
            FaultAction::Crash(w) => self.crash(now, w),
            FaultAction::Recover(w) => self.recover(now, w),
            FaultAction::SlowStart(w, factor) => self.cluster.slow[w] = factor,
            FaultAction::SlowEnd(w) => self.cluster.slow[w] = 1.0,
        }
    }

    /// Worker `w` crashes: its in-flight batch (and, with oracle
    /// membership, its queue) is displaced per the plan's crash policy.
    fn crash(&mut self, now: Nanos, w: usize) {
        if !self.cluster.alive[w] {
            return; // double crash: no-op
        }
        let cluster = &mut self.cluster;
        cluster.alive[w] = false;
        cluster.epochs[w] += 1;
        cluster.down_since[w] = Some(now);
        cluster.live -= 1;
        cluster.lifecycle[w] = WorkerState::Down;
        if let Some(rt) = self.scale.as_mut() {
            rt.account_live(now, self.cluster.live);
        }
        let mut displaced: Vec<Query> = Vec::new();
        if let Some(fl) = self.cluster.in_flight[w].take() {
            self.cluster.busy[w] = false;
            if let Some(v) = fl.twin {
                // The crashed side of a hedged pair is a cancellation,
                // not a loss: the twin keeps the queries.
                if let Some(tw) = self.cluster.in_flight[v].as_mut() {
                    tw.twin = None;
                }
                self.prof.incr(HotCounter::HedgesCancelled);
                self.metrics.record_hedge_cancelled(fl.started, now);
                self.tracer.emit(|| Event::HedgeCancelled {
                    at: now,
                    worker: w as u32,
                    winner: v as u32,
                });
            } else {
                displaced.extend(fl.queries);
            }
        }
        let crash_policy = self.plan.crash_policy;
        if self.health.is_some() {
            // Perceived health: the router learns nothing here — the
            // worker stays in view until the detector suspects it, and
            // its work waits where it is (that wait IS the detection
            // lag). Under `Drop` the machine's on-board work is
            // physically lost, exactly as with oracle membership.
            match crash_policy {
                CrashPolicy::Drop => {
                    displaced.extend(self.worker_queues[w].drain(..));
                    self.drop_crashed(now, &displaced);
                }
                // The interrupted batch is retriable: it waits at the
                // dead worker's queue head (a stuck buffer under
                // central routing) until suspicion or recovery
                // releases it.
                CrashPolicy::RequeueToSurvivors => {
                    push_front_all(&mut self.worker_queues[w], displaced, now);
                }
            }
            return;
        }
        displaced.extend(self.worker_queues[w].drain(..));
        self.scheme.on_membership_change(self.cluster.live);
        match crash_policy {
            CrashPolicy::Drop => self.drop_crashed(now, &displaced),
            CrashPolicy::RequeueToSurvivors => {
                if self.tracer.on {
                    for q in &displaced {
                        self.tracer.emit(|| Event::CrashRequeue {
                            at: now,
                            query: q.id,
                            from: w as u32,
                        });
                    }
                }
                self.metrics.record_crash_requeued(displaced.len() as u64);
                if self.routing == Routing::Central {
                    push_front_all(&mut self.central_queue, displaced, now);
                } else {
                    self.spread(displaced, now);
                }
            }
        }
        self.kick_idle_workers(now);
    }

    /// Accounts queries physically lost with a crashed worker.
    fn drop_crashed(&mut self, now: Nanos, lost: &[Query]) {
        if self.tracer.on {
            for q in lost {
                self.tracer.emit(|| Event::Drop {
                    at: now,
                    query: q.id,
                });
            }
        }
        self.metrics.record_crash_dropped(lost);
    }

    /// Worker `w` recovers from a crash; stranded work flows back.
    fn recover(&mut self, now: Nanos, w: usize) {
        // Recovery only undoes a crash: it must not revive a warming,
        // draining, or scaled-down slot (those have no crash timestamp).
        if self.cluster.alive[w] || (self.scale.is_some() && self.cluster.down_since[w].is_none()) {
            return; // recovery without crash: no-op
        }
        self.cluster.alive[w] = true;
        self.cluster.live += 1;
        self.cluster.lifecycle[w] = WorkerState::Live;
        if let Some(rt) = self.scale.as_mut() {
            rt.account_live(now, self.cluster.live);
        }
        if let Some(start) = self.cluster.down_since[w].take() {
            self.metrics
                .record_downtime_s(secs_from_nanos(now.saturating_sub(start)));
        }
        if let Some(hs) = self.health.as_mut() {
            // A recover before suspicion is as invisible as the crash
            // was: no membership change, crash-stuck central work flows
            // back, and the worker serves again. A suspected worker
            // stays ejected until its probes close the breaker.
            hs.rebuild_view(&self.cluster);
            if !hs.monitor.suspected(w) {
                if self.routing == Routing::Central && !self.worker_queues[w].is_empty() {
                    let stuck: Vec<Query> = self.worker_queues[w].drain(..).collect();
                    push_front_all(&mut self.central_queue, stuck, now);
                }
                self.drain_limbo_to(now, w);
                self.kick_idle_workers(now);
            }
            return;
        }
        self.scheme.on_membership_change(self.cluster.live);
        // Stranded queries join the recovered worker's queue in arrival
        // order.
        self.drain_limbo_to(now, w);
        self.kick_idle_workers(now);
    }

    /// Autoscaler controller tick: resize the pool toward the
    /// controller's target and step the brownout ladder.
    fn on_scale_tick(&mut self, now: Nanos) {
        // Taken out for the tick so the pool can change around it.
        let Some(mut rt) = self.scale.take() else {
            return;
        };
        rt.state.stats.ticks += 1;
        // Ticks reschedule themselves while arrivals remain, then stop
        // so the run terminates.
        let next = now + rt.tick_ns;
        if next <= rt.tick_end {
            self.events.push(self.prof, next, EventKind::ScaleTick);
        }
        let now_s = secs_from_nanos(now);
        let load = self.estimator.estimate(now_s);
        let sig = ScaleSignal {
            now_s,
            load_qps: load,
            trend_qps_per_s: self.estimator.trend_qps_per_s(now_s).unwrap_or(0.0),
            // With the detector on, the autoscaler sees the perceived
            // pool: suspected workers are missing capacity, undetected
            // crashes still look live.
            live: self.perceived_live(),
            warming: self.cluster.warming(),
            draining: self.cluster.draining(),
            queued: self.central_queue.len()
                + self.worker_queues.iter().map(VecDeque::len).sum::<usize>(),
        };
        let desired = rt.state.controller.desired_workers(&sig);
        let current = sig.live + sig.warming;
        let mut handed_off_work = false;
        if desired > current {
            self.scale_up(now, &mut rt, desired - current);
        } else if desired < current {
            handed_off_work = self.scale_down(now, &mut rt, current - desired);
        }
        // Feed the brownout ladder: the load estimate against the live
        // pool's capacity target.
        let capacity_qps =
            self.perceived_live() as f64 * rt.state.controller.policy().target_qps_per_worker;
        if let Some(transition) = rt.state.ladder.observe(load, capacity_qps) {
            match transition {
                BrownoutTransition::Enter { rung } => {
                    rt.state.stats.brownout_enters += 1;
                    rt.state.stats.max_brownout_rung = rt.state.stats.max_brownout_rung.max(rung);
                    if rung == 1 {
                        rt.state.brownout_since = Some(now);
                    }
                    self.tracer.emit(|| Event::BrownoutEnter {
                        at: now,
                        rung,
                        load_qps: load,
                        capacity_qps,
                    });
                }
                BrownoutTransition::Exit { rung } => {
                    rt.state.stats.brownout_exits += 1;
                    if rung == 1 {
                        if let Some(start) = rt.state.brownout_since.take() {
                            rt.state.stats.brownout_time_s +=
                                secs_from_nanos(now.saturating_sub(start));
                        }
                    }
                    self.tracer.emit(|| Event::BrownoutExit {
                        at: now,
                        rung,
                        load_qps: load,
                        capacity_qps,
                    });
                }
            }
        }
        rt.state.brown_rung = rt.state.ladder.rung();
        self.scale = Some(rt);
        if handed_off_work {
            self.kick_idle_workers(now);
        }
    }

    /// Starts warming up to `need` scaled-down slots.
    fn scale_up(&mut self, now: Nanos, rt: &mut AutoscaleRuntime, mut need: usize) {
        let warmup_ns = nanos_from_secs(rt.state.controller.policy().warmup_s);
        for w in 0..self.n_workers() {
            if need == 0 {
                break;
            }
            // Crash-downed slots belong to the fault plan (they come
            // back via Recover), so scale-up skips them.
            if self.cluster.lifecycle[w] != WorkerState::Down
                || self.cluster.down_since[w].is_some()
            {
                continue;
            }
            self.cluster.lifecycle[w] = WorkerState::Warming;
            rt.state.stats.scale_ups += 1;
            let live = self.cluster.live;
            self.tracer.emit(|| Event::ScaleUp {
                at: now,
                worker: w as u32,
                live: live as u32,
            });
            let warm = EventKind::WarmupDone(w, self.cluster.epochs[w]);
            self.events.push(self.prof, now + warmup_ns, warm);
            need -= 1;
        }
    }

    /// Removes `need` workers: cancelled warm-ups first, then drains of
    /// Live workers. Returns whether queued work was handed off.
    fn scale_down(&mut self, now: Nanos, rt: &mut AutoscaleRuntime, mut need: usize) -> bool {
        // Cancelling a warm-up frees capacity that never went Live.
        for w in (0..self.n_workers()).rev() {
            if need == 0 {
                break;
            }
            if self.cluster.lifecycle[w] != WorkerState::Warming {
                continue;
            }
            self.cluster.lifecycle[w] = WorkerState::Down;
            self.cluster.epochs[w] += 1; // strands the WarmupDone
            rt.state.stats.scale_downs += 1;
            let live = self.cluster.live;
            self.tracer.emit(|| Event::ScaleDown {
                at: now,
                worker: w as u32,
                live: live as u32,
                handoffs: 0,
            });
            need -= 1;
        }
        // Then drain Live workers: queued work hands off to survivors
        // now, the in-flight batch runs to completion.
        let mut handed_off_work = false;
        for w in (0..self.n_workers()).rev() {
            if need == 0 {
                break;
            }
            if self.cluster.lifecycle[w] != WorkerState::Live {
                continue;
            }
            self.cluster.lifecycle[w] = WorkerState::Draining;
            self.cluster.alive[w] = false;
            self.cluster.live -= 1;
            // A commanded drain is visible to the router immediately —
            // no detection needed for planned exits.
            if let Some(hs) = self.health.as_mut() {
                if hs.view[w] {
                    hs.view[w] = false;
                    hs.perceived_live -= 1;
                }
            }
            rt.account_live(now, self.cluster.live);
            rt.state.stats.scale_downs += 1;
            let handed: Vec<Query> = self.worker_queues[w].drain(..).collect();
            rt.state.stats.drain_handoffs += handed.len() as u64;
            let live = self.cluster.live;
            let handoffs = handed.len() as u32;
            self.tracer.emit(|| Event::ScaleDown {
                at: now,
                worker: w as u32,
                live: live as u32,
                handoffs,
            });
            if !handed.is_empty() {
                // With no routable worker left (only warming capacity),
                // stranded queries drain to the first worker that goes
                // Live.
                self.spread(handed, now);
                handed_off_work = true;
            }
            self.scheme.on_membership_change(self.perceived_live());
            if !self.cluster.busy[w] {
                // Nothing in flight: the drain completes on the spot.
                self.cluster.lifecycle[w] = WorkerState::Down;
                rt.state.stats.drains_completed += 1;
                self.tracer.emit(|| Event::DrainComplete {
                    at: now,
                    worker: w as u32,
                });
            }
            need -= 1;
        }
        handed_off_work
    }

    /// A warming worker's warm-up elapsed: it joins the pool.
    fn on_warmup_done(&mut self, now: Nanos, w: usize, epoch: u64) {
        if epoch != self.cluster.epochs[w] || self.cluster.lifecycle[w] != WorkerState::Warming {
            // Cancelled by a scale-in or a crash.
            self.prof.incr(HotCounter::StaleEvents);
            return;
        }
        self.cluster.lifecycle[w] = WorkerState::Live;
        self.cluster.alive[w] = true;
        self.cluster.live += 1;
        if let Some(rt) = self.scale.as_mut() {
            rt.state.stats.warmups_completed += 1;
            rt.account_live(now, self.cluster.live);
        }
        let live = self.cluster.live;
        self.tracer.emit(|| Event::WorkerWarm {
            at: now,
            worker: w as u32,
            live: live as u32,
        });
        if let Some(hs) = self.health.as_mut() {
            hs.rebuild_view(&self.cluster);
        }
        self.scheme.on_membership_change(self.perceived_live());
        // Stranded queries (a scale-in or crash during a full outage)
        // drain to the first worker to go Live, mirroring recovery.
        self.drain_limbo_to(now, w);
        self.kick_idle_workers(now);
    }

    /// Health-probe tick: heartbeat every probed worker and feed the
    /// failure detector.
    fn on_health_tick(&mut self, now: Nanos) {
        let Some(hs) = self.health.as_ref() else {
            return;
        };
        let next = now + hs.tick_ns;
        if next <= hs.tick_end {
            self.events.push(self.prof, next, EventKind::HealthTick);
        }
        let now_s = secs_from_nanos(now);
        let mut moved = false;
        for w in 0..self.n_workers() {
            let hs = self
                .health
                .as_mut()
                .expect("health ticks run with the detector on");
            // Probe the perceived fleet plus anyone the monitor still
            // tracks: live workers, crashed-but-undetected workers (the
            // whole point), and suspected workers awaiting a half-open
            // trial. Commanded-down slots are not probed — the control
            // plane knows.
            let probed = self.cluster.alive[w]
                || self.cluster.down_since[w].is_some()
                || hs.monitor.suspected(w);
            if !probed {
                continue;
            }
            // A probe is answered iff the worker is physically up and
            // its heartbeat path is not partitioned. Gray failures live
            // here: a partitioned-but-serving worker looks dead to
            // probes while completing batches.
            let responsive = self.cluster.alive[w] && !self.plan.partitioned(w, now_s);
            let worker = w as u32;
            self.tracer.emit(|| Event::ProbeSent { at: now, worker });
            let outcome = hs
                .monitor
                .probe(w, now, responsive, self.cluster.down_since[w]);
            if outcome.half_opened {
                self.tracer
                    .emit(|| Event::BreakerHalfOpen { at: now, worker });
            }
            match outcome.step {
                ProbeStep::Ok | ProbeStep::TrialProgress => {}
                ProbeStep::Failed => {
                    self.tracer.emit(|| Event::ProbeFailed { at: now, worker });
                }
                ProbeStep::ReOpened => {
                    self.tracer.emit(|| Event::ProbeFailed { at: now, worker });
                    self.tracer.emit(|| Event::BreakerOpen { at: now, worker });
                }
                ProbeStep::Suspected(info) => {
                    self.tracer.emit(|| Event::ProbeFailed { at: now, worker });
                    self.suspect(now, w, info);
                    moved = true;
                }
                ProbeStep::Reinstated { suspected_ns } => {
                    self.tracer.emit(|| Event::BreakerClose { at: now, worker });
                    self.tracer.emit(|| Event::Reinstate {
                        at: now,
                        worker,
                        suspected_ns,
                    });
                    self.reinstate(now, w);
                    moved = true;
                }
            }
        }
        if moved {
            self.kick_idle_workers(now);
        }
    }

    /// The detector just suspected `w`: report it, eject the worker
    /// from the perceived view and displace its queued work to
    /// perceived survivors, mirroring the oracle crash-requeue path. An
    /// in-flight batch (false suspicion) still runs to completion —
    /// suspicion is a routing decision, not a physical fact.
    fn suspect(&mut self, now: Nanos, w: usize, info: SuspectInfo) {
        let worker = w as u32;
        self.tracer.emit(|| Event::Suspect {
            at: now,
            worker,
            genuine: info.genuine,
            lag_ns: info.lag_ns,
        });
        self.tracer.emit(|| Event::BreakerOpen { at: now, worker });
        let hs = self
            .health
            .as_mut()
            .expect("suspicion implies the detector");
        if hs.view[w] {
            hs.view[w] = false;
            hs.perceived_live -= 1;
        }
        let displaced: Vec<Query> = self.worker_queues[w].drain(..).collect();
        if !displaced.is_empty() {
            hs.monitor.state.stats.requeued_on_suspect += displaced.len() as u64;
            if self.tracer.on {
                for q in &displaced {
                    self.tracer.emit(|| Event::CrashRequeue {
                        at: now,
                        query: q.id,
                        from: worker,
                    });
                }
            }
            self.metrics.record_crash_requeued(displaced.len() as u64);
            if self.routing == Routing::Central {
                push_front_all(&mut self.central_queue, displaced, now);
            } else {
                self.spread(displaced, now);
            }
        }
        self.scheme.on_membership_change(self.perceived_live());
    }

    /// Returns a worker whose breaker just closed to the perceived view
    /// and drains any limbo work to it (per-worker routing only). The
    /// close was probe-gated, so the worker is physically alive here.
    fn reinstate(&mut self, now: Nanos, w: usize) {
        let hs = self
            .health
            .as_mut()
            .expect("reinstatement implies the detector");
        hs.view[w] = !hs.monitor.suspected(w)
            && (self.cluster.alive[w] || self.cluster.down_since[w].is_some());
        hs.perceived_live = hs.view.iter().filter(|&&v| v).count();
        self.drain_limbo_to(now, w);
        self.scheme.on_membership_change(self.perceived_live());
    }

    /// Routes one query — a fresh arrival or a backed-off retry — to a
    /// queue per the scheme's routing discipline, consulting admission
    /// control before the enqueue and starting service if the chosen
    /// worker is idle. With no routable worker the query is stranded
    /// (see [`Self::strand`]).
    fn route_query(&mut self, mut q: Query, now: Nanos) {
        q.enqueued_at = now;
        let n_workers = self.n_workers();
        // With the detector on, routing selects from the *perceived*
        // membership: an undetected crash still receives work (it piles
        // up until suspicion displaces it), a suspected-but-healthy
        // worker is skipped. Physical service start below still gates
        // on ground-truth `alive` — the simulator never runs a batch on
        // a dead machine.
        let sel: &[bool] = match &self.health {
            Some(h) => &h.view,
            None => &self.cluster.alive,
        };
        // The admission slot: `w` for worker `w`'s queue, `n_workers`
        // for the central queue.
        let target = match self.routing {
            Routing::PerWorkerRoundRobin => next_live_rr(sel, &mut self.rr_next),
            Routing::PerWorkerShortestQueue => (0..n_workers)
                .filter(|&w| sel[w])
                .min_by_key(|&w| (self.worker_queues[w].len(), w)),
            Routing::Central => Some(n_workers),
        };
        let Some(slot) = target else {
            self.strand(q, now);
            return;
        };
        if !self.try_admit(&q, now, slot) {
            return;
        }
        let (queue, queue_id) = if slot == n_workers {
            (&mut self.central_queue, QueueId::Central)
        } else {
            (&mut self.worker_queues[slot], QueueId::Worker(slot as u32))
        };
        queue.push_back(q);
        let depth = queue.len() as u32;
        self.tracer.emit(|| Event::Enqueue {
            at: now,
            query: q.id,
            queue: queue_id,
            depth,
        });
        let idle = |w: usize| self.cluster.alive[w] && !self.cluster.busy[w];
        let server = if slot == n_workers {
            (0..n_workers).find(|&w| idle(w) && self.in_view(w))
        } else {
            Some(slot).filter(|&w| idle(w))
        };
        if let Some(w) = server {
            self.dispatch(now, w);
        }
    }

    /// Consults admission control before an enqueue into `slot`'s queue
    /// (see [`Self::route_query`]). `true` admits; on refusal the query
    /// is shed on the spot (event + counters) and must not be enqueued.
    /// Without an admission policy this is one branch and no state is
    /// touched.
    fn try_admit(&mut self, q: &Query, now: Nanos, slot: usize) -> bool {
        let (queue, queue_id) = if slot == self.n_workers() {
            (&self.central_queue, QueueId::Central)
        } else {
            (&self.worker_queues[slot], QueueId::Worker(slot as u32))
        };
        let depth = queue.len();
        let front = queue.front().map(|h| h.enqueued_at);
        let Some(policy) = &self.resil.policy.admission else {
            return true;
        };
        if self.resil.state.admission[slot]
            .offer(policy, now, depth, front)
            .is_none()
        {
            return true;
        }
        self.tracer.emit(|| Event::Admission {
            at: now,
            query: q.id,
            queue: queue_id,
            depth: depth as u32,
            sojourn_ns: CoDelAdmission::sojourn_ns(now, front),
        });
        self.metrics.record_admission_shed(std::slice::from_ref(q));
        false
    }

    /// Handles a query with no routable worker: stranded in limbo under
    /// `RequeueToSurvivors` (served after a recovery), dropped under
    /// `Drop`.
    fn strand(&mut self, q: Query, now: Nanos) {
        match self.plan.crash_policy {
            CrashPolicy::RequeueToSurvivors => {
                let depth = self.limbo.len() as u32 + 1;
                self.tracer.emit(|| Event::Enqueue {
                    at: now,
                    query: q.id,
                    queue: QueueId::Limbo,
                    depth,
                });
                self.limbo.push_back(q);
            }
            CrashPolicy::Drop => self.drop_crashed(now, &[q]),
        }
    }

    /// Hands displaced queries to the routable survivors round-robin,
    /// or to limbo when none is left.
    fn spread(&mut self, displaced: Vec<Query>, now: Nanos) {
        let (view, live) = match &self.health {
            Some(h) => (&h.view, h.perceived_live),
            None => (&self.cluster.alive, self.cluster.live),
        };
        if live == 0 {
            self.limbo.extend(displaced);
            return;
        }
        for mut q in displaced {
            q.enqueued_at = now;
            let t = next_live_rr(view, &mut self.rr_next).expect("routable worker checked");
            self.worker_queues[t].push_back(q);
        }
    }

    /// Moves stranded limbo queries, in arrival order, to worker `w`
    /// once it is routable again (per-worker routing only).
    fn drain_limbo_to(&mut self, now: Nanos, w: usize) {
        if self.limbo.is_empty() || self.routing == Routing::Central || !self.in_view(w) {
            return;
        }
        for mut q in self.limbo.drain(..) {
            q.enqueued_at = now;
            self.worker_queues[w].push_back(q);
        }
    }

    /// A draining worker's last batch ended: it leaves the pool.
    fn finish_drain(&mut self, now: Nanos, w: usize) {
        self.cluster.lifecycle[w] = WorkerState::Down;
        if let Some(rt) = self.scale.as_mut() {
            rt.state.stats.drains_completed += 1;
        }
        self.tracer.emit(|| Event::DrainComplete {
            at: now,
            worker: w as u32,
        });
    }

    /// Claims a decision index for a resilience mechanism (retry,
    /// shed, hedge) and records it when recording is on.
    fn decide(
        &mut self,
        now: Nanos,
        query: Option<u64>,
        w: usize,
        chosen: ChosenAction,
        reason: ReasonCode,
    ) {
        let k = self.dec.next();
        let scheme = &*self.scheme;
        self.dec.record(self.prof, |event| DecisionRecord {
            k,
            at: now,
            event,
            query,
            worker: w as u32,
            state: None,
            regime: scheme.regime().map(str::to_owned),
            candidates: Vec::new(),
            chosen,
            effective: None,
            reason,
        });
    }

    /// Whether the detector currently suspects `w` (never with health
    /// off).
    fn suspected(&self, w: usize) -> bool {
        self.health.as_ref().is_some_and(|h| h.monitor.suspected(w))
    }

    /// Whether the router sees `w` as a member: the perceived view with
    /// health on, ground-truth liveness otherwise.
    fn in_view(&self, w: usize) -> bool {
        match &self.health {
            Some(h) => h.view[w],
            None => self.cluster.alive[w],
        }
    }

    /// The pool size the router and the scheme see.
    fn perceived_live(&self) -> usize {
        self.health
            .as_ref()
            .map_or(self.cluster.live, |h| h.perceived_live)
    }

    /// Whether worker `w` has visible work (its queue, or the central
    /// queue).
    fn has_queued(&self, w: usize) -> bool {
        match self.routing {
            Routing::Central => !self.central_queue.is_empty(),
            _ => !self.worker_queues[w].is_empty(),
        }
    }

    /// After a membership change, gives every idle routable worker with
    /// visible work a chance to start serving.
    fn kick_idle_workers(&mut self, now: Nanos) {
        for w in 0..self.n_workers() {
            if self.cluster.alive[w]
                && !self.cluster.busy[w]
                && self.in_view(w)
                && self.has_queued(w)
            {
                self.dispatch(now, w);
            }
        }
    }

    /// Asks the scheme for decisions for worker `w` until it starts
    /// service, idles, or drains its visible queue (consecutive `Drop`
    /// selections shed instantly and re-ask, §4.3.1's drop
    /// reformulation).
    fn dispatch(&mut self, now: Nanos, w: usize) {
        debug_assert!(!self.cluster.busy[w], "dispatch on a busy worker");
        debug_assert!(self.cluster.alive[w], "dispatch on a dead worker");
        self.prof.enter(Phase::Dispatch);
        let profile = self.sim.profile_of(w);
        let live_workers = self.perceived_live();
        let queue = match self.routing {
            Routing::Central => &mut self.central_queue,
            _ => &mut self.worker_queues[w],
        };
        while let Some(earliest) = queue.front() {
            self.prof.incr(HotCounter::PolicyLookups);
            self.prof.gauge(GaugeId::QueueDepth, queue.len() as u64);
            let ctx = SelectionContext {
                now_s: secs_from_nanos(now),
                load_qps: self.estimator.estimate(secs_from_nanos(now)),
                queued: queue.len(),
                earliest_slack_s: earliest.slack_at(now),
                worker: w,
                live_workers,
            };
            let front_query = earliest.id;
            self.prof.enter(Phase::PolicySelect);
            let selection = self.scheme.select(&ctx);
            self.prof.exit(Phase::PolicySelect);
            self.tracer.drain_scheme(self.scheme);
            // Counterfactual branch point: the scheme is always asked
            // (so its internal state evolves identically), but a forced
            // alternative replaces its raw pick at exactly one decision
            // index. Batch / shed counts are clamped to the visible
            // queue so a replay under different queue depth stays valid.
            let k = self.dec.next();
            let visible = queue.len() as u32;
            let selection = match self.dec.force(k) {
                Some(Selection::Serve { model, batch }) => Selection::Serve {
                    model,
                    batch: batch.clamp(1, visible),
                },
                Some(Selection::Drop { count }) => Selection::Drop {
                    count: count.clamp(1, visible),
                },
                Some(Selection::Idle) => Selection::Idle,
                None => selection,
            };
            self.tracer.emit(|| Event::PolicyDecision {
                at: now,
                worker: w as u32,
                queued: visible,
                slack_ns: (ctx.earliest_slack_s * 1e9).round() as i64,
                action: match selection {
                    Selection::Serve { model, batch } => Action::Serve {
                        model: model as u32,
                        batch,
                    },
                    Selection::Drop { count } => Action::Drop { count },
                    Selection::Idle => Action::Idle,
                },
            });
            // Brownout: a model banned by the active rung degrades to
            // the slowest still-allowed one before the dispatch commits.
            // The PolicyDecision event above keeps the scheme's raw
            // choice; the Dispatch event below carries the degraded
            // model.
            let served_model = match selection {
                Selection::Serve { model, .. } => {
                    self.scale.as_mut().map_or(model, |rt| rt.remap(model))
                }
                // Only a Serve selection has a model to degrade.
                _ => 0,
            };
            if self.dec.on {
                let scheme = &*self.scheme;
                let lookup = || {
                    if scheme.last_select_was_fallback() {
                        ReasonCode::Fallback
                    } else {
                        ReasonCode::PolicyLookup
                    }
                };
                let visible_batch = visible.min(profile.max_batch());
                let (chosen, effective, reason, cand_batch) = match selection {
                    Selection::Idle => (ChosenAction::Idle, None, lookup(), visible_batch),
                    Selection::Drop { count } => (
                        ChosenAction::Shed { count },
                        None,
                        ReasonCode::Shed,
                        visible_batch,
                    ),
                    Selection::Serve { model, batch } => {
                        let chosen = ChosenAction::Serve {
                            model: model as u32,
                            batch,
                        };
                        if served_model == model {
                            (chosen, None, lookup(), batch)
                        } else {
                            let effective = ChosenAction::Serve {
                                model: served_model as u32,
                                batch,
                            };
                            (chosen, Some(effective), ReasonCode::DegradedRung, batch)
                        }
                    }
                };
                self.dec.record(self.prof, |event| DecisionRecord {
                    k,
                    at: now,
                    event,
                    query: Some(front_query),
                    worker: w as u32,
                    state: Some(decision_state(&ctx)),
                    regime: scheme.regime().map(str::to_owned),
                    candidates: decision_candidates(profile, &ctx, cand_batch),
                    chosen,
                    effective,
                    reason,
                });
            }
            match selection {
                Selection::Idle => break,
                Selection::Drop { count } => {
                    assert!(
                        count >= 1 && count <= visible,
                        "scheme shed {count} from a queue of {visible}"
                    );
                    let shed: Vec<Query> = queue.drain(..count as usize).collect();
                    if self.tracer.on {
                        let cause = self.scheme.shed_cause();
                        for q in &shed {
                            self.tracer.emit(|| Event::Shed {
                                at: now,
                                query: q.id,
                                cause,
                            });
                        }
                    }
                    self.metrics.record_dropped(&shed);
                    // Shedding takes no time; ask again for the rest.
                }
                Selection::Serve { batch, .. } => {
                    let model = served_model;
                    assert!(
                        batch >= 1 && batch <= visible,
                        "scheme chose batch {batch} from a queue of {visible}"
                    );
                    assert!(
                        model < profile.n_models(),
                        "scheme chose unknown model {model}"
                    );
                    self.tracer.emit(|| Event::Dispatch {
                        at: now,
                        worker: w as u32,
                        model: model as u32,
                        batch,
                        depth: visible,
                    });
                    self.prof.incr(HotCounter::Dispatches);
                    let queries: Vec<Query> = queue.drain(..batch as usize).collect();
                    self.start_service(now, w, model, queries);
                    break;
                }
            }
        }
        self.prof.exit(Phase::Dispatch);
    }

    /// Starts worker `w` on `queries` with `model`, scheduling the one
    /// end event the dispatch gets — its completion, or, when timeouts
    /// are on and the granted budget runs out first, a timeout — plus a
    /// hedge trigger when hedging is on.
    fn start_service(&mut self, now: Nanos, w: usize, model: usize, queries: Vec<Query>) {
        let batch = queries.len() as u32;
        let service =
            self.sampler.sample(self.sim.profile_of(w), model, batch) * self.cluster.slow[w];
        let service_ns = nanos_from_secs(service);
        self.cluster.busy[w] = true;
        let epoch = self.cluster.epochs[w];
        let mut end = (now + service_ns, EventKind::WorkerDone(w, epoch));
        let mut timeout_cut = Nanos::MAX;
        if let Some(tpol) = self.resil.policy.timeout {
            let slack = queries[0].deadline.saturating_sub(now);
            let t_ns = nanos_from_secs(tpol.min_timeout_s)
                .max((slack as f64 * tpol.slack_fraction) as Nanos);
            if t_ns < service_ns {
                timeout_cut = t_ns;
                end = (now + t_ns, EventKind::Timeout(w, epoch));
            }
        }
        self.events.push(self.prof, end.0, end.1);
        if let Some(hedge) = self.resil.policy.hedge {
            self.resil.state.service_hist.record(service_ns);
            if self.n_workers() > 1 {
                // Hedging past the dispatch's own end would be a no-op;
                // don't schedule it.
                if let Some(delay) = self.resil.hedge_delay_ns(&hedge) {
                    if delay < service_ns.min(timeout_cut) {
                        self.events
                            .push(self.prof, now + delay, EventKind::HedgeDue(w, epoch));
                    }
                }
            }
        }
        self.cluster.in_flight[w] = Some(InFlightState {
            model,
            queries,
            started: now,
            twin: None,
            is_hedge: false,
        });
    }
}

/// The error for a snapshot that disagrees with the config about
/// whether the `what` subsystem is on.
fn subsystem_mismatch(what: &str, config_enables: bool) -> SimError {
    let (snap, config) = if config_enables {
        ("lacks", "enables")
    } else {
        ("carries", "disables")
    };
    SimError::InvalidConfig(format!(
        "snapshot {snap} {what} state but the config {config} it"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{AdmissionPolicy, TimeoutPolicy};
    use crate::scheme::RamsisScheme;
    use ramsis_core::{Discretization, PolicyConfig, PolicySet};
    use ramsis_profiles::{ModelCatalog, ProfilerConfig};
    use ramsis_workload::{LoadMonitor, OracleMonitor, TraceKind};
    use std::time::Duration;

    fn profile() -> &'static WorkerProfile {
        use std::sync::OnceLock;
        static PROFILE: OnceLock<WorkerProfile> = OnceLock::new();
        PROFILE.get_or_init(|| {
            WorkerProfile::build(
                &ModelCatalog::torchvision_image(),
                Duration::from_millis(150),
                ProfilerConfig::default(),
            )
        })
    }

    fn ramsis_scheme(workers: usize, loads: &[f64]) -> RamsisScheme {
        let config = PolicyConfig::builder(Duration::from_millis(150))
            .workers(workers)
            .discretization(Discretization::fixed_length(10))
            .build();
        RamsisScheme::new(PolicySet::generate_poisson(profile(), loads, &config).unwrap())
    }

    /// A trivially simple central-queue scheme for engine tests: always
    /// the fastest model, always the full visible queue.
    struct GreedyFastest {
        model: usize,
    }

    impl ServingScheme for GreedyFastest {
        fn name(&self) -> &str {
            "greedy-fastest"
        }
        fn routing(&self) -> Routing {
            Routing::Central
        }
        fn select(&mut self, ctx: &SelectionContext) -> Selection {
            Selection::Serve {
                model: self.model,
                batch: ctx.queued as u32,
            }
        }
        fn checkpoint_state(&self) -> Option<serde::Value> {
            Some(serde::Value::Null)
        }
        fn restore_state(&mut self, _state: &serde::Value) -> Result<(), String> {
            Ok(())
        }
    }

    /// Like [`GreedyFastest`] but with per-worker round-robin routing.
    struct GreedyFastestRr {
        model: usize,
    }

    impl ServingScheme for GreedyFastestRr {
        fn name(&self) -> &str {
            "greedy-fastest-rr"
        }
        fn routing(&self) -> Routing {
            Routing::PerWorkerRoundRobin
        }
        fn select(&mut self, ctx: &SelectionContext) -> Selection {
            Selection::Serve {
                model: self.model,
                batch: ctx.queued as u32,
            }
        }
        fn checkpoint_state(&self) -> Option<serde::Value> {
            Some(serde::Value::Null)
        }
        fn restore_state(&mut self, _state: &serde::Value) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn conservation_every_arrival_is_served_once() {
        let trace = Trace::constant(300.0, 5.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15)).unwrap();
        let mut scheme = GreedyFastest {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        assert!(report.total_arrivals > 1_000);
        assert_eq!(report.served, report.total_arrivals);
        let per_model_total: u64 = report.per_model.iter().map(|&(_, c)| c).sum();
        assert_eq!(per_model_total, report.served);
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = Trace::constant(200.0, 3.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15).seeded(9)).unwrap();
        let mut m1 = LoadMonitor::new();
        let mut m2 = LoadMonitor::new();
        let r1 = sim.run(
            &trace,
            &mut GreedyFastest {
                model: profile().fastest_model(),
            },
            &mut m1,
        );
        let r2 = sim.run(
            &trace,
            &mut GreedyFastest {
                model: profile().fastest_model(),
            },
            &mut m2,
        );
        assert_eq!(r1, r2);
    }

    #[test]
    fn runs_are_deterministic_under_faults() {
        // Same seeds + same non-trivial fault plan must reproduce the
        // report byte-for-byte, including its serialized form.
        let trace = Trace::constant(200.0, 8.0);
        let plan = FaultPlan::none()
            .crash(0, 1.0)
            .recover(0, 4.0)
            .crash(2, 2.0)
            .recover(2, 6.0)
            .slowdown(1, 2.0, 5.0, 2.5)
            .surge(3.0, 6.0, 2.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15).seeded(9)).unwrap();
        let run = || {
            let mut scheme = GreedyFastestRr {
                model: profile().fastest_model(),
            };
            let mut monitor = LoadMonitor::new();
            sim.execute(
                RunSpec::trace(&trace).faults(&plan),
                &mut scheme,
                &mut monitor,
            )
            .unwrap()
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1, r2);
        assert_eq!(
            serde_json::to_string(&r1).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
        // The plan actually bit: downtime accrued and work moved.
        assert!(r1.faults.downtime_s > 0.0);
        assert!(r1.faults.served_in_fault > 0);
    }

    #[test]
    fn empty_fault_plan_matches_fault_free_run() {
        let trace = Trace::constant(250.0, 4.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15).seeded(5)).unwrap();
        let mut m1 = LoadMonitor::new();
        let mut m2 = LoadMonitor::new();
        let baseline = sim.run(
            &trace,
            &mut GreedyFastest {
                model: profile().fastest_model(),
            },
            &mut m1,
        );
        let with_empty_plan = sim
            .execute(
                RunSpec::trace(&trace),
                &mut GreedyFastest {
                    model: profile().fastest_model(),
                },
                &mut m2,
            )
            .unwrap();
        assert_eq!(baseline, with_empty_plan);
    }

    #[test]
    fn crash_requeue_preserves_conservation() {
        // One of four workers dies mid-run and recovers; with requeue
        // every arrival is still served exactly once.
        let trace = Trace::constant(200.0, 6.0);
        let plan = FaultPlan::none().crash(1, 1.5).recover(1, 4.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15).seeded(3)).unwrap();
        let mut scheme = GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let report = sim
            .execute(
                RunSpec::trace(&trace).faults(&plan),
                &mut scheme,
                &mut monitor,
            )
            .unwrap();
        assert_eq!(report.served, report.total_arrivals);
        assert_eq!(report.dropped, 0);
        assert!(report.faults.crash_requeued > 0);
        assert!((report.faults.downtime_s - 2.5).abs() < 0.01);
    }

    #[test]
    fn crash_drop_policy_loses_displaced_queries() {
        let trace = Trace::constant(200.0, 6.0);
        let plan = FaultPlan::none()
            .with_crash_policy(CrashPolicy::Drop)
            .crash(1, 1.5)
            .recover(1, 4.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15).seeded(3)).unwrap();
        let mut scheme = GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let report = sim
            .execute(
                RunSpec::trace(&trace).faults(&plan),
                &mut scheme,
                &mut monitor,
            )
            .unwrap();
        assert!(report.faults.crash_dropped > 0);
        assert_eq!(report.dropped, report.faults.crash_dropped);
        assert_eq!(report.served + report.dropped, report.total_arrivals);
    }

    #[test]
    fn slowdown_window_degrades_latency() {
        let trace = Trace::constant(150.0, 6.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15).seeded(8)).unwrap();
        let run = |plan: &FaultPlan| {
            let mut scheme = GreedyFastest {
                model: profile().fastest_model(),
            };
            let mut monitor = LoadMonitor::new();
            sim.execute(
                RunSpec::trace(&trace).faults(plan),
                &mut scheme,
                &mut monitor,
            )
            .unwrap()
        };
        let nominal = run(&FaultPlan::none());
        let slowed = run(&FaultPlan::none()
            .slowdown(0, 1.0, 5.0, 4.0)
            .slowdown(1, 1.0, 5.0, 4.0));
        assert!(
            slowed.mean_response_s > nominal.mean_response_s,
            "slowdown must hurt: {} vs {}",
            slowed.mean_response_s,
            nominal.mean_response_s
        );
    }

    #[test]
    fn surge_increases_offered_load() {
        let trace = Trace::constant(100.0, 10.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15).seeded(4)).unwrap();
        let run = |plan: &FaultPlan| {
            let mut scheme = GreedyFastest {
                model: profile().fastest_model(),
            };
            let mut monitor = LoadMonitor::new();
            sim.execute(
                RunSpec::trace(&trace).faults(plan),
                &mut scheme,
                &mut monitor,
            )
            .unwrap()
        };
        let nominal = run(&FaultPlan::none());
        let surged = run(&FaultPlan::none().surge(2.0, 8.0, 3.0));
        // 3x load over 6 of 10 seconds: expected arrivals go from
        // ~1,000 to ~2,200.
        assert!(
            surged.total_arrivals as f64 > nominal.total_arrivals as f64 * 1.8,
            "{} vs {}",
            surged.total_arrivals,
            nominal.total_arrivals
        );
    }

    #[test]
    fn full_outage_strands_then_recovers() {
        // Both workers die; with requeue the stranded queries are
        // served after recovery, conserving every arrival.
        let trace = Trace::constant(50.0, 4.0);
        let plan = FaultPlan::none()
            .crash(0, 1.0)
            .crash(1, 1.0)
            .recover(0, 2.0)
            .recover(1, 2.5);
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15).seeded(6)).unwrap();
        let mut scheme = GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let report = sim
            .execute(
                RunSpec::trace(&trace).faults(&plan),
                &mut scheme,
                &mut monitor,
            )
            .unwrap();
        assert_eq!(report.served, report.total_arrivals);
        assert!(report.faults.downtime_s > 2.0);
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let trace = Trace::constant(50.0, 1.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15)).unwrap();
        let mut scheme = GreedyFastest { model: 0 };
        let mut monitor = LoadMonitor::new();
        let plan = FaultPlan::none().crash(7, 1.0);
        assert!(sim
            .execute(
                RunSpec::trace(&trace).faults(&plan),
                &mut scheme,
                &mut monitor
            )
            .is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SimulationConfig::new(0, 0.15).validate().is_err());
        assert!(SimulationConfig::new(4, 0.0).validate().is_err());
        assert!(SimulationConfig::new(4, -1.0).validate().is_err());
        assert!(SimulationConfig::new(4, f64::NAN).validate().is_err());
        assert!(SimulationConfig::new(4, 0.15).validate().is_ok());
        assert!(Simulation::new(profile(), SimulationConfig::new(0, 0.15)).is_err());
        assert!(Simulation::new(profile(), SimulationConfig::new(4, -0.5)).is_err());
    }

    #[test]
    fn underload_has_no_violations_with_fast_model() {
        // 40 QPS across 4 workers, fastest model: utilization ~20%.
        let trace = Trace::constant(40.0, 10.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15)).unwrap();
        let mut scheme = GreedyFastest {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        assert_eq!(
            report.violations, 0,
            "violation_rate={}",
            report.violation_rate
        );
        assert!(report.mean_response_s < 0.15);
    }

    #[test]
    fn overload_with_slow_model_violates() {
        // The most accurate model cannot sustain 400 QPS on 4 workers.
        let trace = Trace::constant(400.0, 5.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15)).unwrap();
        let slow = *profile().pareto_models().last().unwrap();
        let mut scheme = GreedyFastest { model: slow };
        let mut monitor = LoadMonitor::new();
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        assert!(
            report.violation_rate > 0.5,
            "violation_rate={}",
            report.violation_rate
        );
        // Response times blow far past the SLO under queue buildup.
        assert!(report.p99_response_s > 0.15);
    }

    #[test]
    fn response_time_at_least_service_time() {
        let trace = Trace::constant(100.0, 5.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15)).unwrap();
        let mut scheme = GreedyFastest {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        let batch1 = profile().latency(profile().fastest_model(), 1).unwrap();
        assert!(report.mean_response_s >= batch1 * 0.9);
    }

    #[test]
    fn ramsis_end_to_end_low_load_beats_fastest_model_accuracy() {
        // At light load the RAMSIS policy should select models more
        // accurate than the fastest one, without violating.
        let trace = Trace::constant(80.0, 10.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15)).unwrap();
        let mut scheme = ramsis_scheme(4, &[100.0, 400.0]);
        let mut monitor = OracleMonitor::new(trace.clone());
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        let fast_acc = profile().accuracy(profile().fastest_model());
        assert!(
            report.accuracy_per_satisfied_query > fast_acc + 5.0,
            "accuracy {}",
            report.accuracy_per_satisfied_query
        );
        assert!(
            report.violation_rate < 0.05,
            "violation_rate={}",
            report.violation_rate
        );
    }

    #[test]
    fn ramsis_guarantee_brackets_simulation() {
        // §5.1/§7.3.1: expected accuracy lower-bounds and expected
        // violation upper-bounds the deterministic simulation.
        let load = 120.0;
        let trace = Trace::constant(load, 20.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15)).unwrap();
        let config = PolicyConfig::builder(Duration::from_millis(150))
            .workers(4)
            .discretization(Discretization::fixed_length(10))
            .build();
        let set = PolicySet::generate_poisson(profile(), &[load], &config).unwrap();
        let g = *set.policies()[0].guarantees();
        let mut scheme = RamsisScheme::new(set);
        let mut monitor = OracleMonitor::new(trace.clone());
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        assert!(
            report.accuracy_per_satisfied_query >= g.expected_accuracy - 1.0,
            "observed {} vs expected {}",
            report.accuracy_per_satisfied_query,
            g.expected_accuracy
        );
        assert!(
            report.violation_rate <= g.expected_violation_rate + 0.02,
            "observed {} vs expected {}",
            report.violation_rate,
            g.expected_violation_rate
        );
    }

    #[test]
    fn stochastic_latency_at_least_as_good_as_deterministic() {
        // §7.3.1: the implementation (stochastic) achieves equal or
        // better accuracy than the simulation (deterministic p95)
        // because real invocations usually finish before their p95.
        let trace = Trace::constant(150.0, 15.0);
        let det = Simulation::new(profile(), SimulationConfig::new(4, 0.15)).unwrap();
        let sto = Simulation::new(profile(), SimulationConfig::new(4, 0.15).stochastic()).unwrap();
        let mut sd = ramsis_scheme(4, &[150.0]);
        let mut ss = ramsis_scheme(4, &[150.0]);
        let mut m1 = OracleMonitor::new(trace.clone());
        let mut m2 = OracleMonitor::new(trace.clone());
        let r_det = det.run(&trace, &mut sd, &mut m1);
        let r_sto = sto.run(&trace, &mut ss, &mut m2);
        assert!(
            r_sto.accuracy_per_satisfied_query >= r_det.accuracy_per_satisfied_query - 0.3,
            "stochastic {} vs deterministic {}",
            r_sto.accuracy_per_satisfied_query,
            r_det.accuracy_per_satisfied_query
        );
    }

    #[test]
    fn shortest_queue_routing_balances() {
        // 120 QPS over 4 workers is ~50% of the fastest model's
        // capacity — satisfiable under either balancer.
        let trace = Trace::from_interval_qps(&[120.0], 10.0, TraceKind::Custom);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15)).unwrap();
        let config = PolicyConfig::builder(Duration::from_millis(150))
            .workers(4)
            .balancing(ramsis_core::Balancing::ShortestQueueFirst)
            .discretization(Discretization::fixed_length(10))
            .build();
        let set = PolicySet::generate_poisson(profile(), &[120.0], &config).unwrap();
        let mut scheme = RamsisScheme::with_shortest_queue(set);
        let mut monitor = OracleMonitor::new(trace.clone());
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        assert_eq!(report.served, report.total_arrivals);
        assert!(
            report.violation_rate < 0.10,
            "violation={}",
            report.violation_rate
        );
    }

    #[test]
    fn stochastic_seeds_differ_deterministic_seeds_do_not() {
        let trace = Trace::constant(150.0, 3.0);
        let run = |config: SimulationConfig| {
            let sim = Simulation::new(profile(), config).unwrap();
            let mut scheme = GreedyFastest {
                model: profile().fastest_model(),
            };
            let mut monitor = LoadMonitor::new();
            sim.run(&trace, &mut scheme, &mut monitor)
        };
        // Different latency seeds change stochastic outcomes...
        let a = run(SimulationConfig::new(2, 0.15).stochastic().seeded(1));
        let mut cfg_b = SimulationConfig::new(2, 0.15).stochastic().seeded(1);
        cfg_b.latency_seed = 999;
        let b = run(cfg_b);
        assert_ne!(a.mean_response_s, b.mean_response_s);
        // ...but not deterministic ones.
        let c = run(SimulationConfig::new(2, 0.15).seeded(1));
        let mut cfg_d = SimulationConfig::new(2, 0.15).seeded(1);
        cfg_d.latency_seed = 999;
        let d = run(cfg_d);
        assert_eq!(c, d);
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15)).unwrap();
        let mut scheme = GreedyFastest { model: 0 };
        let mut monitor = LoadMonitor::new();
        let report = sim
            .execute(RunSpec::arrivals(&[]), &mut scheme, &mut monitor)
            .unwrap();
        assert_eq!(report.total_arrivals, 0);
        assert_eq!(report.served, 0);
    }

    #[test]
    fn default_resilience_emits_no_resilience_events() {
        let trace = Trace::constant(150.0, 3.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15).seeded(7)).unwrap();
        let mut scheme = GreedyFastest {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let mut sink = ramsis_telemetry::VecSink::new();
        let report = sim
            .execute(
                RunSpec::trace(&trace).telemetry(&mut sink),
                &mut scheme,
                &mut monitor,
            )
            .unwrap();
        assert_eq!(
            report.resilience,
            crate::metrics::ResilienceStats::default()
        );
        assert!(sink.events().iter().all(|e| !matches!(
            e,
            Event::Timeout { .. }
                | Event::Retry { .. }
                | Event::HedgeIssued { .. }
                | Event::HedgeCancelled { .. }
                | Event::Admission { .. }
        )));
    }

    #[test]
    fn timeouts_and_retries_rescue_straggling_dispatches() {
        // Worker 0 runs 20x slow for the whole run; timeouts cut its
        // straggling dispatches short and retries re-route the queries.
        let trace = Trace::constant(60.0, 4.0);
        let mut resilience = ResiliencePolicy {
            timeout: Some(TimeoutPolicy::default()),
            ..ResiliencePolicy::default()
        };
        resilience.retry.max_retries = 3;
        resilience.retry.budget_rate_per_s = 1000.0;
        resilience.retry.budget_burst = 1000.0;
        let config = SimulationConfig::new(2, 0.15)
            .seeded(11)
            .with_resilience(resilience);
        let sim = Simulation::new(profile(), config).unwrap();
        let plan = FaultPlan::none().slowdown(0, 0.0, 4.0, 20.0);
        let mut scheme = GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let report = sim
            .execute(
                RunSpec::trace(&trace).faults(&plan),
                &mut scheme,
                &mut monitor,
            )
            .unwrap();
        assert!(report.resilience.timeouts > 0);
        assert!(report.resilience.retries > 0);
        assert_eq!(report.served + report.dropped, report.total_arrivals);
    }

    #[test]
    fn admission_bounds_queue_and_sheds_on_enqueue() {
        let trace = Trace::constant(400.0, 3.0);
        let resilience = ResiliencePolicy {
            admission: Some(AdmissionPolicy {
                queue_cap: 8,
                ..AdmissionPolicy::default()
            }),
            ..ResiliencePolicy::default()
        };
        let config = SimulationConfig::new(1, 0.15)
            .seeded(3)
            .with_resilience(resilience);
        let sim = Simulation::new(profile(), config).unwrap();
        let slow = *profile().pareto_models().last().unwrap();
        let mut scheme = GreedyFastest { model: slow };
        let mut monitor = LoadMonitor::new();
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        assert!(report.resilience.admission_shed > 0);
        assert_eq!(report.dropped, report.resilience.admission_shed);
        assert_eq!(report.served + report.dropped, report.total_arrivals);
    }

    #[test]
    fn hedging_duplicates_stragglers_and_counts_once() {
        let trace = Trace::constant(50.0, 10.0);
        let resilience = ResiliencePolicy {
            hedge: Some(HedgePolicy {
                min_samples: 16,
                quantile: 90.0,
                ..HedgePolicy::default()
            }),
            ..ResiliencePolicy::default()
        };
        let config = SimulationConfig::new(4, 0.15)
            .stochastic()
            .seeded(21)
            .with_resilience(resilience);
        let sim = Simulation::new(profile(), config).unwrap();
        let mut scheme = GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        let res = report.resilience;
        assert!(res.hedges_issued > 0, "no hedges fired: {res:?}");
        assert!(res.hedges_cancelled <= res.hedges_issued);
        assert!(res.hedge_wins <= res.hedges_cancelled);
        // First-wins accounting: every query still served exactly once.
        assert_eq!(report.served, report.total_arrivals);
    }

    #[test]
    fn resilient_runs_are_deterministic() {
        // Everything on at once, stochastic latency, faults: same seeds
        // must still reproduce the report byte-for-byte.
        let trace = Trace::constant(150.0, 5.0);
        let plan = FaultPlan::none()
            .crash(1, 1.0)
            .recover(1, 2.5)
            .slowdown(0, 0.5, 4.0, 6.0)
            .surge(2.0, 4.0, 2.0);
        let config = SimulationConfig::new(3, 0.15)
            .stochastic()
            .seeded(17)
            .with_resilience(ResiliencePolicy::all_on());
        let sim = Simulation::new(profile(), config).unwrap();
        let run = || {
            let mut scheme = GreedyFastestRr {
                model: profile().fastest_model(),
            };
            let mut monitor = LoadMonitor::new();
            sim.execute(
                RunSpec::trace(&trace).faults(&plan),
                &mut scheme,
                &mut monitor,
            )
            .unwrap()
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1, r2);
        assert_eq!(
            serde_json::to_string(&r1).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    #[test]
    fn resilience_validation_is_wired_into_config() {
        let mut resilience = ResiliencePolicy::all_on();
        resilience.timeout = Some(TimeoutPolicy {
            min_timeout_s: f64::NAN,
            ..TimeoutPolicy::default()
        });
        let config = SimulationConfig::new(2, 0.15).with_resilience(resilience);
        assert!(config.validate().is_err());
        assert!(Simulation::new(profile(), config).is_err());
        assert!(SimulationConfig::new(2, 0.15)
            .with_resilience(ResiliencePolicy::all_on())
            .validate()
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn oversized_batch_is_rejected() {
        struct Bad;
        impl ServingScheme for Bad {
            fn name(&self) -> &str {
                "bad"
            }
            fn routing(&self) -> Routing {
                Routing::Central
            }
            fn select(&mut self, ctx: &SelectionContext) -> Selection {
                Selection::Serve {
                    model: 0,
                    batch: ctx.queued as u32 + 5,
                }
            }
        }
        let sim = Simulation::new(profile(), SimulationConfig::new(1, 0.15)).unwrap();
        let mut monitor = LoadMonitor::new();
        let _ = sim
            .execute(RunSpec::arrivals(&[0.0]), &mut Bad, &mut monitor)
            .unwrap();
    }

    // ---- elastic capacity -------------------------------------------

    /// Runs `config` traced with a greedy round-robin scheme and
    /// returns the report plus the full event stream.
    fn run_elastic(trace: &Trace, config: SimulationConfig) -> (SimulationReport, Vec<Event>) {
        let sim = Simulation::new(profile(), config).unwrap();
        let mut scheme = GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let mut sink = ramsis_telemetry::VecSink::new();
        let report = sim
            .execute(
                RunSpec::trace(trace).telemetry(&mut sink),
                &mut scheme,
                &mut monitor,
            )
            .unwrap();
        (report, sink.into_events())
    }

    #[test]
    fn autoscale_grows_the_pool_to_serve_a_surge() {
        // 150 QPS against one initial worker (~50 QPS capacity at the
        // fastest model): the controller must warm extra workers and
        // end up serving everything a fixed single-worker pool cannot.
        let trace = Trace::constant(150.0, 8.0);
        let mut policy = AutoscalePolicy::elastic(1, 6, 40.0);
        policy.warmup_s = 0.5;
        let (fixed, _) = run_elastic(&trace, SimulationConfig::new(1, 0.15).seeded(3));
        let (elastic, events) = run_elastic(
            &trace,
            SimulationConfig::new(1, 0.15)
                .seeded(3)
                .with_autoscale(policy),
        );
        let stats = elastic.autoscale.expect("enabled run reports stats");
        assert!(stats.scale_ups > 0, "{stats:?}");
        assert!(stats.warmups_completed > 0, "{stats:?}");
        assert!(stats.max_live_workers >= 3, "{stats:?}");
        assert_eq!(elastic.served, elastic.total_arrivals);
        assert!(
            elastic.violation_rate < fixed.violation_rate,
            "elastic {} vs fixed {}",
            elastic.violation_rate,
            fixed.violation_rate
        );
        assert!(events.iter().any(|e| matches!(e, Event::ScaleUp { .. })));
        assert!(events.iter().any(|e| matches!(e, Event::WorkerWarm { .. })));
    }

    #[test]
    fn scale_in_drains_without_losing_work() {
        // Load collapses from 200 to 20 QPS halfway: the controller
        // drains surplus workers, every drained queue is handed off,
        // and conservation still holds query-for-query.
        let trace = Trace::from_interval_qps(&[200.0, 20.0], 5.0, TraceKind::Custom);
        let policy = AutoscalePolicy::elastic(1, 6, 50.0);
        let (report, events) = run_elastic(
            &trace,
            SimulationConfig::new(5, 0.15)
                .seeded(4)
                .with_autoscale(policy),
        );
        let stats = report.autoscale.expect("enabled run reports stats");
        assert!(stats.scale_downs > 0, "{stats:?}");
        assert!(stats.drains_completed > 0, "{stats:?}");
        assert!(stats.min_live_workers < 5, "{stats:?}");
        assert_eq!(report.served, report.total_arrivals);
        let c = ramsis_telemetry::conservation(&events);
        assert!(c.holds(), "{c:?}");
        assert_eq!(c.anomalies, 0);
        // Every ScaleDown is eventually matched by a DrainComplete.
        let downs = events
            .iter()
            .filter(|e| matches!(e, Event::ScaleDown { .. }))
            .count();
        let drains = events
            .iter()
            .filter(|e| matches!(e, Event::DrainComplete { .. }))
            .count();
        assert_eq!(downs, drains, "every drain must finish");
        // Elasticity pays: strictly fewer worker-seconds than the
        // fixed five-worker pool over the same horizon.
        assert!(
            stats.worker_seconds < 5.0 * report.horizon_s,
            "{} vs {}",
            stats.worker_seconds,
            5.0 * report.horizon_s
        );
    }

    #[test]
    fn brownout_engages_under_sustained_overload_and_exits_after() {
        // The pool is pinned at two workers (min == max) while load
        // runs far past capacity, then collapses: the ladder must
        // engage, degrade selections toward faster models, and exit
        // once the overload clears.
        let trace = Trace::from_interval_qps(&[400.0, 15.0], 6.0, TraceKind::Custom);
        let policy = AutoscalePolicy::elastic(2, 2, 50.0);
        let slow = *profile().pareto_models().last().unwrap();
        let sim = Simulation::new(
            profile(),
            SimulationConfig::new(2, 0.15)
                .seeded(5)
                .with_autoscale(policy),
        )
        .unwrap();
        let mut scheme = GreedyFastestRr { model: slow };
        let mut monitor = LoadMonitor::new();
        let mut sink = ramsis_telemetry::VecSink::new();
        let report = sim
            .execute(
                RunSpec::trace(&trace).telemetry(&mut sink),
                &mut scheme,
                &mut monitor,
            )
            .unwrap();
        let stats = report.autoscale.expect("enabled run reports stats");
        assert!(stats.brownout_enters > 0, "{stats:?}");
        assert!(stats.brownout_exits > 0, "{stats:?}");
        assert!(stats.brownout_time_s > 0.0, "{stats:?}");
        assert!(stats.max_brownout_rung >= 1, "{stats:?}");
        assert!(stats.degraded_selections > 0, "{stats:?}");
        let events = sink.into_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::BrownoutEnter { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::BrownoutExit { .. })));
        // Degradation actually bit: some queries were served by a model
        // other than the slow one the scheme kept asking for.
        let slow_name = &profile().models[slow].name;
        let degraded_served: u64 = report
            .per_model
            .iter()
            .filter(|(name, _)| name != slow_name)
            .map(|&(_, count)| count)
            .sum();
        assert!(degraded_served > 0, "{:?}", report.per_model);
    }

    #[test]
    fn autoscaled_runs_are_deterministic_under_faults() {
        // The full stack at once — elasticity, brownout, crash faults,
        // stochastic latency — must still be byte-reproducible.
        let trace = Trace::from_interval_qps(&[250.0, 40.0, 250.0], 3.0, TraceKind::Custom);
        let mut policy = AutoscalePolicy::elastic(1, 6, 50.0);
        policy.warmup_s = 0.5;
        let plan = FaultPlan::none().crash(0, 2.0).recover(0, 4.0);
        let config = SimulationConfig::new(2, 0.15)
            .stochastic()
            .seeded(19)
            .with_autoscale(policy);
        let sim = Simulation::new(profile(), config).unwrap();
        let run = || {
            let mut scheme = GreedyFastestRr {
                model: profile().fastest_model(),
            };
            let mut monitor = LoadMonitor::new();
            let mut sink = ramsis_telemetry::VecSink::new();
            let report = sim
                .execute(
                    RunSpec::trace(&trace).faults(&plan).telemetry(&mut sink),
                    &mut scheme,
                    &mut monitor,
                )
                .unwrap();
            (report, sink.into_events())
        };
        let (r1, e1) = run();
        let (r2, e2) = run();
        assert_eq!(r1, r2);
        assert_eq!(e1, e2);
        assert_eq!(
            serde_json::to_string(&r1).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    #[test]
    fn autoscale_rejects_invalid_shapes() {
        // Initial pool larger than the ceiling.
        let config =
            SimulationConfig::new(8, 0.15).with_autoscale(AutoscalePolicy::elastic(1, 4, 50.0));
        assert!(config.validate().is_err());
        // Heterogeneous clusters cannot autoscale (membership changes
        // would re-index per-worker profiles).
        let profiles = vec![profile(), profile()];
        assert!(Simulation::heterogeneous(
            profiles,
            SimulationConfig::new(2, 0.15).with_autoscale(AutoscalePolicy::elastic(1, 4, 50.0)),
        )
        .is_err());
    }

    /// A DegradingRamsis over `workers` with per-worker-count sets down
    /// to one worker — the pool-extreme test harness of satellite 3.
    fn degrading_scheme(workers: usize, loads: &[f64]) -> crate::scheme::DegradingRamsis {
        let config = PolicyConfig::builder(Duration::from_millis(150))
            .workers(workers)
            .discretization(Discretization::fixed_length(8))
            .build();
        let sets = ramsis_core::DegradablePolicySet::generate_poisson(profile(), loads, &config, 1)
            .unwrap();
        let fallback = ramsis_core::FallbackPolicy::fastest(profile()).unwrap();
        crate::scheme::DegradingRamsis::new(sets, fallback)
    }

    #[test]
    fn degradable_scheme_survives_scale_in_to_one_worker() {
        // Light load against four initial workers with a floor of one:
        // the pool must shrink all the way down and the pre-solved
        // one-worker policy must keep serving everything.
        let trace = Trace::constant(25.0, 12.0);
        let policy = AutoscalePolicy::elastic(1, 4, 60.0);
        let sim = Simulation::new(
            profile(),
            SimulationConfig::new(4, 0.15)
                .seeded(6)
                .with_autoscale(policy),
        )
        .unwrap();
        let mut scheme = degrading_scheme(4, &[25.0, 100.0]);
        let mut monitor = LoadMonitor::new();
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        let stats = report.autoscale.expect("enabled run reports stats");
        assert_eq!(stats.min_live_workers, 1, "{stats:?}");
        assert!(stats.drains_completed >= 3, "{stats:?}");
        assert_eq!(report.served, report.total_arrivals);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn crash_of_last_live_worker_while_warming_recovers() {
        // One live worker, a surge forces a scale-up, and the lone live
        // worker crashes while the new one is still warming: arrivals
        // must limbo (not vanish) and be served once warm-up completes.
        let trace = Trace::constant(120.0, 6.0);
        let mut policy = AutoscalePolicy::elastic(1, 4, 50.0);
        policy.warmup_s = 1.0;
        let plan = FaultPlan::none().crash(0, 1.0).recover(0, 4.0);
        let sim = Simulation::new(
            profile(),
            SimulationConfig::new(1, 0.15)
                .seeded(7)
                .with_autoscale(policy),
        )
        .unwrap();
        let mut scheme = degrading_scheme(4, &[60.0, 120.0]);
        let mut monitor = LoadMonitor::new();
        let mut sink = ramsis_telemetry::VecSink::new();
        let report = sim
            .execute(
                RunSpec::trace(&trace).faults(&plan).telemetry(&mut sink),
                &mut scheme,
                &mut monitor,
            )
            .unwrap();
        let stats = report.autoscale.expect("enabled run reports stats");
        assert!(stats.warmups_completed >= 1, "{stats:?}");
        assert_eq!(report.served, report.total_arrivals);
        assert_eq!(report.dropped, 0);
        let c = ramsis_telemetry::conservation(&sink.into_events());
        assert!(c.holds(), "{c:?}");
    }

    #[test]
    fn membership_changes_mid_drain_conserve_every_query() {
        // Load whipsaws so drains overlap fresh scale-ups (membership
        // changes arriving while workers are still draining). No query
        // may be lost or double-served through the churn.
        let trace = Trace::from_interval_qps(&[300.0, 10.0, 300.0, 10.0], 3.0, TraceKind::Custom);
        let mut policy = AutoscalePolicy::elastic(1, 6, 50.0);
        policy.warmup_s = 0.5;
        policy.down_confirm = 3;
        let sim = Simulation::new(
            profile(),
            SimulationConfig::new(2, 0.15)
                .seeded(8)
                .with_autoscale(policy),
        )
        .unwrap();
        let mut scheme = degrading_scheme(6, &[50.0, 150.0, 300.0]);
        let mut monitor = LoadMonitor::new();
        let mut sink = ramsis_telemetry::VecSink::new();
        let report = sim
            .execute(
                RunSpec::trace(&trace).telemetry(&mut sink),
                &mut scheme,
                &mut monitor,
            )
            .unwrap();
        let stats = report.autoscale.expect("enabled run reports stats");
        assert!(stats.scale_ups > 0 && stats.scale_downs > 0, "{stats:?}");
        let events = sink.into_events();
        let c = ramsis_telemetry::conservation(&events);
        assert!(c.holds(), "{c:?}");
        assert_eq!(c.anomalies, 0);
        assert_eq!(report.served + report.dropped, report.total_arrivals);
    }

    use crate::checkpoint::{CheckpointPolicy, EngineSnapshot, MemoryRecorder};

    /// A faulted, resilience-on, per-worker-routed run: the busiest
    /// checkpoint surface (fault windows, timeouts, retries, hedges,
    /// limbo) short of autoscaling, with its checkpoint cadence.
    fn durable_fixture() -> (Trace, FaultPlan, SimulationConfig, CheckpointPolicy) {
        let trace = Trace::constant(200.0, 6.0);
        let plan = FaultPlan::none()
            .crash(0, 1.0)
            .recover(0, 3.5)
            .slowdown(1, 2.0, 5.0, 3.0)
            .surge(2.5, 4.5, 1.5);
        let config = SimulationConfig::new(4, 0.15)
            .seeded(21)
            .with_resilience(ResiliencePolicy::all_on());
        (trace, plan, config, CheckpointPolicy::every_events(400))
    }

    #[test]
    fn checkpointing_does_not_perturb_the_run() {
        let (trace, plan, config, every) = durable_fixture();
        let sim = Simulation::new(profile(), config).unwrap();
        let scheme = || GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let plain = sim
            .execute(
                RunSpec::trace(&trace).faults(&plan),
                &mut scheme(),
                &mut LoadMonitor::new(),
            )
            .unwrap();
        let mut rec = MemoryRecorder::new();
        let durable = sim
            .execute(
                RunSpec::trace(&trace)
                    .faults(&plan)
                    .checkpoints(&mut rec, every),
                &mut scheme(),
                &mut LoadMonitor::new(),
            )
            .unwrap();
        assert!(rec.snapshots.len() >= 3, "took {}", rec.snapshots.len());
        assert_eq!(plain, durable);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&durable).unwrap()
        );
    }

    #[test]
    fn resume_from_every_checkpoint_is_byte_identical() {
        let (trace, plan, config, every) = durable_fixture();
        let sim = Simulation::new(profile(), config).unwrap();
        let scheme = || GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut rec = MemoryRecorder::new();
        let mut full_sink = ramsis_telemetry::VecSink::new();
        let full_report = sim
            .execute(
                RunSpec::trace(&trace)
                    .faults(&plan)
                    .telemetry(&mut full_sink)
                    .checkpoints(&mut rec, every),
                &mut scheme(),
                &mut LoadMonitor::new(),
            )
            .unwrap();
        let full_events = full_sink.into_events();
        let full_json = serde_json::to_string(&full_report).unwrap();
        assert!(!rec.snapshots.is_empty());
        for snap in &rec.snapshots {
            // The snapshot itself round-trips to identical bytes.
            let json = snap.to_json();
            let back = EngineSnapshot::from_json(&json).unwrap();
            assert_eq!(json, back.to_json());
            // Resuming continues to a byte-identical report and
            // telemetry suffix.
            let mut sink = ramsis_telemetry::VecSink::new();
            let resumed = sim
                .execute(
                    RunSpec::trace(&trace)
                        .faults(&plan)
                        .telemetry(&mut sink)
                        .resume_from(&back),
                    &mut scheme(),
                    &mut LoadMonitor::new(),
                )
                .unwrap();
            assert_eq!(serde_json::to_string(&resumed).unwrap(), full_json);
            let suffix = &full_events[snap.meta.events_emitted as usize..];
            let resumed_events = sink.into_events();
            assert_eq!(resumed_events.len(), suffix.len());
            assert_eq!(resumed_events.as_slice(), suffix);
        }
    }

    #[test]
    fn kill_then_resume_from_latest_checkpoint_completes() {
        let (trace, plan, config, every) = durable_fixture();
        let sim = Simulation::new(profile(), config).unwrap();
        let scheme = || GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let full = sim
            .execute(
                RunSpec::trace(&trace).faults(&plan),
                &mut scheme(),
                &mut LoadMonitor::new(),
            )
            .unwrap();
        // Kill right after the second checkpoint, then resume from it
        // with checkpointing still on (the multi-kill chain shape).
        let mut rec = MemoryRecorder::stop_after(2);
        let killed = sim
            .execute(
                RunSpec::trace(&trace)
                    .faults(&plan)
                    .checkpoints(&mut rec, every),
                &mut scheme(),
                &mut LoadMonitor::new(),
            )
            .unwrap_err();
        assert!(
            matches!(killed, SimError::Interrupted { .. }),
            "recorder stop must abort the run: {killed}"
        );
        assert_eq!(rec.snapshots.len(), 2);
        let latest = rec.snapshots.last().unwrap().clone();
        let mut rec2 = MemoryRecorder::new();
        let resumed = sim
            .execute(
                RunSpec::trace(&trace)
                    .faults(&plan)
                    .checkpoints(&mut rec2, every)
                    .resume_from(&latest),
                &mut scheme(),
                &mut LoadMonitor::new(),
            )
            .unwrap();
        assert_eq!(resumed, full);
        // The resumed leg keeps checkpointing past the kill point.
        assert!(!rec2.snapshots.is_empty());
        assert!(rec2
            .snapshots
            .iter()
            .all(|s| s.meta.events_done > latest.meta.events_done));
    }

    #[test]
    fn resume_with_autoscale_and_stateful_scheme_is_identical() {
        // Elastic pool + brownout ladder + DegradingRamsis (a scheme
        // with real checkpoint state): the full restore surface.
        let trace = Trace::from_interval_qps(&[300.0, 10.0, 300.0, 10.0], 3.0, TraceKind::Custom);
        let mut policy = AutoscalePolicy::elastic(1, 6, 50.0);
        policy.warmup_s = 0.5;
        policy.down_confirm = 3;
        let sim = Simulation::new(
            profile(),
            SimulationConfig::new(2, 0.15)
                .seeded(8)
                .with_autoscale(policy),
        )
        .unwrap();
        let mut rec = MemoryRecorder::new();
        let mut full_sink = ramsis_telemetry::VecSink::new();
        let full_report = sim
            .execute(
                RunSpec::trace(&trace)
                    .telemetry(&mut full_sink)
                    .checkpoints(&mut rec, CheckpointPolicy::every_events(2_000)),
                &mut degrading_scheme(6, &[50.0, 150.0, 300.0]),
                &mut LoadMonitor::new(),
            )
            .unwrap();
        let full_events = full_sink.into_events();
        assert!(!rec.snapshots.is_empty());
        for snap in &rec.snapshots {
            assert!(snap.autoscale.is_some(), "autoscale state must travel");
            let mut sink = ramsis_telemetry::VecSink::new();
            let resumed = sim
                .execute(
                    RunSpec::trace(&trace)
                        .telemetry(&mut sink)
                        .resume_from(snap),
                    &mut degrading_scheme(6, &[50.0, 150.0, 300.0]),
                    &mut LoadMonitor::new(),
                )
                .unwrap();
            assert_eq!(resumed, full_report);
            assert_eq!(
                sink.into_events().as_slice(),
                &full_events[snap.meta.events_emitted as usize..]
            );
        }
    }

    #[test]
    fn checkpointing_by_sim_time_fires_on_schedule() {
        let trace = Trace::constant(150.0, 4.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15).seeded(3)).unwrap();
        let mut rec = MemoryRecorder::new();
        let report = sim
            .execute(
                RunSpec::trace(&trace).checkpoints(&mut rec, CheckpointPolicy::every_sim_s(1.0)),
                &mut GreedyFastest {
                    model: profile().fastest_model(),
                },
                &mut LoadMonitor::new(),
            )
            .unwrap();
        assert!(report.served > 0);
        // ~4 simulated seconds at a 1 s cadence: one snapshot per
        // crossed boundary, each strictly past its multiple.
        assert!(
            (3..=5).contains(&rec.snapshots.len()),
            "took {}",
            rec.snapshots.len()
        );
        for (i, s) in rec.snapshots.iter().enumerate() {
            assert!(s.meta.sim_time_ns >= (i as u64 + 1) * 1_000_000_000);
        }
    }

    #[test]
    fn resume_refuses_a_mismatched_run() {
        let (trace, plan, config, every) = durable_fixture();
        let sim = Simulation::new(profile(), config).unwrap();
        let scheme = || GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut rec = MemoryRecorder::stop_after(1);
        let stopped = sim
            .execute(
                RunSpec::trace(&trace)
                    .faults(&plan)
                    .checkpoints(&mut rec, every),
                &mut scheme(),
                &mut LoadMonitor::new(),
            )
            .unwrap_err();
        assert!(matches!(stopped, SimError::Interrupted { .. }), "{stopped}");
        let snap = rec.snapshots.pop().unwrap();

        // Wrong seeds: different arrival stream.
        let other = Simulation::new(profile(), config.seeded(99)).unwrap();
        let err = other
            .execute(
                RunSpec::trace(&trace).faults(&plan).resume_from(&snap),
                &mut scheme(),
                &mut LoadMonitor::new(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("cannot resume"), "{err}");

        // Wrong scheme.
        let err = sim
            .execute(
                RunSpec::trace(&trace).faults(&plan).resume_from(&snap),
                &mut GreedyFastest {
                    model: profile().fastest_model(),
                },
                &mut LoadMonitor::new(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("scheme"), "{err}");

        // Wrong trace: arrival fingerprint mismatch.
        let err = sim
            .execute(
                RunSpec::trace(&Trace::constant(210.0, 6.0))
                    .faults(&plan)
                    .resume_from(&snap),
                &mut scheme(),
                &mut LoadMonitor::new(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("arrival stream"), "{err}");
    }

    #[test]
    fn durable_run_requires_a_cadence() {
        let trace = Trace::constant(100.0, 1.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15)).unwrap();
        let none = CheckpointPolicy {
            every_events: 0,
            every_sim_s: 0.0,
        };
        let err = sim
            .execute(
                RunSpec::trace(&trace).checkpoints(&mut MemoryRecorder::new(), none),
                &mut GreedyFastest {
                    model: profile().fastest_model(),
                },
                &mut LoadMonitor::new(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("cadence"), "{err}");
    }

    #[test]
    fn durable_run_refuses_a_checkpoint_blind_scheme() {
        // OnDemandRamsis declines checkpoint_state; a durable run must
        // refuse it up front rather than snapshot a lie.
        struct Blind;
        impl ServingScheme for Blind {
            fn name(&self) -> &str {
                "blind"
            }
            fn routing(&self) -> Routing {
                Routing::Central
            }
            fn select(&mut self, ctx: &SelectionContext) -> Selection {
                Selection::Serve {
                    model: 0,
                    batch: ctx.queued as u32,
                }
            }
        }
        let trace = Trace::constant(100.0, 1.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15)).unwrap();
        let err = sim
            .execute(
                RunSpec::trace(&trace)
                    .checkpoints(&mut MemoryRecorder::new(), CheckpointPolicy::default()),
                &mut Blind,
                &mut LoadMonitor::new(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "{err}");
    }
}
