//! The adaptive RAMSIS runtime: drift-driven policy hot-swap plus
//! deadline-aware load shedding.
//!
//! Plain [`crate::scheme::RamsisScheme`] trusts the traffic assumptions
//! its policy set was solved under — a Poisson process at a design load.
//! When the real arrival process drifts (the rate ramps past the design
//! load, or dispersion rises past Poisson), those policies become stale
//! and the violation rate climbs with no bound. [`AdaptiveRamsis`]
//! closes the loop online:
//!
//! 1. A [`DriftDetector`] re-fits the recent arrival window and emits a
//!    debounced [`ramsis_workload::RegimeChange`] when the traffic moves
//!    to a different (rate bin, dispersion class) regime.
//! 2. On a regime change the scheme hot-swaps to the
//!    [`PolicyLibrary`]'s pre-solved set for the new regime; a missing
//!    in-grid regime is solved lazily under a bounded budget, and
//!    anything else (out-of-grid loads, budget exhausted) degrades to
//!    the [`FallbackPolicy`] — fastest Pareto model, largest
//!    SLO-fitting batch.
//! 3. A [`ShedPolicy`] optionally sheds queries whose deadline is
//!    already unreachable even on the fastest model at batch 1, so a
//!    burst's backlog cannot poison the deadlines of everything behind
//!    it.
//!
//! With matched traffic (no regime change, `ShedPolicy::Never`) the
//! scheme's decisions are *identical* to a [`crate::RamsisScheme`]
//! carrying the active regime's set — adaptivity costs nothing until
//! drift actually happens.

use ramsis_core::{FallbackPolicy, PolicyConfig, PolicyLibrary, ShedPolicy};
use ramsis_profiles::WorkerProfile;
use ramsis_telemetry::{Event, ShedCause};
use ramsis_workload::DriftDetector;

use crate::metrics::{AdaptiveStats, RegimeSwapEvent};
use crate::query::nanos_from_secs;
use crate::scheme::{policy_selection, Routing, Selection, SelectionContext, ServingScheme};
use crate::SimError;

/// RAMSIS with online drift adaptation (see module docs).
pub struct AdaptiveRamsis {
    profile: WorkerProfile,
    config: PolicyConfig,
    library: PolicyLibrary,
    fallback: FallbackPolicy,
    detector: DriftDetector,
    shed: ShedPolicy,
    /// Batch-1 latency of the fastest Pareto model: below this much
    /// slack a query cannot meet its SLO under any decision.
    hopeless_threshold_s: f64,
    lazy_solve_budget: u64,
    active_label: String,
    swaps: u64,
    shed_hopeless: u64,
    shed_queue_depth: u64,
    lazy_solves: u64,
    fallback_decisions: u64,
    detection_delays: Vec<f64>,
    events: Vec<RegimeSwapEvent>,
    audit: bool,
    audit_buf: Vec<Event>,
    last_shed: ShedCause,
}

impl AdaptiveRamsis {
    /// Default cap on online policy solves (each one is a full value
    /// iteration — cheap in simulated time, expensive in wall time).
    pub const DEFAULT_LAZY_SOLVE_BUDGET: u64 = 2;

    /// Creates the scheme. `library` holds the pre-solved regimes;
    /// `config` re-solves missing in-grid regimes lazily; `detector`
    /// must run over the same grid and start in a regime the library
    /// has solved (otherwise the very first decision would already be a
    /// fallback, which is drift *handling* without any drift).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the detector's grid
    /// differs from the library's or the initial regime is unsolved,
    /// and propagates fallback construction failures.
    pub fn new(
        profile: &WorkerProfile,
        config: PolicyConfig,
        library: PolicyLibrary,
        detector: DriftDetector,
    ) -> Result<Self, SimError> {
        if detector.grid() != library.grid() {
            return Err(SimError::InvalidConfig(
                "drift detector and policy library must share one regime grid".to_string(),
            ));
        }
        if !library.contains(detector.active()) {
            return Err(SimError::InvalidConfig(format!(
                "initial regime {} has no solved policy set",
                library.grid().label(detector.active())
            )));
        }
        let fallback = FallbackPolicy::fastest(profile)?;
        let hopeless_threshold_s = profile
            .latency(profile.fastest_model(), 1)
            .expect("fastest model profiles batch 1");
        let active_label = library.grid().label(detector.active());
        Ok(Self {
            profile: profile.clone(),
            config,
            library,
            fallback,
            detector,
            shed: ShedPolicy::Never,
            hopeless_threshold_s,
            lazy_solve_budget: Self::DEFAULT_LAZY_SOLVE_BUDGET,
            active_label,
            swaps: 0,
            shed_hopeless: 0,
            shed_queue_depth: 0,
            lazy_solves: 0,
            fallback_decisions: 0,
            detection_delays: Vec::new(),
            events: Vec::new(),
            audit: false,
            audit_buf: Vec::new(),
            last_shed: ShedCause::Policy,
        })
    }

    /// Sets the shed policy (default [`ShedPolicy::Never`]).
    pub fn with_shed_policy(mut self, shed: ShedPolicy) -> Self {
        self.shed = shed;
        self
    }

    /// Caps online policy solves (default
    /// [`Self::DEFAULT_LAZY_SOLVE_BUDGET`]); regimes past the budget
    /// are served by the fallback.
    pub fn with_lazy_solve_budget(mut self, budget: u64) -> Self {
        self.lazy_solve_budget = budget;
        self
    }

    /// Committed policy hot-swaps so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// The policy library (grows when regimes are solved lazily).
    pub fn library(&self) -> &PolicyLibrary {
        &self.library
    }

    /// The drift detector.
    pub fn detector(&self) -> &DriftDetector {
        &self.detector
    }

    /// Below this much slack a query's SLO is unreachable.
    pub fn hopeless_threshold_s(&self) -> f64 {
        self.hopeless_threshold_s
    }
}

impl ServingScheme for AdaptiveRamsis {
    fn name(&self) -> &str {
        "RAMSIS-adaptive"
    }

    fn routing(&self) -> Routing {
        Routing::PerWorkerRoundRobin
    }

    fn on_arrival(&mut self, now_s: f64) {
        self.detector.record_arrival(now_s);
        let Some(change) = self.detector.observe(now_s) else {
            return;
        };
        self.swaps += 1;
        self.detection_delays.push(change.detection_delay_s);
        let (from_label, to_label, in_grid) = {
            let grid = self.library.grid();
            (
                grid.label(change.from),
                grid.label(change.to),
                change.to.rate_bin < grid.n_bins(),
            )
        };
        self.events.push(RegimeSwapEvent {
            at_s: change.at_s,
            from: from_label.clone(),
            to: to_label.clone(),
            fitted_rate_qps: change.fitted_rate_qps,
            fitted_dispersion: change.fitted_dispersion,
            detection_delay_s: change.detection_delay_s,
        });
        if self.audit {
            self.audit_buf.push(Event::RegimeSwap {
                at: nanos_from_secs(change.at_s),
                from: from_label,
                to: to_label.clone(),
                detection_delay_ns: nanos_from_secs(change.detection_delay_s),
            });
        }
        // A missing in-grid regime is worth a bounded online solve; the
        // fallback serves it in the meantime and permanently if the
        // solve fails or the budget is spent.
        if in_grid
            && !self.library.contains(change.to)
            && self.lazy_solves < self.lazy_solve_budget
            && self
                .library
                .solve(&self.profile, &self.config, change.to)
                .is_ok()
        {
            self.lazy_solves += 1;
            if self.audit {
                self.audit_buf.push(Event::LazySolve {
                    at: nanos_from_secs(change.at_s),
                    regime: to_label.clone(),
                });
            }
        }
        self.active_label = to_label;
    }

    fn select(&mut self, ctx: &SelectionContext) -> Selection {
        if self.shed != ShedPolicy::Never {
            // The earliest deadline is unreachable even on the fastest
            // model at batch 1: serving it only delays everyone behind
            // it. Shed one; the engine re-asks for the remainder.
            if ctx.earliest_slack_s < self.hopeless_threshold_s {
                self.shed_hopeless += 1;
                self.last_shed = ShedCause::Hopeless;
                return Selection::Drop { count: 1 };
            }
            if let ShedPolicy::QueueDepth(cap) = self.shed {
                if ctx.queued > cap as usize {
                    let count = (ctx.queued - cap as usize) as u32;
                    self.shed_queue_depth += u64::from(count);
                    self.last_shed = ShedCause::QueueDepth;
                    return Selection::Drop { count };
                }
            }
        }
        let Some(set) = self.library.get(self.detector.active()) else {
            self.fallback_decisions += 1;
            if self.audit {
                self.audit_buf.push(Event::FallbackEngaged {
                    at: nanos_from_secs(ctx.now_s),
                    worker: ctx.worker as u32,
                });
            }
            let (model, batch) = self.fallback.decide(ctx.queued);
            return Selection::Serve {
                model,
                batch: batch.min(ctx.queued as u32),
            };
        };
        let selection = policy_selection(set.select(ctx.load_qps), ctx);
        if let Selection::Drop { .. } = selection {
            self.last_shed = ShedCause::Policy;
        }
        selection
    }

    fn set_audit(&mut self, enabled: bool) {
        self.audit = enabled;
    }

    fn drain_audit(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.audit_buf);
    }

    fn shed_cause(&self) -> ShedCause {
        self.last_shed
    }

    fn regime(&self) -> Option<&str> {
        Some(&self.active_label)
    }

    fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        let (mean, max) = if self.detection_delays.is_empty() {
            (0.0, 0.0)
        } else {
            let sum: f64 = self.detection_delays.iter().sum();
            let max = self.detection_delays.iter().cloned().fold(0.0, f64::max);
            (sum / self.detection_delays.len() as f64, max)
        };
        Some(AdaptiveStats {
            swaps: self.swaps,
            refits: self.detector.refits(),
            shed_hopeless: self.shed_hopeless,
            shed_queue_depth: self.shed_queue_depth,
            lazy_solves: self.lazy_solves,
            fallback_decisions: self.fallback_decisions,
            mean_detection_delay_s: mean,
            max_detection_delay_s: max,
            regime_events: self.events.clone(),
            per_regime: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramsis_core::Discretization;
    use ramsis_profiles::{ModelCatalog, ProfilerConfig};
    use ramsis_workload::{DispersionClass, DriftDetectorConfig, RegimeGrid, RegimeKey};
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

    fn config() -> PolicyConfig {
        PolicyConfig::builder(Duration::from_millis(150))
            .workers(4)
            .discretization(Discretization::fixed_length(8))
            .build()
    }

    fn detector(grid: RegimeGrid) -> DriftDetector {
        DriftDetector::new(
            grid,
            DriftDetectorConfig::default(),
            RegimeKey::new(0, DispersionClass::Poisson),
        )
    }

    fn scheme() -> AdaptiveRamsis {
        let grid = RegimeGrid::new(vec![120.0]);
        let library =
            PolicyLibrary::generate_poisson_bins(profile(), grid.clone(), 4.0, &config()).unwrap();
        AdaptiveRamsis::new(profile(), config(), library, detector(grid)).unwrap()
    }

    #[test]
    fn starts_in_the_initial_regime_without_fallback() {
        let mut s = scheme();
        assert_eq!(s.name(), "RAMSIS-adaptive");
        assert_eq!(s.regime(), Some("le120qps-poisson"));
        let ctx = SelectionContext {
            now_s: 1.0,
            load_qps: 90.0,
            queued: 2,
            earliest_slack_s: 0.14,
            worker: 0,
            live_workers: 4,
        };
        assert!(matches!(s.select(&ctx), Selection::Serve { .. }));
        let stats = s.adaptive_stats().unwrap();
        assert_eq!(stats.swaps, 0);
        assert_eq!(stats.fallback_decisions, 0);
    }

    #[test]
    fn mismatched_grid_or_unsolved_initial_regime_rejected() {
        let grid = RegimeGrid::new(vec![120.0]);
        let library =
            PolicyLibrary::generate_poisson_bins(profile(), grid.clone(), 4.0, &config()).unwrap();
        let other = detector(RegimeGrid::new(vec![200.0]));
        assert!(AdaptiveRamsis::new(profile(), config(), library.clone(), other).is_err());
        let unsolved = DriftDetector::new(
            grid.clone(),
            DriftDetectorConfig::default(),
            RegimeKey::new(0, DispersionClass::Bursty),
        );
        assert!(AdaptiveRamsis::new(profile(), config(), library, unsolved).is_err());
    }

    #[test]
    fn out_of_grid_drift_degrades_to_fallback() {
        let mut s = scheme().with_lazy_solve_budget(0);
        // Feed a steady 500 QPS — far beyond the grid's single
        // 120 QPS bin — until the detector confirms the new regime.
        let mut t = 0.0;
        while s.swaps() == 0 && t < 60.0 {
            s.on_arrival(t);
            t += 1.0 / 500.0;
        }
        assert_eq!(s.swaps(), 1, "drift never confirmed");
        assert_eq!(s.regime(), Some("gt120qps-poisson"));
        let ctx = SelectionContext {
            now_s: t,
            load_qps: 500.0,
            queued: 4,
            earliest_slack_s: 0.14,
            worker: 0,
            live_workers: 4,
        };
        let Selection::Serve { model, batch } = s.select(&ctx) else {
            panic!("fallback must serve");
        };
        assert_eq!(model, profile().fastest_model());
        assert!((1..=4).contains(&batch));
        let stats = s.adaptive_stats().unwrap();
        assert_eq!(stats.fallback_decisions, 1);
        assert_eq!(stats.lazy_solves, 0);
        assert_eq!(stats.regime_events.len(), 1);
        assert!(stats.regime_events[0].detection_delay_s > 0.0);
        assert!(stats.mean_detection_delay_s > 0.0);
    }

    #[test]
    fn shedding_respects_policy() {
        let hopeless = SelectionContext {
            now_s: 1.0,
            load_qps: 90.0,
            queued: 10,
            earliest_slack_s: 0.001,
            worker: 0,
            live_workers: 4,
        };
        let deep = SelectionContext {
            earliest_slack_s: 0.14,
            ..hopeless
        };

        // Never: serves even a hopeless head-of-line query.
        let mut never = scheme();
        assert!(matches!(never.select(&hopeless), Selection::Serve { .. }));

        // Hopeless: sheds the unreachable query, one at a time.
        let mut shed = scheme().with_shed_policy(ShedPolicy::Hopeless);
        assert!(hopeless.earliest_slack_s < shed.hopeless_threshold_s());
        assert_eq!(shed.select(&hopeless), Selection::Drop { count: 1 });
        assert!(matches!(shed.select(&deep), Selection::Serve { .. }));
        assert_eq!(shed.adaptive_stats().unwrap().shed_hopeless, 1);

        // QueueDepth: additionally trims the queue to the cap.
        let mut capped = scheme().with_shed_policy(ShedPolicy::QueueDepth(3));
        assert_eq!(capped.select(&deep), Selection::Drop { count: 7 });
        let stats = capped.adaptive_stats().unwrap();
        assert_eq!(stats.shed_queue_depth, 7);
        assert_eq!(stats.shed_hopeless, 0);
    }
}
