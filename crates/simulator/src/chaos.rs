//! Randomized chaos sweeps over the resilience layer (DESIGN.md §9).
//!
//! A chaos sweep derives a stream of per-run seeds from one master
//! seed; each run randomizes the cluster shape, offered load, routing
//! discipline, latency mode, fault plan (crashes, recoveries,
//! slowdowns, surges, crash policy), and every [`ResiliencePolicy`]
//! knob, then executes the run **twice** with full telemetry and checks
//! a battery of invariants:
//!
//! - **Determinism**: both executions produce byte-identical serialized
//!   reports and identical event streams.
//! - **Conservation**: every arrival ends in exactly one terminal state
//!   (completed, shed, crash-dropped, admission-refused) or is still in
//!   flight at the horizon — no query is ever both completed and shed.
//! - **Counter agreement**: the aggregates reconstructed from the trace
//!   match the engine's own report counters field for field, including
//!   the resilience counters.
//! - **Hedge consistency**: cancels and wins never exceed issues, and
//!   every win implies a cancel.
//! - **Admission bounds**: with admission on, no enqueue ever
//!   lands beyond the queue cap (the limbo queue is exempt — it exists
//!   precisely because no admissible queue remains).
//! - **Kill–resume identity** ([`ChaosConfig::kill_resume`]): the run
//!   executes once more with checkpointing at a randomized cadence, is
//!   killed at a randomly chosen checkpoint, and resumes from that
//!   snapshot; the resumed report and telemetry suffix must be
//!   byte-identical to the uninterrupted run, the snapshot must JSON
//!   round-trip byte-identically, and checkpointing itself must not
//!   perturb the run. Runs that drew a failure detector round-trip its
//!   state (phi estimators, breakers, strike counters) through the same
//!   snapshots.
//! - **Failure-detector invariants** (DESIGN.md §14): per-worker
//!   breaker transitions form a valid Closed→Open→HalfOpen DFA and pair
//!   up with `Suspect`/`Reinstate` events; the report's health counters
//!   equal the trace-derived ones; every genuine suspicion's detection
//!   lag is within [`HealthPolicy::detection_bound_s`]; on fixed pools,
//!   every explicit crash with enough probe runway is suspected within
//!   the bound and every false suspicion is reinstated within
//!   [`HealthPolicy::reinstate_bound_s`] of the last gray disturbance;
//!   without a detector the run has no health block and emits no
//!   health telemetry at all.
//!
//! Any violated invariant is reported as a [`ChaosFailure`] carrying
//! the *run's own seed*, so a red sweep is reproducible with a single
//! value regardless of how many runs preceded it.

use std::time::Duration;

use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_telemetry::{
    aggregates, burn_analysis, conservation, query_weights, BurnConfig, ChosenAction, Event,
    QueueId, SamplePolicy, SamplingSink, VecDecisionSink, VecSink,
};
use ramsis_workload::{LoadMonitor, Trace};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::autoscale::{AutoscalePolicy, BrownoutPolicy};
use crate::checkpoint::{CheckpointPolicy, MemoryRecorder};
use crate::engine::{ForcedDecision, RunSpec, Simulation, SimulationConfig};
use crate::faults::{CrashPolicy, FaultEvent, FaultPlan};
use crate::health::HealthPolicy;
use crate::metrics::SimulationReport;
use crate::resilience::{
    splitmix64, AdmissionPolicy, HedgePolicy, ResiliencePolicy, TimeoutPolicy,
};
use crate::scheme::{Routing, Selection, SelectionContext, ServingScheme};
use crate::SimError;

/// A minimal, dependency-free scheme for chaos runs: always the fastest
/// model, always the full visible queue, with a configurable routing
/// discipline so all three dispatch structures get exercised.
pub struct FastestFixed {
    model: usize,
    routing: Routing,
}

impl FastestFixed {
    /// A scheme serving `model` under `routing`.
    pub fn new(model: usize, routing: Routing) -> Self {
        Self { model, routing }
    }
}

impl ServingScheme for FastestFixed {
    fn name(&self) -> &str {
        "fastest-fixed"
    }

    fn routing(&self) -> Routing {
        self.routing
    }

    fn select(&mut self, ctx: &SelectionContext) -> Selection {
        Selection::Serve {
            model: self.model,
            batch: ctx.queued as u32,
        }
    }

    /// Stateless: kill–resume chaos runs checkpoint freely.
    fn checkpoint_state(&self) -> Option<serde::Value> {
        Some(serde::Value::Null)
    }

    fn restore_state(&mut self, _state: &serde::Value) -> Result<(), String> {
        Ok(())
    }
}

/// Parameters of a chaos sweep. Everything inside a run is derived from
/// [`ChaosConfig::seed`] and the run index, so a sweep is reproducible
/// from this struct alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Master seed; per-run seeds are hashed out of it.
    pub seed: u64,
    /// Number of randomized runs.
    pub runs: u32,
    /// Upper bound on the randomized cluster size (inclusive).
    pub max_workers: u32,
    /// Upper bound on the randomized run length, seconds.
    pub max_duration_s: f64,
    /// Upper bound on the randomized offered load, queries per second.
    pub max_load_qps: f64,
    /// Response-latency SLO shared by every run (the worker profile is
    /// built once for it).
    pub slo_s: f64,
    /// Kill–resume dimension: run each scenario once more with
    /// checkpointing at a randomized cadence, kill it at a randomly
    /// chosen checkpoint, resume from that snapshot, and demand the
    /// resumed report and telemetry suffix be byte-identical to the
    /// uninterrupted run (plus snapshot JSON round-trip identity).
    pub kill_resume: bool,
    /// Failure-detector dimension: when `true`, every run draws an
    /// enabled randomized [`HealthPolicy`] (by default about 40% of
    /// runs do), so a sweep concentrates on suspicion, breakers, and
    /// gray-failure physics.
    pub health: bool,
    /// Test-only hook: deliberately corrupt one engine counter before
    /// invariant checking, to prove a violated invariant surfaces the
    /// reproducing seed. Never set outside tests.
    #[doc(hidden)]
    pub sabotage: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0xC4A0_55EE,
            runs: 100,
            max_workers: 4,
            max_duration_s: 2.0,
            max_load_qps: 150.0,
            slo_s: 0.15,
            kill_resume: false,
            health: false,
            sabotage: false,
        }
    }
}

impl ChaosConfig {
    /// Checks the sweep parameters are runnable.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on a zero run count or
    /// worker bound, or non-positive / non-finite durations and loads.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |msg: String| Err(SimError::InvalidConfig(msg));
        if self.runs == 0 {
            return bad("chaos: need at least one run".to_string());
        }
        if self.max_workers == 0 {
            return bad("chaos: need at least one worker".to_string());
        }
        for (what, v) in [
            ("max duration", self.max_duration_s),
            ("max load", self.max_load_qps),
            ("SLO", self.slo_s),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return bad(format!(
                    "chaos: {what} must be positive and finite, got {v}"
                ));
            }
        }
        Ok(())
    }

    /// The derived seed of run `run` — the value a [`ChaosFailure`]
    /// reports and [`ChaosConfig::run_one`] accepts to reproduce it.
    pub fn run_seed(&self, run: u32) -> u64 {
        splitmix64(self.seed ^ (u64::from(run) << 17) ^ 0x0C_1A05)
    }

    /// Executes the sweep: `runs` randomized, invariant-checked runs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the sweep parameters
    /// themselves are degenerate. Per-run problems (including invariant
    /// violations) never abort the sweep; they are collected as
    /// [`ChaosFailure`]s in the report.
    pub fn run_sweep(&self) -> Result<ChaosReport, SimError> {
        self.validate()?;
        let profile = WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_secs_f64(self.slo_s),
            ProfilerConfig::default(),
        );
        let mut report = ChaosReport {
            seed: self.seed,
            runs_requested: self.runs,
            runs: Vec::with_capacity(self.runs as usize),
            failures: Vec::new(),
        };
        for run in 0..self.runs {
            let seed = self.run_seed(run);
            match self.run_one(&profile, run, seed) {
                Ok((summary, mut failures)) => {
                    report.runs.push(summary);
                    report.failures.append(&mut failures);
                }
                Err(e) => report.failures.push(ChaosFailure {
                    run,
                    seed,
                    invariant: "setup".to_string(),
                    detail: e.to_string(),
                }),
            }
        }
        Ok(report)
    }

    /// Executes one randomized run from its derived `seed`, returning
    /// its summary and any invariant violations.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the generated scenario
    /// is rejected by the engine — itself an invariant violation, since
    /// the generator is supposed to stay inside the valid space.
    #[allow(clippy::too_many_lines)]
    pub fn run_one(
        &self,
        profile: &WorkerProfile,
        run: u32,
        seed: u64,
    ) -> Result<(ChaosRunSummary, Vec<ChaosFailure>), SimError> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let workers = rng.gen_range(0..self.max_workers as usize) + 1;
        let duration_s = rng.gen_range(0.5..self.max_duration_s.max(0.6));
        let load_qps = rng.gen_range(10.0..self.max_load_qps.max(11.0));
        let stochastic = rng.gen::<f64>() < 0.5;
        let routing = match rng.gen_range(0..3u32) {
            0 => Routing::Central,
            1 => Routing::PerWorkerRoundRobin,
            _ => Routing::PerWorkerShortestQueue,
        };
        let policy = random_resilience(&mut rng);
        let autoscale = random_autoscale(&mut rng, workers, self.max_workers as usize);
        let health = random_health(&mut rng, self.health);
        let plan = random_plan(&mut rng, workers, duration_s);
        let trace = Trace::constant(load_qps, duration_s);

        let mut config = SimulationConfig::new(workers, self.slo_s)
            .seeded(seed)
            .with_resilience(policy);
        if stochastic {
            config = config.stochastic();
        }
        if let Some(a) = autoscale {
            config = config.with_autoscale(a);
        }
        if let Some(h) = health {
            config = config.with_health(h);
        }
        let sim = Simulation::new(profile, config)?;
        let run_once = || -> Result<(SimulationReport, Vec<Event>), SimError> {
            let mut scheme = FastestFixed::new(profile.fastest_model(), routing);
            let mut monitor = LoadMonitor::new();
            let mut sink = VecSink::new();
            let spec = RunSpec::trace(&trace).faults(&plan).telemetry(&mut sink);
            let r = sim.execute(spec, &mut scheme, &mut monitor)?;
            Ok((r, sink.into_events()))
        };
        let (mut r1, e1) = run_once()?;
        let (mut r2, e2) = run_once()?;
        if self.sabotage {
            // Corrupt both executions identically: determinism still
            // holds, so the counter-agreement invariant is what fires.
            r1.served = r1.served.wrapping_add(1);
            r2.served = r2.served.wrapping_add(1);
        }

        let mut failures = Vec::new();
        let mut fail = |invariant: &str, detail: String| {
            failures.push(ChaosFailure {
                run,
                seed,
                invariant: invariant.to_string(),
                detail,
            });
        };
        check_invariants(
            &r1,
            &r2,
            &e1,
            &e2,
            &policy,
            autoscale.as_ref(),
            health.as_ref(),
            &plan,
            &mut fail,
        );

        // Decision provenance (ISSUE 8): recording the decision stream
        // must not perturb the run, and forcing a randomly chosen
        // selection-site record's own raw action in a counterfactual
        // replay must reproduce report and telemetry byte for byte —
        // the exact-regret baseline the `why --counterfactual` path
        // relies on.
        let decisions;
        {
            let mut scheme = FastestFixed::new(profile.fastest_model(), routing);
            let mut monitor = LoadMonitor::new();
            let mut sink = VecSink::new();
            let mut recorder = VecDecisionSink::new();
            let spec = RunSpec::trace(&trace)
                .faults(&plan)
                .telemetry(&mut sink)
                .decisions(&mut recorder);
            let rd = sim.execute(spec, &mut scheme, &mut monitor)?;
            let ed = sink.into_events();
            let j_rd = serde_json::to_string(&rd).expect("reports serialize");
            if j_rd != serde_json::to_string(&r1).expect("reports serialize") {
                fail(
                    "decisions:recording-identity",
                    "decision recording changed the report".to_string(),
                );
            }
            if ed != e1 {
                fail(
                    "decisions:recording-identity",
                    format!(
                        "decision recording changed the event stream ({} vs {} events)",
                        ed.len(),
                        e1.len()
                    ),
                );
            }
            decisions = recorder.records().len() as u64;
            let sites: Vec<_> = recorder
                .records()
                .iter()
                .filter(|r| r.state.is_some())
                .collect();
            if !sites.is_empty() {
                let rec = sites[rng.gen_range(0..sites.len())];
                let action = match rec.chosen {
                    ChosenAction::Serve { model, batch } => Selection::Serve {
                        model: model as usize,
                        batch,
                    },
                    ChosenAction::Shed { count } => Selection::Drop { count },
                    _ => Selection::Idle,
                };
                let mut scheme = FastestFixed::new(profile.fastest_model(), routing);
                let mut monitor = LoadMonitor::new();
                let mut sink = VecSink::new();
                let spec = RunSpec::trace(&trace)
                    .faults(&plan)
                    .telemetry(&mut sink)
                    .force(ForcedDecision { k: rec.k, action }, 0);
                match sim.execute(spec, &mut scheme, &mut monitor) {
                    Err(e) => fail("decisions:counterfactual-baseline", e.to_string()),
                    Ok(cf) => {
                        if serde_json::to_string(&cf).expect("reports serialize") != j_rd {
                            fail(
                                "decisions:counterfactual-baseline",
                                format!(
                                    "replaying the chosen action at k={} diverged from the \
                                     factual report",
                                    rec.k
                                ),
                            );
                        }
                        if sink.into_events() != ed {
                            fail(
                                "decisions:counterfactual-baseline",
                                format!("replay at k={} diverged in the event stream", rec.k),
                            );
                        }
                    }
                }
            }
        }

        // Telemetry-sampling dimension (ISSUE 10): re-run the scenario
        // through a query-coherent sampling sink at a seeded random
        // rate and hold it to the exactness contract — bit-identical
        // report, exact-subsequence stream, every interesting query
        // fully retained, per-query conservation intact, and rate 1.0
        // indistinguishable from sampling off.
        {
            let rate = match rng.gen_range(0..4u32) {
                0 => 1.0,
                1 => 0.5,
                2 => 0.1,
                _ => 0.01,
            };
            let policy = SamplePolicy::new(rate, seed).expect("chaos rates are valid");
            let mut scheme = FastestFixed::new(profile.fastest_model(), routing);
            let mut monitor = LoadMonitor::new();
            let mut sampling = SamplingSink::new(VecSink::new(), policy);
            let spec = RunSpec::trace(&trace)
                .faults(&plan)
                .telemetry(&mut sampling);
            let rs = sim.execute(spec, &mut scheme, &mut monitor)?;
            let withheld = sampling.sampled_out_events();
            let sampled = sampling.finish().into_events();
            if serde_json::to_string(&rs).expect("reports serialize")
                != serde_json::to_string(&r1).expect("reports serialize")
            {
                fail(
                    "sampling:report-identity",
                    format!("sampling at rate {rate} changed the report"),
                );
            }
            // Exact subsequence: same events, same order, nothing
            // reordered or invented; the withheld counter accounts for
            // every removed event.
            let mut rest = e1.as_slice();
            let subsequence = sampled.iter().all(|s| {
                rest.iter().position(|f| f == s).is_some_and(|i| {
                    rest = &rest[i + 1..];
                    true
                })
            });
            if !subsequence {
                fail(
                    "sampling:subsequence",
                    format!(
                        "sampled stream (rate {rate}) is not a subsequence of the full stream \
                         ({} sampled vs {} full events)",
                        sampled.len(),
                        e1.len()
                    ),
                );
            } else if sampled.len() as u64 + withheld != e1.len() as u64 {
                fail(
                    "sampling:event-accounting",
                    format!(
                        "{} sampled + {withheld} withheld != {} full events",
                        sampled.len(),
                        e1.len()
                    ),
                );
            }
            if rate >= 1.0 && sampled != e1 {
                fail(
                    "sampling:off-identity",
                    format!(
                        "rate 1.0 must keep the full stream ({} vs {} events)",
                        sampled.len(),
                        e1.len()
                    ),
                );
            }
            // Per-query retention: interesting queries (violations,
            // sheds, drops, timeouts, retries, hedges, crash requeues,
            // admission rejections, in-flight) keep every event; boring
            // queries are all-or-nothing by their hash.
            let count_by_query = |events: &[Event]| {
                let mut m: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
                for e in events {
                    if let Some(q) = e.query() {
                        *m.entry(q).or_insert(0) += 1;
                    }
                }
                m
            };
            let full_counts = count_by_query(&e1);
            let sampled_counts = count_by_query(&sampled);
            for (&q, &w) in &query_weights(&e1, rate) {
                let expect = if w == 1.0 || policy.keeps(q) {
                    full_counts.get(&q).copied().unwrap_or(0)
                } else {
                    0
                };
                let got = sampled_counts.get(&q).copied().unwrap_or(0);
                if got != expect {
                    fail(
                        "sampling:query-coherence",
                        format!("query {q} (weight {w}) kept {got}/{expect} events at rate {rate}"),
                    );
                    break;
                }
            }
            if !conservation(&sampled).holds() {
                fail(
                    "sampling:conservation",
                    format!("conservation broken on the sampled stream at rate {rate}"),
                );
            }
        }

        // Kill–resume dimension: the same scenario survives a kill at a
        // random checkpoint with nothing to show for it — report bytes,
        // telemetry suffix, and the snapshot itself all identical.
        let mut checkpoints = 0u64;
        let mut resumed_from = None;
        if self.kill_resume {
            let every = rng.gen_range(8..96u64);
            let mut scheme = FastestFixed::new(profile.fastest_model(), routing);
            let mut monitor = LoadMonitor::new();
            let mut sink = VecSink::new();
            let mut rec = MemoryRecorder::new();
            let spec = RunSpec::trace(&trace)
                .faults(&plan)
                .telemetry(&mut sink)
                .checkpoints(&mut rec, CheckpointPolicy::every_events(every));
            let full = sim.execute(spec, &mut scheme, &mut monitor)?;
            let full_events = sink.into_events();
            let full_json = serde_json::to_string(&full).expect("reports serialize");
            // Checkpointing on must not perturb the run at all.
            if full_json != serde_json::to_string(&r1).expect("reports serialize") {
                fail(
                    "kill-resume:perturbation",
                    format!("checkpointing changed the report (cadence {every})"),
                );
            }
            if full_events != e1 {
                fail(
                    "kill-resume:perturbation",
                    format!(
                        "checkpointing changed the event stream ({} vs {} events)",
                        full_events.len(),
                        e1.len()
                    ),
                );
            }
            checkpoints = rec.snapshots.len() as u64;
            if !rec.snapshots.is_empty() {
                let kill_at = rng.gen_range(0..rec.snapshots.len());
                let snap = &rec.snapshots[kill_at];
                resumed_from = Some(snap.meta.events_done);
                // The snapshot survives serialization byte-identically.
                let json = snap.to_json();
                match crate::checkpoint::EngineSnapshot::from_json(&json) {
                    Err(e) => fail("kill-resume:snapshot-roundtrip", e.to_string()),
                    Ok(back) if back.to_json() != json => fail(
                        "kill-resume:snapshot-roundtrip",
                        format!(
                            "snapshot at event {} re-serializes differently",
                            snap.meta.events_done
                        ),
                    ),
                    Ok(back) => {
                        let mut scheme = FastestFixed::new(profile.fastest_model(), routing);
                        let mut monitor = LoadMonitor::new();
                        let mut sink = VecSink::new();
                        let spec = RunSpec::trace(&trace)
                            .faults(&plan)
                            .telemetry(&mut sink)
                            .resume_from(&back);
                        match sim.execute(spec, &mut scheme, &mut monitor) {
                            Err(e) => fail("kill-resume:resume", e.to_string()),
                            Ok(resumed) => {
                                let resumed_json =
                                    serde_json::to_string(&resumed).expect("reports serialize");
                                if resumed_json != full_json {
                                    fail(
                                        "kill-resume:report",
                                        format!(
                                            "resume from event {} diverges: {resumed_json} != {full_json}",
                                            snap.meta.events_done
                                        ),
                                    );
                                }
                                let suffix = &full_events[snap.meta.events_emitted as usize..];
                                let resumed_events = sink.into_events();
                                if resumed_events != suffix {
                                    let at = resumed_events
                                        .iter()
                                        .zip(suffix.iter())
                                        .position(|(a, b)| a != b)
                                        .unwrap_or(resumed_events.len().min(suffix.len()));
                                    fail(
                                        "kill-resume:events",
                                        format!(
                                            "resumed suffix diverges at index {at} ({} vs {} events)",
                                            resumed_events.len(),
                                            suffix.len()
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }

        let summary = ChaosRunSummary {
            run,
            seed,
            workers: workers as u32,
            duration_s,
            load_qps,
            routing: format!("{routing:?}"),
            stochastic,
            mechanisms: mechanisms_label(&policy, autoscale.is_some(), health.is_some()),
            arrivals: r2.total_arrivals,
            served: r2.served,
            dropped: r2.dropped,
            timeouts: r2.resilience.timeouts,
            retries: r2.resilience.retries,
            hedges: r2.resilience.hedges_issued,
            admission_shed: r2.resilience.admission_shed,
            autoscaled: autoscale.is_some(),
            scale_ups: r2.autoscale.as_ref().map_or(0, |a| a.scale_ups),
            scale_downs: r2.autoscale.as_ref().map_or(0, |a| a.scale_downs),
            brownout_enters: r2.autoscale.as_ref().map_or(0, |a| a.brownout_enters),
            checkpoints,
            resumed_from,
            decisions,
            detected: health.is_some(),
            suspects: r2.health.as_ref().map_or(0, |h| h.suspects),
            reinstates: r2.health.as_ref().map_or(0, |h| h.reinstates),
            breaker_opens: r2.health.as_ref().map_or(0, |h| h.breaker_opens),
        };
        Ok((summary, failures))
    }
}

/// A randomized resilience policy: each mechanism independently on or
/// off, knobs drawn inside their valid ranges.
fn random_resilience(rng: &mut ChaCha8Rng) -> ResiliencePolicy {
    let mut p = ResiliencePolicy::default();
    if rng.gen::<f64>() < 0.6 {
        p.timeout = Some(TimeoutPolicy {
            slack_fraction: rng.gen_range(0.2..1.0),
            min_timeout_s: rng.gen_range(0.002..0.02),
        });
        p.retry.max_retries = rng.gen_range(0..4);
        p.retry.backoff_base_s = rng.gen_range(0.001..0.01);
        p.retry.backoff_cap_s = p.retry.backoff_base_s * rng.gen_range(1.0..8.0);
        p.retry.jitter_frac = rng.gen_range(0.0..1.0);
        p.retry.jitter_seed = rng.gen();
        p.retry.budget_rate_per_s = rng.gen_range(0.0..100.0);
        p.retry.budget_burst = rng.gen_range(1.0..20.0);
    }
    if rng.gen::<f64>() < 0.5 {
        p.hedge = Some(HedgePolicy {
            quantile: rng.gen_range(50.0..99.0),
            min_samples: rng.gen_range(8..64),
            min_delay_s: rng.gen_range(0.001..0.01),
        });
    }
    if rng.gen::<f64>() < 0.5 {
        p.admission = Some(AdmissionPolicy {
            queue_cap: rng.gen_range(4..64),
            target_sojourn_s: rng.gen_range(0.005..0.05),
            interval_s: rng.gen_range(0.02..0.2),
        });
    }
    p
}

/// A randomized elastic-capacity policy (about half the runs): pool
/// bounds bracketing the initial size so the engine accepts the combo,
/// every controller knob drawn inside its valid range, and brownout on
/// for most elastic runs.
fn random_autoscale(
    rng: &mut ChaCha8Rng,
    workers: usize,
    max_workers: usize,
) -> Option<AutoscalePolicy> {
    if rng.gen::<f64>() < 0.5 {
        return None;
    }
    let mut p = AutoscalePolicy::elastic(
        rng.gen_range(0..workers) + 1,
        rng.gen_range(workers..max_workers.max(workers) + 3),
        rng.gen_range(15.0..120.0),
    );
    p.warmup_s = rng.gen_range(0.0..0.4);
    p.eval_interval_s = rng.gen_range(0.05..0.3);
    p.up_confirm = rng.gen_range(1..4);
    p.down_confirm = rng.gen_range(2..8);
    p.cooldown_s = rng.gen_range(0.0..0.5);
    p.max_step = rng.gen_range(1..4);
    p.brownout = (rng.gen::<f64>() < 0.7).then(|| BrownoutPolicy {
        enter_ratio: rng.gen_range(1.05..1.8),
        exit_ratio: rng.gen_range(0.5..0.95),
        confirm: rng.gen_range(1..6),
        max_rung: 0,
    });
    Some(p)
}

/// A randomized failure-detector policy, every knob inside its
/// valid range. `None` (detector off) for about 60% of runs unless the
/// dimension is forced.
fn random_health(rng: &mut ChaCha8Rng, force: bool) -> Option<HealthPolicy> {
    if !force && rng.gen::<f64>() >= 0.4 {
        return None;
    }
    let mut p = HealthPolicy::probing(rng.gen_range(0.01..0.05));
    p.probe_timeout_s = p.probe_interval_s * rng.gen_range(0.25..1.0);
    p.phi_threshold = rng.gen_range(0.5..2.0);
    p.ewma_alpha = rng.gen_range(0.05..0.5);
    p.outlier_factor = rng.gen_range(2.5..6.0);
    p.outlier_strikes = rng.gen_range(2..5);
    p.close_probes = rng.gen_range(1..4);
    p.open_backoff_s = rng.gen_range(0.02..0.15);
    Some(p)
}

/// A randomized fault plan, ordering-valid by construction
/// ([`FaultPlan::validate`] rejects per-worker anomalies): each worker
/// independently draws crash/recovery episodes *or* a flap window
/// (never both — their physics would overlap), plus gray modes
/// (batch-error windows, heartbeat partitions) that are orthogonal to
/// membership; globally, slowdown windows and possibly a surge.
fn random_plan(rng: &mut ChaCha8Rng, workers: usize, duration_s: f64) -> FaultPlan {
    let crash_policy = if rng.gen::<f64>() < 0.5 {
        CrashPolicy::RequeueToSurvivors
    } else {
        CrashPolicy::Drop
    };
    let mut plan = FaultPlan::none().with_crash_policy(crash_policy);
    for w in 0..workers {
        match rng.gen_range(0..10u32) {
            0..=2 => {
                // One or two crash episodes, strictly alternating.
                let c1 = rng.gen_range(0.0..duration_s * 0.5);
                plan = plan.crash(w, c1);
                if rng.gen::<f64>() < 0.8 {
                    let r1 = c1 + rng.gen_range(0.05..duration_s * 0.3);
                    plan = plan.recover(w, r1);
                    if rng.gen::<f64>() < 0.3 {
                        let c2 = r1 + rng.gen_range(0.02..duration_s * 0.2);
                        plan = plan.crash(w, c2);
                        if rng.gen::<f64>() < 0.5 {
                            plan = plan.recover(w, c2 + rng.gen_range(0.05..duration_s * 0.2));
                        }
                    }
                }
            }
            3..=4 => {
                // A flap window: repeated short crash/recover cycles.
                let from = rng.gen_range(0.0..duration_s * 0.6);
                let to = from + rng.gen_range(0.1..duration_s * 0.4);
                plan = plan.flap(w, from, to, rng.gen_range(0.04..0.3));
            }
            _ => {}
        }
        if rng.gen::<f64>() < 0.25 {
            let from = rng.gen_range(0.0..duration_s * 0.7);
            let to = from + rng.gen_range(0.05..duration_s * 0.3);
            plan = plan.error_rate(w, from, to, rng.gen_range(0.05..0.9));
        }
        if rng.gen::<f64>() < 0.25 {
            let from = rng.gen_range(0.0..duration_s * 0.7);
            let to = from + rng.gen_range(0.05..duration_s * 0.4);
            plan = plan.partition(w, from, to);
        }
    }
    for _ in 0..rng.gen_range(0..3u32) {
        let w = rng.gen_range(0..workers);
        let from = rng.gen_range(0.0..duration_s * 0.8);
        let to = from + rng.gen_range(0.05..duration_s * 0.5);
        plan = plan.slowdown(w, from, to, rng.gen_range(1.5..8.0));
    }
    if rng.gen::<f64>() < 0.4 {
        let from = rng.gen_range(0.0..duration_s * 0.6);
        let to = from + rng.gen_range(0.1..duration_s * 0.4);
        plan = plan.surge(from, to, rng.gen_range(1.5..4.0));
    }
    plan
}

/// Short label of the enabled mechanisms, e.g. `"TRA"` (timeout,
/// retry, admission), `"S"` marking an elastic (autoscaled) run, `"D"`
/// a failure-detector run, or `"-"` for a noop policy.
fn mechanisms_label(p: &ResiliencePolicy, autoscaled: bool, detected: bool) -> String {
    let mut s = String::new();
    if p.timeout.is_some() {
        s.push('T');
        if p.retry.max_retries > 0 {
            s.push('R');
        }
    }
    if p.hedge.is_some() {
        s.push('H');
    }
    if p.admission.is_some() {
        s.push('A');
    }
    if autoscaled {
        s.push('S');
    }
    if detected {
        s.push('D');
    }
    if s.is_empty() {
        s.push('-');
    }
    s
}

/// Runs the invariant battery over one run's two executions.
#[allow(clippy::too_many_arguments)]
fn check_invariants(
    r1: &SimulationReport,
    r2: &SimulationReport,
    e1: &[Event],
    e2: &[Event],
    policy: &ResiliencePolicy,
    autoscale: Option<&AutoscalePolicy>,
    health: Option<&HealthPolicy>,
    plan: &FaultPlan,
    fail: &mut impl FnMut(&str, String),
) {
    check_health_invariants(r1, e1, plan, health, autoscale.is_some(), fail);
    // Determinism: same seed, byte-identical serialized report and
    // identical event stream.
    let j1 = serde_json::to_string(r1).expect("reports serialize");
    let j2 = serde_json::to_string(r2).expect("reports serialize");
    if j1 != j2 {
        fail("determinism:report", format!("{j1} != {j2}"));
    }
    if e1 != e2 {
        let at = e1
            .iter()
            .zip(e2.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(e1.len().min(e2.len()));
        fail(
            "determinism:events",
            format!(
                "streams diverge at index {at} ({} vs {} events)",
                e1.len(),
                e2.len()
            ),
        );
    }

    // Conservation: exactly one terminal state per arrival; anomalies
    // cover double-terminals (completed AND shed) and orphans.
    let c = conservation(e1);
    if !c.holds() {
        fail("conservation", format!("{c:?}"));
    }

    // Counter agreement: trace-derived aggregates match the engine's
    // own counters.
    let a = aggregates(e1);
    let pairs = [
        ("arrivals", a.arrivals, r1.total_arrivals),
        ("served", a.served, r1.served),
        ("violations", a.violations, r1.violations),
        ("dropped", a.dropped, r1.dropped),
        ("timeouts", a.timeouts, r1.resilience.timeouts),
        ("retries", a.retries, r1.resilience.retries),
        (
            "hedges_issued",
            a.hedges_issued,
            r1.resilience.hedges_issued,
        ),
        (
            "hedges_cancelled",
            a.hedges_cancelled,
            r1.resilience.hedges_cancelled,
        ),
        ("admissions", a.admissions, r1.resilience.admission_shed),
    ];
    for (name, from_events, from_report) in pairs {
        if from_events != from_report {
            fail(
                "counter-agreement",
                format!("{name}: events say {from_events}, report says {from_report}"),
            );
        }
    }

    // Burn-rate agreement: the streaming SLO monitor's completion
    // universe is exactly the engine's — completions and violations
    // reconstructed from the event stream equal the report counters.
    let burn = burn_analysis(e1, BurnConfig::for_budget(0.1));
    if burn.completions != r1.served || burn.violations != r1.violations {
        fail(
            "burn-agreement",
            format!(
                "burn monitor saw {}/{} completions/violations, report says {}/{}",
                burn.completions, burn.violations, r1.served, r1.violations
            ),
        );
    }

    // Hedge-cancel consistency: first-wins accounting.
    let res = &r1.resilience;
    if res.hedges_cancelled > res.hedges_issued {
        fail(
            "hedge-consistency",
            format!(
                "{} cancelled > {} issued",
                res.hedges_cancelled, res.hedges_issued
            ),
        );
    }
    if res.hedge_wins > res.hedges_cancelled {
        fail(
            "hedge-consistency",
            format!(
                "{} wins > {} cancelled (a win implies the primary was cancelled)",
                res.hedge_wins, res.hedges_cancelled
            ),
        );
    }

    // Admission bounds: no enqueue past the cap (limbo exempt).
    if let Some(admission) = &policy.admission {
        let cap = admission.queue_cap as u32;
        for e in e1 {
            if let Event::Enqueue { queue, depth, .. } = e {
                if *queue != QueueId::Limbo && *depth > cap {
                    fail(
                        "admission-bounds",
                        format!("enqueue at depth {depth} past cap {cap} on {queue:?}"),
                    );
                    break;
                }
            }
        }
    }

    // Elastic-capacity invariants: the event stream, the report's
    // autoscale block, and the policy bounds must agree.
    if let Some(a) = autoscale {
        let Some(stats) = r1.autoscale.as_ref() else {
            fail(
                "autoscale-stats",
                "elastic run produced a report without an autoscale block".to_string(),
            );
            return;
        };
        let count = |pred: fn(&Event) -> bool| e1.iter().filter(|e| pred(e)).count() as u64;
        let scale_downs = count(|e| matches!(e, Event::ScaleDown { .. }));
        let drains = count(|e| matches!(e, Event::DrainComplete { .. }));
        // Drained-handoff: every scale-in eventually finishes draining
        // (within the horizon — the engine drains at the horizon too).
        if scale_downs != drains {
            fail(
                "drain-handoff",
                format!("{scale_downs} ScaleDown events but {drains} DrainComplete"),
            );
        }
        let pairs = [
            (
                "scale_ups",
                count(|e| matches!(e, Event::ScaleUp { .. })),
                stats.scale_ups,
            ),
            ("scale_downs", scale_downs, stats.scale_downs),
            ("drains_completed", drains, stats.drains_completed),
            (
                "warmups_completed",
                count(|e| matches!(e, Event::WorkerWarm { .. })),
                stats.warmups_completed,
            ),
            (
                "brownout_enters",
                count(|e| matches!(e, Event::BrownoutEnter { .. })),
                stats.brownout_enters,
            ),
            (
                "brownout_exits",
                count(|e| matches!(e, Event::BrownoutExit { .. })),
                stats.brownout_exits,
            ),
        ];
        for (name, from_events, from_report) in pairs {
            if from_events != from_report {
                fail(
                    "autoscale-counter-agreement",
                    format!("{name}: events say {from_events}, report says {from_report}"),
                );
            }
        }
        if stats.max_live_workers > a.max_workers {
            fail(
                "autoscale-bounds",
                format!(
                    "live pool peaked at {} past max_workers {}",
                    stats.max_live_workers, a.max_workers
                ),
            );
        }
        if stats.brownout_exits > stats.brownout_enters {
            fail(
                "brownout-pairing",
                format!(
                    "{} exits > {} enters",
                    stats.brownout_exits, stats.brownout_enters
                ),
            );
        }
    } else if r1.autoscale.is_some() {
        fail(
            "autoscale-stats",
            "non-elastic run produced an autoscale block".to_string(),
        );
    }

    // Terminal counts never exceed arrivals.
    if r1.served + r1.dropped > r1.total_arrivals {
        fail(
            "accounting",
            format!(
                "served {} + dropped {} > arrivals {}",
                r1.served, r1.dropped, r1.total_arrivals
            ),
        );
    }
}

/// The failure-detector invariant battery (DESIGN.md §14), replayed
/// purely from telemetry plus the fault plan's ground truth.
#[allow(clippy::too_many_lines)]
fn check_health_invariants(
    r1: &SimulationReport,
    e1: &[Event],
    plan: &FaultPlan,
    health: Option<&HealthPolicy>,
    autoscaled: bool,
    fail: &mut impl FnMut(&str, String),
) {
    let count = |pred: fn(&Event) -> bool| e1.iter().filter(|e| pred(e)).count() as u64;
    let Some(hp) = health else {
        // Detector off: no health block, no health telemetry at all.
        if r1.health.is_some() {
            fail(
                "health-off",
                "detector-off run produced a health block".to_string(),
            );
        }
        let stray = count(|e| {
            matches!(
                e,
                Event::ProbeSent { .. }
                    | Event::ProbeFailed { .. }
                    | Event::Suspect { .. }
                    | Event::Reinstate { .. }
                    | Event::BreakerOpen { .. }
                    | Event::BreakerHalfOpen { .. }
                    | Event::BreakerClose { .. }
            )
        });
        if stray > 0 {
            fail(
                "health-off",
                format!("detector-off run emitted {stray} health events"),
            );
        }
        return;
    };
    let Some(stats) = r1.health.as_ref() else {
        fail(
            "health-stats",
            "detector run produced a report without a health block".to_string(),
        );
        return;
    };

    // Counter agreement: trace-derived health aggregates match the
    // report's health block field for field.
    let pairs = [
        (
            "probes_sent",
            count(|e| matches!(e, Event::ProbeSent { .. })),
            stats.probes_sent,
        ),
        (
            "probes_failed",
            count(|e| matches!(e, Event::ProbeFailed { .. })),
            stats.probes_failed,
        ),
        (
            "suspects",
            count(|e| matches!(e, Event::Suspect { .. })),
            stats.suspects,
        ),
        (
            "suspects_genuine",
            count(|e| matches!(e, Event::Suspect { genuine: true, .. })),
            stats.suspects_genuine,
        ),
        (
            "reinstates",
            count(|e| matches!(e, Event::Reinstate { .. })),
            stats.reinstates,
        ),
        (
            "breaker_opens",
            count(|e| matches!(e, Event::BreakerOpen { .. })),
            stats.breaker_opens,
        ),
        (
            "breaker_half_opens",
            count(|e| matches!(e, Event::BreakerHalfOpen { .. })),
            stats.breaker_half_opens,
        ),
        (
            "breaker_closes",
            count(|e| matches!(e, Event::BreakerClose { .. })),
            stats.breaker_closes,
        ),
    ];
    for (name, from_events, from_report) in pairs {
        if from_events != from_report {
            fail(
                "health-counter-agreement",
                format!("{name}: events say {from_events}, report says {from_report}"),
            );
        }
    }

    // Breaker DFA: per worker, transitions must follow
    // Closed →(open) Open →(half-open) HalfOpen →(close | re-open), and
    // every Closed→Open pairs with a Suspect, every Close with a
    // Reinstate.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum B {
        Closed,
        Open,
        Half,
    }
    let mut state: std::collections::HashMap<u32, B> = std::collections::HashMap::new();
    let mut closed_to_open = 0u64;
    for e in e1 {
        match e {
            Event::BreakerOpen { worker, .. } => {
                let s = state.entry(*worker).or_insert(B::Closed);
                match *s {
                    B::Closed => closed_to_open += 1,
                    B::Half => {}
                    B::Open => fail(
                        "breaker-dfa",
                        format!("worker {worker}: BreakerOpen while already Open"),
                    ),
                }
                *s = B::Open;
            }
            Event::BreakerHalfOpen { worker, .. } => {
                let s = state.entry(*worker).or_insert(B::Closed);
                if *s != B::Open {
                    fail(
                        "breaker-dfa",
                        format!("worker {worker}: BreakerHalfOpen from {s:?}"),
                    );
                }
                *s = B::Half;
            }
            Event::BreakerClose { worker, .. } => {
                let s = state.entry(*worker).or_insert(B::Closed);
                if *s != B::Half {
                    fail(
                        "breaker-dfa",
                        format!("worker {worker}: BreakerClose from {s:?}"),
                    );
                }
                *s = B::Closed;
            }
            _ => {}
        }
    }
    if closed_to_open != stats.suspects {
        fail(
            "breaker-pairing",
            format!(
                "{closed_to_open} Closed→Open transitions but {} suspects",
                stats.suspects
            ),
        );
    }
    if stats.reinstates != stats.breaker_closes {
        fail(
            "breaker-pairing",
            format!(
                "{} reinstates != {} breaker closes",
                stats.reinstates, stats.breaker_closes
            ),
        );
    }

    // Every genuine suspicion's measured detection lag is within the
    // policy's provable bound.
    let detection_bound_s = hp.detection_bound_s();
    let suspects: Vec<(u32, u64, bool)> = e1
        .iter()
        .filter_map(|e| match e {
            Event::Suspect {
                at,
                worker,
                genuine,
                lag_ns,
            } => {
                if *genuine && (*lag_ns as f64) / 1e9 > detection_bound_s + 1e-6 {
                    fail(
                        "detection-bound",
                        format!(
                            "worker {worker} suspected with lag {:.4}s past bound {:.4}s",
                            (*lag_ns as f64) / 1e9,
                            detection_bound_s
                        ),
                    );
                }
                Some((*worker, *at, *genuine))
            }
            _ => None,
        })
        .collect();
    let reinstates: Vec<(u32, u64)> = e1
        .iter()
        .filter_map(|e| match e {
            Event::Reinstate { at, worker, .. } => Some((*worker, *at)),
            _ => None,
        })
        .collect();

    // The liveness halves need probe runway and a pool the autoscaler
    // is not reshaping underneath the detector.
    let Some(last_tick_s) = e1.iter().rev().find_map(|e| match e {
        Event::ProbeSent { at, .. } => Some(*at as f64 / 1e9),
        _ => None,
    }) else {
        return;
    };
    if autoscaled {
        return;
    }

    // Every explicit crash with enough probe runway before recovery is
    // genuinely suspected within the detection bound — unless the
    // worker was already under suspicion when it went down.
    for e in &plan.events {
        let FaultEvent::WorkerCrash { worker, at_s } = e else {
            continue;
        };
        let w = *worker as u32;
        let c = *at_s;
        let recover_s = plan
            .events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::WorkerRecover {
                    worker: rw,
                    at_s: r,
                } if *rw == *worker && *r >= c => Some(*r),
                _ => None,
            })
            .fold(f64::INFINITY, f64::min);
        let deadline = c + detection_bound_s;
        if deadline > recover_s.min(last_tick_s) {
            continue; // not enough runway to demand detection
        }
        let opens_before = suspects
            .iter()
            .filter(|(sw, t, _)| *sw == w && (*t as f64) / 1e9 <= c)
            .count();
        let closes_before = reinstates
            .iter()
            .filter(|(rw, t)| *rw == w && (*t as f64) / 1e9 <= c)
            .count();
        if opens_before > closes_before {
            continue; // already suspected when it crashed
        }
        let detected = suspects.iter().any(|(sw, t, genuine)| {
            *sw == w && *genuine && {
                let t_s = (*t as f64) / 1e9;
                t_s >= c && t_s <= deadline + 1e-6
            }
        });
        if !detected {
            fail(
                "detection-liveness",
                format!("worker {w} crashed at {c:.3}s, no genuine Suspect by {deadline:.3}s"),
            );
        }
    }

    // Every false suspicion on a worker that never (re)crashes is
    // reinstated within the reinstatement bound of the last gray
    // disturbance touching it.
    let reinstate_bound_s = hp.reinstate_bound_s();
    for (w, t, genuine) in &suspects {
        if *genuine {
            continue;
        }
        let t_s = (*t as f64) / 1e9;
        let crashes_later = plan.events.iter().any(|e| match e {
            FaultEvent::WorkerCrash { worker, at_s } => *worker as u32 == *w && *at_s >= t_s,
            FaultEvent::WorkerFlap { worker, to_s, .. } => *worker as u32 == *w && *to_s >= t_s,
            _ => false,
        });
        if crashes_later {
            continue;
        }
        let mut quiet_s = t_s;
        for e in &plan.events {
            match e {
                FaultEvent::HeartbeatPartition { worker, to_s, .. }
                | FaultEvent::WorkerErrorRate { worker, to_s, .. }
                | FaultEvent::WorkerSlowdown { worker, to_s, .. }
                    if *worker as u32 == *w =>
                {
                    quiet_s = quiet_s.max(*to_s);
                }
                _ => {}
            }
        }
        let deadline = quiet_s + reinstate_bound_s;
        if deadline > last_tick_s {
            continue; // probes stop before the bound can be enforced
        }
        let reinstated = reinstates.iter().any(|(rw, rt)| {
            *rw == *w && {
                let rt_s = (*rt as f64) / 1e9;
                rt_s >= t_s && rt_s <= deadline + 1e-6
            }
        });
        if !reinstated {
            fail(
                "reinstate-liveness",
                format!(
                    "worker {w} falsely suspected at {t_s:.3}s, not reinstated by {deadline:.3}s"
                ),
            );
        }
    }
}

/// One randomized run's shape and headline counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosRunSummary {
    /// Run index within the sweep.
    pub run: u32,
    /// The run's derived seed (reproduces it alone).
    pub seed: u64,
    /// Randomized cluster size.
    pub workers: u32,
    /// Randomized run length, seconds.
    pub duration_s: f64,
    /// Randomized offered load, queries per second.
    pub load_qps: f64,
    /// Routing discipline exercised.
    pub routing: String,
    /// Whether stochastic latency was used.
    pub stochastic: bool,
    /// Enabled mechanisms, as a `TRHA` subset (`-` = none).
    pub mechanisms: String,
    /// Sampled arrivals.
    pub arrivals: u64,
    /// Queries served.
    pub served: u64,
    /// Queries dropped (all causes).
    pub dropped: u64,
    /// Dispatch timeouts fired.
    pub timeouts: u64,
    /// Retries scheduled.
    pub retries: u64,
    /// Hedge duplicates issued.
    pub hedges: u64,
    /// Queries refused by admission control.
    pub admission_shed: u64,
    /// Whether the run drew an elastic (autoscaled) capacity policy.
    pub autoscaled: bool,
    /// Scale-out decisions taken (0 for fixed pools).
    pub scale_ups: u64,
    /// Scale-in decisions taken (0 for fixed pools).
    pub scale_downs: u64,
    /// Brownout ladder engagements (0 for fixed pools).
    pub brownout_enters: u64,
    /// Snapshots taken by the kill–resume dimension (0 when off).
    pub checkpoints: u64,
    /// Event count of the randomly chosen kill point the run resumed
    /// from (`None` when the dimension is off or no snapshot landed).
    pub resumed_from: Option<u64>,
    /// Decision records emitted by the provenance-recording execution.
    pub decisions: u64,
    /// Whether the run drew an enabled failure detector.
    pub detected: bool,
    /// Suspicions raised by the detector (0 when off).
    pub suspects: u64,
    /// Workers reinstated after suspicion (0 when off).
    pub reinstates: u64,
    /// Circuit-breaker open transitions (0 when off).
    pub breaker_opens: u64,
}

/// One violated invariant, with everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosFailure {
    /// Run index within the sweep.
    pub run: u32,
    /// The run's derived seed — rerun with this to reproduce.
    pub seed: u64,
    /// Which invariant broke.
    pub invariant: String,
    /// What was observed.
    pub detail: String,
}

/// The outcome of a chaos sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Master seed of the sweep.
    pub seed: u64,
    /// Runs requested.
    pub runs_requested: u32,
    /// Per-run summaries (setup failures produce no summary).
    pub runs: Vec<ChaosRunSummary>,
    /// Every violated invariant across the sweep.
    pub failures: Vec<ChaosFailure>,
}

impl ChaosReport {
    /// True when every run passed every invariant.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line human summary, naming the first reproducing seed on
    /// failure.
    pub fn summary(&self) -> String {
        let exercised: u64 = self.runs.iter().map(|r| r.arrivals).sum();
        match self.failures.first() {
            None => format!(
                "chaos sweep PASSED: {} runs, {} queries, 0 invariant violations (seed {:#x})",
                self.runs.len(),
                exercised,
                self.seed
            ),
            Some(f) => format!(
                "chaos sweep FAILED: {} violation(s); first: run {} [{}] {} — reproduce with seed {:#x}",
                self.failures.len(),
                f.run,
                f.invariant,
                f.detail,
                f.seed
            ),
        }
    }

    /// Panics with the reproducing seed when any invariant failed
    /// (test/CI convenience).
    ///
    /// # Panics
    ///
    /// Panics with [`Self::summary`] when the sweep failed.
    pub fn expect_pass(&self) {
        assert!(self.passed(), "{}", self.summary());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64, runs: u32) -> ChaosConfig {
        ChaosConfig {
            seed,
            runs,
            max_workers: 3,
            max_duration_s: 1.0,
            max_load_qps: 80.0,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn small_sweep_passes_all_invariants() {
        let report = tiny(7, 6).run_sweep().unwrap();
        assert_eq!(report.runs.len(), 6);
        report.expect_pass();
        // The sweep actually exercised the space: some run enabled a
        // mechanism and queries flowed.
        assert!(report.runs.iter().any(|r| r.mechanisms != "-"));
        assert!(report.runs.iter().map(|r| r.arrivals).sum::<u64>() > 100);
    }

    #[test]
    fn full_default_sweep_passes_all_invariants() {
        // The acceptance bar: 100 randomized plans at the default
        // knobs, every invariant holding.
        let config = ChaosConfig::default();
        assert_eq!(config.runs, 100);
        let report = config.run_sweep().unwrap();
        assert_eq!(report.runs.len(), 100);
        report.expect_pass();
        // The randomization covered the space: every mechanism letter
        // appears somewhere, and at least one run combined several.
        for letter in ["T", "R", "H", "A", "S", "D"] {
            assert!(
                report.runs.iter().any(|r| r.mechanisms.contains(letter)),
                "no run enabled mechanism {letter}"
            );
        }
        assert!(report.runs.iter().any(|r| r.mechanisms.len() >= 3));
        // The elastic dimension genuinely moved the pool somewhere, and
        // fixed-pool runs carried no autoscale artifacts.
        assert!(report.runs.iter().any(|r| r.autoscaled && r.scale_ups > 0));
        assert!(report
            .runs
            .iter()
            .filter(|r| !r.autoscaled)
            .all(|r| r.scale_ups == 0 && r.scale_downs == 0 && r.brownout_enters == 0));
    }

    #[test]
    fn kill_resume_sweep_is_byte_identical() {
        // The durability acceptance bar: ≥50 randomized scenarios, each
        // killed at a random checkpoint and resumed, with byte-identity
        // of the resumed report + telemetry suffix demanded everywhere
        // (alongside the full standing invariant battery).
        let config = ChaosConfig {
            kill_resume: true,
            ..tiny(29, 50)
        };
        let report = config.run_sweep().unwrap();
        assert_eq!(report.runs.len(), 50);
        report.expect_pass();
        // The dimension genuinely exercised kills: snapshots landed and
        // a healthy share of runs resumed from one.
        assert!(report.runs.iter().map(|r| r.checkpoints).sum::<u64>() > 50);
        let resumed = report
            .runs
            .iter()
            .filter(|r| r.resumed_from.is_some())
            .count();
        assert!(resumed >= 20, "only {resumed}/50 runs resumed");
        // Fixed and elastic pools both went through a kill.
        assert!(report
            .runs
            .iter()
            .any(|r| r.autoscaled && r.resumed_from.is_some()));
        assert!(report
            .runs
            .iter()
            .any(|r| !r.autoscaled && r.resumed_from.is_some()));
    }

    #[test]
    fn forced_health_sweep_passes_all_invariants() {
        // The robustness acceptance bar: ≥50 randomized scenarios with
        // the failure detector forced on, gray-failure physics in the
        // plan generator, and the full invariant battery (breaker DFA,
        // detection/reinstatement bounds, counter agreement) holding.
        let config = ChaosConfig {
            health: true,
            ..tiny(41, 50)
        };
        let report = config.run_sweep().unwrap();
        assert_eq!(report.runs.len(), 50);
        report.expect_pass();
        // The dimension genuinely exercised the detector: every run
        // drew one, suspicion fired somewhere, breakers cycled, and at
        // least one false suspicion healed.
        assert!(report.runs.iter().all(|r| r.detected));
        assert!(report.runs.iter().map(|r| r.suspects).sum::<u64>() >= 10);
        assert!(report.runs.iter().any(|r| r.breaker_opens > r.suspects));
        assert!(report.runs.iter().any(|r| r.reinstates > 0));
    }

    #[test]
    fn sampling_invariants_hold_over_a_randomized_sweep() {
        // ≥50 randomized scenarios, each re-run through the
        // query-coherent sampling sink at a seeded rate drawn from
        // {1.0, 0.5, 0.1, 0.01}: report identity, exact-subsequence,
        // query coherence, and conservation all hold.
        let report = tiny(0x5A_4D71, 50).run_sweep().unwrap();
        assert_eq!(report.runs.len(), 50);
        report.expect_pass();
    }

    #[test]
    fn sweeps_are_reproducible() {
        let a = tiny(11, 4).run_sweep().unwrap();
        let b = tiny(11, 4).run_sweep().unwrap();
        assert_eq!(a, b);
        assert_ne!(a.runs, tiny(12, 4).run_sweep().unwrap().runs);
    }

    #[test]
    fn sabotage_reports_the_reproducing_seed() {
        let mut config = tiny(3, 2);
        config.sabotage = true;
        let report = config.run_sweep().unwrap();
        assert!(!report.passed());
        let f = &report.failures[0];
        assert_eq!(f.seed, config.run_seed(f.run));
        assert!(report.summary().contains(&format!("{:#x}", f.seed)));
        assert_eq!(f.invariant, "counter-agreement");
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        for bad in [
            ChaosConfig {
                runs: 0,
                ..ChaosConfig::default()
            },
            ChaosConfig {
                max_workers: 0,
                ..ChaosConfig::default()
            },
            ChaosConfig {
                max_duration_s: f64::NAN,
                ..ChaosConfig::default()
            },
            ChaosConfig {
                max_load_qps: -5.0,
                ..ChaosConfig::default()
            },
        ] {
            assert!(bad.validate().is_err());
            assert!(bad.run_sweep().is_err());
        }
    }
}
