//! The three workloads: their inputs, set-up, timed region, output
//! checks and metrics.

use std::time::{Duration, Instant};

use ramsis_core::{
    Discretization, Guarantees, PolicyConfig, PolicyLibrary, PolicySet, WorkerPolicy,
};
use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_sim::{
    AdaptiveRamsis, FaultPlan, HealthPolicy, Profiler, RamsisScheme, ResiliencePolicy,
    ServingScheme, SimError, Simulation, SimulationConfig, SimulationReport,
};
use ramsis_stats::PoissonProcess;
use ramsis_telemetry::{
    conservation, parse_tolerant, BinSink, DecisionSink, JsonlDecisionSink, NullDecisionSink,
    NullSink, TelemetrySink,
};
use ramsis_workload::{
    DispersionClass, DriftDetector, DriftDetectorConfig, LoadEstimator, LoadMonitor, RegimeGrid,
    RegimeKey, Trace,
};

use crate::layers::{
    ByteCounter, CallStats, Span, TimedDecisions, TimedEstimator, TimedScheme, TimedSink, Tracer,
};
use crate::offline::{decompose, guarantees_in_range, Decomposed};

pub const SLO_S: f64 = 0.15;
/// FLD discretization steps of every policy the benchmark solves.
pub const FLD_D: u32 = 25;
/// The ladder's cluster size: the paper's image-task worker count.
pub const LADDER_WORKERS: usize = 60;
/// The online workloads' cluster size: the SLO knee of the twitter-like
/// trace under the 8-load set (p99 just under the 150 ms SLO).
pub const ONLINE_WORKERS: usize = 56;
/// Set-up is repeated at least this many times, and for at least
/// `SETUP_MIN_S`, per run; its median is reported.
pub const SETUP_REPEATS: usize = 3;
pub const SETUP_MIN_S: f64 = 1.0;
/// Upper rate edges (QPS) of the adaptive scheme's regime grid.
pub const REGIME_EDGES_QPS: [f64; 4] = [2_000.0, 2_600.0, 3_200.0, 4_400.0];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PolicyLadder,
    TraceReplay,
    ChaosObserved,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PolicyLadder,
        Workload::TraceReplay,
        Workload::ChaosObserved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PolicyLadder => "policy_ladder",
            Workload::TraceReplay => "trace_replay",
            Workload::ChaosObserved => "chaos_observed",
        }
    }
}

/// Operations attempted and failed: policy solves, simulation runs and
/// output checks.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Books `n` operations that together returned `result`.
    fn ops<T, E: std::fmt::Display>(
        &mut self,
        n: u64,
        result: Result<T, E>,
        what: &str,
    ) -> Option<T> {
        self.attempted += n;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += n;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// What a run measured: metrics by name with their unit, plus facts
/// about the inputs for the provenance line.
#[derive(Debug, Default)]
pub struct Measured {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub counts: Vec<(&'static str, u64)>,
    /// Wall seconds of every untraced timed unit, in run order.
    pub walls: Vec<f64>,
}

impl Measured {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Runs `unit` at least once and then again while the next run is
/// predicted (from the median so far) to end within `seconds`.
fn repeat_within(seconds: f64, mut unit: impl FnMut()) {
    let started = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t0 = Instant::now();
        unit();
        walls.push(t0.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() + median(&walls) > seconds {
            break;
        }
    }
}

fn profile() -> WorkerProfile {
    WorkerProfile::build(
        &ModelCatalog::torchvision_image(),
        Duration::from_secs_f64(SLO_S),
        ProfilerConfig::default(),
    )
}

fn policy_config(workers: usize) -> PolicyConfig {
    PolicyConfig::builder(Duration::from_secs_f64(SLO_S))
        .workers(workers)
        .discretization(Discretization::fixed_length(FLD_D))
        .build()
}

/// `ramsis-cli gen`'s default grid: 200 to 4,000 QPS in steps of 200.
pub fn ladder_loads() -> Vec<f64> {
    (1..=20).map(|i| 200.0 * f64::from(i)).collect()
}

/// The production-trace policy set's loads: 8 points from half the
/// trace's minimum to 10% above its maximum (the quick-config Fig. 5
/// grid of the experiment harness).
pub fn replay_loads() -> Vec<f64> {
    let (lo, hi) = (Trace::TWITTER_MIN_QPS * 0.5, Trace::TWITTER_MAX_QPS * 1.1);
    (0..8)
        .map(|i| (lo + (hi - lo) * f64::from(i) / 7.0).round())
        .collect()
}

/// Faults injected into `chaos_observed`: a straggler, an arrival
/// surge, a crash with recovery, and a flapping worker, spread over the
/// five-minute trace.
pub fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .slowdown(3, 40.0, 100.0, 3.0)
        .surge(120.0, 150.0, 1.3)
        .crash(7, 170.0)
        .recover(7, 210.0)
        .flap(11, 230.0, 270.0, 4.0)
}

fn sim_config(seed: u64, chaos: bool) -> SimulationConfig {
    let config = SimulationConfig::new(ONLINE_WORKERS, SLO_S).seeded(seed);
    if chaos {
        // `all_on()` stays at its defaults on purpose: see README.
        config
            .with_resilience(ResiliencePolicy::all_on())
            .with_health(HealthPolicy::probing(0.05))
    } else {
        config
    }
}

/// Every call into `Simulation`'s run methods goes through here.
#[allow(clippy::too_many_arguments)]
pub fn simulate(
    sim: &Simulation,
    trace: &Trace,
    plan: &FaultPlan,
    scheme: &mut dyn ServingScheme,
    estimator: &mut dyn LoadEstimator,
    sink: &mut dyn TelemetrySink,
    decisions: &mut dyn DecisionSink,
    prof: &mut Profiler,
) -> Result<SimulationReport, SimError> {
    sim.run_faulted_traced_decisions_profiled(trace, plan, scheme, estimator, sink, decisions, prof)
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n as f64
}

/// Offline per-layer totals over the policies of one set.
#[derive(Debug, Default)]
struct OfflineLayers {
    states: usize,
    actions: usize,
    transitions: usize,
    sweeps: usize,
    backups: u64,
}

/// Replays `generate_policy` for every policy of `policies` under a
/// `set` span and checks each against the policy it reproduces.
fn decompose_set(
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    profile: &WorkerProfile,
    config: &PolicyConfig,
    policies: &[&WorkerPolicy],
) -> OfflineLayers {
    let set = tracer.open("set", None);
    let mut totals = OfflineLayers::default();
    for policy in policies {
        let span = tracer.open("policy", Some(set));
        let process = PoissonProcess::per_second(policy.design_load_qps);
        let result = decompose(tracer, Some(span), profile, &process, config);
        tracer.close(span);
        let Some(d): Option<Decomposed> = ledger.ops(1, result, "decomposed solve") else {
            continue;
        };
        ledger.check(d.matches(policy), || {
            format!(
                "decomposed solve at {} QPS differs from generate_policy",
                policy.design_load_qps
            )
        });
        totals.states += d.states;
        totals.actions += d.actions_total;
        totals.transitions += d.transitions;
        totals.sweeps += d.sweeps;
        totals.backups += (d.sweeps * d.transitions) as u64;
    }
    tracer.close(set);
    totals
}

fn put_offline(m: &mut Measured, tracer: &Tracer, t: &OfflineLayers, sets: f64) {
    m.put(
        "generator.assemble_s",
        tracer.total_s("generator.assemble") / sets,
        "s",
    );
    m.put("mdp.states", t.states as f64, "count");
    m.put("mdp.actions", t.actions as f64, "count");
    m.put("mdp.transitions", t.transitions as f64, "count");
    m.put("mdp.solve_s", tracer.total_s("mdp.solve") / sets, "s");
    m.put("mdp.solve_sweeps", t.sweeps as f64, "count");
    m.put("mdp.backups", t.backups as f64, "count");
    m.put(
        "mdp.stationary_s",
        tracer.total_s("mdp.stationary") / sets,
        "s",
    );
    m.put(
        "guarantees.compute_s",
        tracer.total_s("guarantees.compute") / sets,
        "s",
    );
    let set_wall = tracer.total_s("set");
    m.put(
        "share.assemble",
        tracer.total_s("generator.assemble") / set_wall,
        "ratio",
    );
    m.put(
        "share.solve",
        tracer.total_s("mdp.solve") / set_wall,
        "ratio",
    );
}

/// Builds the profile (and, for the online workloads, the policies)
/// repeatedly, `SETUP_REPEATS` times and for at least `SETUP_MIN_S`;
/// returns the last result and every duration.
fn set_up<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let started = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t0 = Instant::now();
        let built = build();
        secs.push(t0.elapsed().as_secs_f64());
        if secs.len() >= SETUP_REPEATS && started.elapsed().as_secs_f64() >= SETUP_MIN_S {
            return (built, secs);
        }
    }
}

fn check_set(ledger: &mut Ledger, set: &PolicySet) {
    for p in set.policies() {
        ledger.check(guarantees_in_range(p.guarantees()), || {
            format!(
                "guarantees at {} QPS out of range: {:?}",
                p.design_load_qps,
                p.guarantees()
            )
        });
    }
}

// ---------------------------------------------------------------------
// policy_ladder
// ---------------------------------------------------------------------

pub fn policy_ladder(
    seconds: f64,
    traced: bool,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> Measured {
    let mut m = Measured::default();
    let (profile, setup) = set_up(|| tracer.span("profiles.build", None, profile));
    let config = policy_config(LADDER_WORKERS);
    let loads = ladder_loads();
    let n = loads.len() as u64;

    let mut walls = Vec::new();
    let mut gen_secs = Vec::new();
    let mut first: Option<PolicySet> = None;
    let mut traced_walls = Vec::new();
    let mut offline = OfflineLayers::default();
    repeat_within(seconds, || {
        let t0 = Instant::now();
        let result = PolicySet::generate_poisson(&profile, &loads, &config);
        walls.push(t0.elapsed().as_secs_f64());
        let Some(set) = ledger.ops(n, result, "policy ladder") else {
            return;
        };
        gen_secs.extend(set.policies().iter().map(|p| p.generation_seconds));
        match &first {
            None => {
                check_set(ledger, &set);
                first = Some(set);
            }
            Some(f) => ledger.check(*f == set_without_times(&set, f), || {
                "a repeated ladder solved to different policies".to_string()
            }),
        }
        if traced {
            let reference = first.as_ref().expect("first ladder kept");
            let t0 = Instant::now();
            let policies: Vec<&WorkerPolicy> = reference.policies().iter().collect();
            offline = decompose_set(tracer, ledger, &profile, &config, &policies);
            traced_walls.push(t0.elapsed().as_secs_f64());
        }
    });

    let set = first.as_ref();
    m.walls = walls.clone();
    m.counts.push(("policies_per_ladder", n));
    m.counts.push(("ladders", walls.len() as u64));
    m.put("ladder_wall_s", median(&walls), "s");
    m.put("throughput_per_s", n as f64 / median(&walls), "1/s");
    m.put("policy_gen_p50_s", median(&gen_secs), "s");
    m.put("setup_s", median(&setup), "s");
    // The ladder's serving outcome is the one §5.1 predicts.
    let expected = |g: fn(&Guarantees) -> f64| {
        set.map_or(f64::NAN, |s| {
            mean(s.policies().iter().map(|p| g(p.guarantees())))
        })
    };
    let accuracy = expected(|g| g.expected_accuracy);
    m.put("expected_accuracy_pct", accuracy, "%");
    m.put("accuracy_pct", accuracy, "%");
    m.put(
        "expected_violation_pct",
        expected(|g| 100.0 * g.expected_violation_rate),
        "%",
    );
    if traced {
        m.put("profiles.build_s", median(&setup), "s");
        put_offline(&mut m, tracer, &offline, traced_walls.len() as f64);
        m.put("trace.wall_s", median(&traced_walls), "s");
        m.put(
            "trace.overhead_ratio",
            median(&traced_walls) / median(&walls),
            "ratio",
        );
    } else {
        m.put("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    }
    m
}

/// `set` with each policy's `generation_seconds` replaced by the one in
/// `like`, so two solves of the same ladder compare on content alone.
fn set_without_times(set: &PolicySet, like: &PolicySet) -> PolicySet {
    let policies = set
        .policies()
        .iter()
        .zip(like.policies())
        .map(|(p, l)| {
            let mut p = p.clone();
            p.generation_seconds = l.generation_seconds;
            p
        })
        .collect();
    PolicySet::from_policies(policies).expect("a generated set is never empty")
}

// ---------------------------------------------------------------------
// trace_replay and chaos_observed
// ---------------------------------------------------------------------

/// The policies a replay serves from, built during set-up.
enum Serving {
    Set(PolicySet),
    Library(PolicyLibrary),
}

impl Serving {
    fn build(profile: &WorkerProfile, chaos: bool, config: &PolicyConfig) -> Result<Self, String> {
        if !chaos {
            return PolicySet::generate_poisson(profile, &replay_loads(), config)
                .map(Serving::Set)
                .map_err(|e| e.to_string());
        }
        PolicyLibrary::generate_poisson_bins(
            profile,
            RegimeGrid::new(REGIME_EDGES_QPS.to_vec()),
            PolicyLibrary::DEFAULT_BURSTY_DISPERSION,
            config,
        )
        .map(Serving::Library)
        .map_err(|e| e.to_string())
    }

    fn policies(&self) -> Vec<&WorkerPolicy> {
        match self {
            Serving::Set(set) => set.policies().iter().collect(),
            Serving::Library(library) => library
                .regimes()
                .into_iter()
                .filter_map(|k| library.get(k))
                .flat_map(|s| s.policies())
                .collect(),
        }
    }

    /// A fresh scheme, so every replay of a run does the same work
    /// (including the adaptive scheme's lazy solves). The adaptive one
    /// starts in the Poisson regime of the trace's first interval.
    fn scheme(
        &self,
        profile: &WorkerProfile,
        config: &PolicyConfig,
        trace: &Trace,
    ) -> Result<Box<dyn ServingScheme>, SimError> {
        Ok(match self {
            Serving::Set(set) => Box::new(RamsisScheme::new(set.clone())),
            Serving::Library(library) => {
                let first_qps = trace.segments().first().map_or(0.0, |&(_, qps)| qps);
                let initial =
                    RegimeKey::new(library.grid().rate_bin(first_qps), DispersionClass::Poisson);
                let detector = DriftDetector::new(
                    library.grid().clone(),
                    DriftDetectorConfig::default(),
                    initial,
                );
                // One online solve per bursty bin at most.
                Box::new(
                    AdaptiveRamsis::new(profile, config.clone(), library.clone(), detector)?
                        .with_lazy_solve_budget(REGIME_EDGES_QPS.len() as u64),
                )
            }
        })
    }
}

/// Per-query layer timings of one traced replay.
#[derive(Debug, Default)]
struct LayerTimes {
    select: CallStats,
    on_arrival: CallStats,
    monitor: CallStats,
    telemetry: CallStats,
    decisions: CallStats,
    lazy_solve_s: f64,
    lazy_spans: usize,
    engine_self_s: f64,
    events: u64,
    dispatches: u64,
}

impl LayerTimes {
    fn merge(&mut self, o: &LayerTimes) {
        self.select.merge(&o.select);
        self.on_arrival.merge(&o.on_arrival);
        self.monitor.merge(&o.monitor);
        self.telemetry.merge(&o.telemetry);
        self.decisions.merge(&o.decisions);
        self.lazy_solve_s += o.lazy_solve_s;
        self.lazy_spans += o.lazy_spans;
        self.engine_self_s += o.engine_self_s;
        self.events += o.events;
        self.dispatches += o.dispatches;
    }
}

struct Replay {
    report: SimulationReport,
    wall_s: f64,
    telemetry_events: u64,
    telemetry_bytes: u64,
    decision_bytes: u64,
    decision_lines: u64,
    kept: Option<Vec<u8>>,
    layers: Option<LayerTimes>,
}

struct Online<'a> {
    profile: &'a WorkerProfile,
    config: &'a PolicyConfig,
    serving: &'a Serving,
    sim: Simulation<'a>,
    trace: Trace,
    plan: FaultPlan,
    observed: bool,
}

impl Online<'_> {
    /// One replay of the trace. With a tracer every per-query layer is
    /// wrapped in a timer under a `replay` span. `keep` keeps the
    /// binary telemetry for decoding and leaves out the decision log
    /// (the event stream is the same with or without it), for an untimed
    /// check replay.
    fn replay(&self, tracer: Option<&mut Tracer>, keep: bool) -> Result<Replay, SimError> {
        let mut scheme = self
            .serving
            .scheme(self.profile, self.config, &self.trace)?;
        let mut monitor = LoadMonitor::new();
        let mut bin = BinSink::new(if keep {
            ByteCounter::keeping()
        } else {
            ByteCounter::default()
        });
        let mut jsonl = JsonlDecisionSink::new(ByteCounter::default());
        let (mut null_sink, mut null_decisions) = (NullSink, NullDecisionSink);
        let (sink, decisions): (&mut dyn TelemetrySink, &mut dyn DecisionSink) =
            match (self.observed, keep) {
                (true, false) => (&mut bin, &mut jsonl),
                (true, true) => (&mut bin, &mut null_decisions),
                (false, _) => (&mut null_sink, &mut null_decisions),
            };

        let (report, wall_s, layers) = match tracer {
            None => {
                let t0 = Instant::now();
                let report = simulate(
                    &self.sim,
                    &self.trace,
                    &self.plan,
                    scheme.as_mut(),
                    &mut monitor,
                    sink,
                    decisions,
                    &mut Profiler::off(),
                )?;
                (report, t0.elapsed().as_secs_f64(), None)
            }
            Some(tracer) => {
                let root = tracer.open("replay", None);
                let mut prof = Profiler::on();
                let mut ts = TimedScheme::new(scheme.as_mut(), tracer.origin());
                let mut te = TimedEstimator::new(&mut monitor);
                let mut tsink = TimedSink::new(sink);
                let mut td = TimedDecisions::new(decisions);
                let t0 = Instant::now();
                let result = simulate(
                    &self.sim,
                    &self.trace,
                    &self.plan,
                    &mut ts,
                    &mut te,
                    &mut tsink,
                    &mut td,
                    &mut prof,
                );
                let wall_s = t0.elapsed().as_secs_f64();
                tracer.close(root);
                let report = result?;
                let counters = prof.report();
                let lazy_solve_s: f64 = ts
                    .lazy_spans
                    .iter()
                    .map(|&(a, b)| (b - a) as f64 * 1e-9)
                    .sum();
                for &(start_ns, end_ns) in &ts.lazy_spans {
                    tracer.spans.push(Span {
                        name: "adaptive.lazy_solve",
                        start_ns,
                        end_ns,
                        parent: Some(root),
                    });
                }
                let callees = ts.select.total_s()
                    + ts.on_arrival.total_s()
                    + te.calls.total_s()
                    + tsink.calls.total_s()
                    + td.calls.total_s();
                let layers = LayerTimes {
                    lazy_spans: ts.lazy_spans.len(),
                    select: ts.select,
                    on_arrival: ts.on_arrival,
                    monitor: te.calls,
                    telemetry: tsink.calls,
                    decisions: td.calls,
                    lazy_solve_s,
                    engine_self_s: wall_s - callees,
                    events: counters.counter("heap_pops"),
                    dispatches: counters.counter("dispatches"),
                };
                (report, wall_s, Some(layers))
            }
        };
        let telemetry_events = bin.records();
        let bin = bin
            .finish()
            .map_err(|e| SimError::InvalidConfig(e.to_string()))?;
        let decision_lines = jsonl.lines();
        let jsonl = jsonl
            .finish()
            .map_err(|e| SimError::InvalidConfig(e.to_string()))?;
        Ok(Replay {
            report,
            wall_s,
            telemetry_events,
            telemetry_bytes: if self.observed { bin.bytes } else { 0 },
            decision_bytes: jsonl.bytes,
            decision_lines,
            kept: bin.kept,
            layers,
        })
    }
}

fn check_report(ledger: &mut Ledger, r: &SimulationReport) {
    ledger.check(r.served + r.dropped == r.total_arrivals, || {
        format!(
            "report does not conserve arrivals: served {} + dropped {} != {}",
            r.served, r.dropped, r.total_arrivals
        )
    });
}

/// Decodes a replay's binary telemetry and checks it is whole and
/// conserves every query.
fn check_telemetry(ledger: &mut Ledger, bytes: &[u8]) {
    match parse_tolerant(bytes) {
        Ok(log) => {
            ledger.check(log.torn_tail.is_none(), || {
                format!("telemetry has a torn tail: {:?}", log.torn_tail)
            });
            let c = conservation(&log.events);
            ledger.check(c.holds(), || format!("telemetry conservation fails: {c:?}"));
        }
        Err(e) => ledger.check(false, || format!("telemetry does not decode: {e}")),
    }
}

pub fn online(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> Measured {
    let chaos = workload == Workload::ChaosObserved;
    let mut m = Measured::default();
    let config = policy_config(ONLINE_WORKERS);
    let mut build_s = Vec::new();
    let ((profile, serving), setup) = set_up(|| {
        let t0 = Instant::now();
        let profile = tracer.span("profiles.build", None, profile);
        build_s.push(t0.elapsed().as_secs_f64());
        let serving = tracer.span("serving.build", None, || {
            Serving::build(&profile, chaos, &config)
        });
        (profile, serving)
    });
    let n_policies = match &serving {
        Ok(s) => s.policies().len() as u64,
        Err(_) => 1,
    };
    let Some(serving) = ledger.ops(n_policies * setup.len() as u64, serving, "set-up solves")
    else {
        return m;
    };
    let policies = serving.policies();
    for p in &policies {
        ledger.check(guarantees_in_range(p.guarantees()), || {
            format!("guarantees at {} QPS out of range", p.design_load_qps)
        });
    }
    let sim = match Simulation::new(&profile, sim_config(seed, chaos)) {
        Ok(sim) => sim,
        Err(e) => {
            ledger.check(false, || format!("simulation config: {e}"));
            return m;
        }
    };
    let online = Online {
        profile: &profile,
        config: &config,
        serving: &serving,
        sim,
        trace: Trace::twitter_like(seed),
        plan: if chaos {
            chaos_plan()
        } else {
            FaultPlan::none()
        },
        observed: chaos,
    };

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut first: Option<String> = None;
    let mut last: Option<Replay> = None;
    let mut layers = LayerTimes::default();
    let mut lazy_solves = 0u64;
    repeat_within(seconds, || {
        let mut runs = vec![false];
        if traced {
            runs.push(true);
        }
        for with_tracer in runs {
            let result = online.replay(with_tracer.then_some(&mut *tracer), false);
            let Some(replay) = ledger.ops(1, result, "simulation run") else {
                continue;
            };
            check_report(ledger, &replay.report);
            let json = serde_json::to_string(&replay.report).expect("reports serialize");
            match &first {
                None => first = Some(json),
                Some(f) => ledger.check(*f == json, || {
                    "a repeated replay produced a different report".to_string()
                }),
            }
            if let Some(l) = &replay.layers {
                traced_walls.push(replay.wall_s);
                layers.merge(l);
                lazy_solves += replay.report.adaptive.as_ref().map_or(0, |a| a.lazy_solves);
            } else {
                walls.push(replay.wall_s);
            }
            last = Some(Replay {
                layers: None,
                ..replay
            });
        }
    });
    if traced && chaos {
        if let Some(check) = ledger.ops(1, online.replay(None, true), "simulation run") {
            let json = serde_json::to_string(&check.report).expect("reports serialize");
            ledger.check(first.as_ref() == Some(&json), || {
                "the telemetry check replay produced a different report".to_string()
            });
            check_telemetry(ledger, check.kept.as_deref().unwrap_or_default());
        }
    }

    let Some(replay) = last else {
        return m;
    };
    m.walls = walls.clone();
    let r = &replay.report;
    m.counts.push(("arrivals_per_replay", r.total_arrivals));
    m.counts.push(("replays", walls.len() as u64));
    m.counts.push(("policies_in_setup", policies.len() as u64));
    let arrivals_per_s = r.total_arrivals as f64 / median(&walls);
    m.put("sim_arrivals_per_s", arrivals_per_s, "1/s");
    m.put("throughput_per_s", arrivals_per_s, "1/s");
    m.put("setup_s", median(&setup), "s");
    m.put("accuracy_pct", r.accuracy_per_satisfied_query, "%");
    m.put("miss_or_loss_rate", r.miss_or_loss_rate(), "ratio");
    m.put("p50_response_ms", 1e3 * r.p50_response_s, "ms");
    m.put("p99_response_ms", 1e3 * r.p99_response_s, "ms");
    if !traced {
        m.put("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
        return m;
    }

    // Per-layer metrics, per replay.
    let n = traced_walls.len() as f64;
    ledger.check(layers.lazy_spans as u64 == lazy_solves, || {
        format!(
            "{} lazy-solve spans for {} lazy solves",
            layers.lazy_spans, lazy_solves
        )
    });
    m.put("profiles.build_s", median(&build_s), "s");
    let offline = decompose_set(tracer, ledger, &profile, &config, &policies);
    put_offline(&mut m, tracer, &offline, 1.0);
    m.put(
        "scheme.select_calls",
        layers.select.calls as f64 / n,
        "count",
    );
    m.put("scheme.select_s", layers.select.total_s() / n, "s");
    m.put("scheme.select_p50_us", layers.select.quantile_us(0.5), "us");
    m.put(
        "scheme.select_p99_us",
        layers.select.quantile_us(0.99),
        "us",
    );
    m.put("scheme.on_arrival_s", layers.on_arrival.total_s() / n, "s");
    m.put(
        "scheme.on_arrival_p50_us",
        layers.on_arrival.quantile_us(0.5),
        "us",
    );
    m.put(
        "scheme.on_arrival_p99_us",
        layers.on_arrival.quantile_us(0.99),
        "us",
    );
    let adaptive = r.adaptive.as_ref();
    m.put("adaptive.lazy_solves", lazy_solves as f64 / n, "count");
    m.put("adaptive.lazy_solve_s", layers.lazy_solve_s / n, "s");
    m.put(
        "adaptive.swaps",
        adaptive.map_or(0, |a| a.swaps) as f64,
        "count",
    );
    m.put(
        "adaptive.fallback_decisions",
        adaptive.map_or(0, |a| a.fallback_decisions) as f64,
        "count",
    );
    m.put("monitor.calls", layers.monitor.calls as f64 / n, "count");
    m.put("monitor.s", layers.monitor.total_s() / n, "s");
    m.put("monitor.p50_us", layers.monitor.quantile_us(0.5), "us");
    m.put("monitor.p99_us", layers.monitor.quantile_us(0.99), "us");
    // engine.self_s is the traced wall less the wrapped callees, so the
    // layers' times add up to the wall by construction; a negative rest
    // would mean a callee was booked twice.
    ledger.check(layers.engine_self_s > 0.0, || {
        format!(
            "wrapped callees exceed the run wall by {} s",
            -layers.engine_self_s
        )
    });
    m.put("engine.self_s", layers.engine_self_s / n, "s");
    m.put("engine.events", layers.events as f64 / n, "count");
    m.put("engine.dispatches", layers.dispatches as f64 / n, "count");
    let rs = &r.resilience;
    m.put("resilience.timeouts", rs.timeouts as f64, "count");
    m.put("resilience.retries", rs.retries as f64, "count");
    m.put(
        "resilience.hedge_win_ratio",
        if rs.hedges_issued > 0 {
            rs.hedge_wins as f64 / rs.hedges_issued as f64
        } else {
            0.0
        },
        "ratio",
    );
    let health = r.health.as_ref();
    m.put(
        "health.probes",
        health.map_or(0, |h| h.probes_sent) as f64,
        "count",
    );
    m.put(
        "health.false_suspicions",
        health.map_or(0, |h| h.suspects_false) as f64,
        "count",
    );
    m.put("telemetry.events", replay.telemetry_events as f64, "count");
    m.put("telemetry.record_s", layers.telemetry.total_s() / n, "s");
    m.put(
        "telemetry.record_p50_us",
        layers.telemetry.quantile_us(0.5),
        "us",
    );
    m.put(
        "telemetry.record_p99_us",
        layers.telemetry.quantile_us(0.99),
        "us",
    );
    m.put("telemetry.bytes", replay.telemetry_bytes as f64, "B");
    m.put("decisions.records", replay.decision_lines as f64, "count");
    m.put("decisions.record_s", layers.decisions.total_s() / n, "s");
    m.put(
        "decisions.record_p50_us",
        layers.decisions.quantile_us(0.5),
        "us",
    );
    m.put(
        "decisions.record_p99_us",
        layers.decisions.quantile_us(0.99),
        "us",
    );
    m.put("decisions.bytes", replay.decision_bytes as f64, "B");
    // Self-time shares of the traced replays' wall; they add up to 1.
    let traced_wall: f64 = traced_walls.iter().sum();
    for (name, seconds) in [
        ("scheme.select_share", layers.select.total_s()),
        (
            "scheme.on_arrival_self_share",
            layers.on_arrival.total_s() - layers.lazy_solve_s,
        ),
        ("adaptive.lazy_solve_share", layers.lazy_solve_s),
        ("monitor.share", layers.monitor.total_s()),
        ("telemetry.record_share", layers.telemetry.total_s()),
        ("decisions.record_share", layers.decisions.total_s()),
        ("engine.self_share", layers.engine_self_s),
    ] {
        m.put(name, seconds / traced_wall, "ratio");
    }
    m.put("trace.wall_s", median(&traced_walls), "s");
    m.put(
        "trace.overhead_ratio",
        median(&traced_walls) / median(&walls),
        "ratio",
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramsis_workload::TraceKind;

    /// One small seeded run with faults, resilience, health probing and
    /// both observers, through [`simulate`]; with `wrapped` every
    /// per-query layer goes through its timing wrapper and the profiler
    /// is on, as in a traced benchmark run. Returns the report as JSON,
    /// the binary event stream and the decision log.
    fn small_run(adaptive: bool, wrapped: bool) -> (String, Vec<u8>, Vec<u8>) {
        let profile = profile();
        let config = PolicyConfig::builder(Duration::from_secs_f64(SLO_S))
            .workers(4)
            .discretization(Discretization::fixed_length(8))
            .build();
        let trace = Trace::from_interval_qps(&[120.0, 260.0, 90.0, 300.0], 5.0, TraceKind::Custom);
        let mut scheme: Box<dyn ServingScheme> = if adaptive {
            let grid = RegimeGrid::new(vec![150.0, 250.0, 350.0]);
            let initial = RegimeKey::new(grid.rate_bin(120.0), DispersionClass::Poisson);
            let library = PolicyLibrary::generate_poisson_bins(
                &profile,
                grid.clone(),
                PolicyLibrary::DEFAULT_BURSTY_DISPERSION,
                &config,
            )
            .expect("bins solve");
            let detector = DriftDetector::new(grid, DriftDetectorConfig::default(), initial);
            Box::new(
                AdaptiveRamsis::new(&profile, config.clone(), library, detector)
                    .expect("initial regime solved")
                    .with_lazy_solve_budget(3),
            )
        } else {
            let set = PolicySet::generate_poisson(&profile, &[150.0, 350.0], &config)
                .expect("set solves");
            Box::new(RamsisScheme::new(set))
        };
        let sim = Simulation::new(
            &profile,
            SimulationConfig::new(4, SLO_S)
                .seeded(7)
                .with_resilience(ResiliencePolicy::all_on())
                .with_health(HealthPolicy::probing(0.05)),
        )
        .expect("valid config");
        let plan = FaultPlan::none()
            .slowdown(1, 2.0, 6.0, 3.0)
            .surge(8.0, 10.0, 1.5)
            .crash(2, 11.0)
            .recover(2, 14.0)
            .flap(3, 15.0, 19.0, 1.0);
        let mut monitor = LoadMonitor::new();
        let mut bin = BinSink::new(Vec::new());
        let mut jsonl = JsonlDecisionSink::new(Vec::new());
        let report = if wrapped {
            let mut ts = TimedScheme::new(scheme.as_mut(), Instant::now());
            let mut te = TimedEstimator::new(&mut monitor);
            let mut tsink = TimedSink::new(&mut bin);
            let mut td = TimedDecisions::new(&mut jsonl);
            let report = simulate(
                &sim,
                &trace,
                &plan,
                &mut ts,
                &mut te,
                &mut tsink,
                &mut td,
                &mut Profiler::on(),
            );
            for stats in [
                &ts.select,
                &ts.on_arrival,
                &te.calls,
                &tsink.calls,
                &td.calls,
            ] {
                assert!(stats.calls > 0, "every wrapped layer is called");
            }
            report
        } else {
            simulate(
                &sim,
                &trace,
                &plan,
                scheme.as_mut(),
                &mut monitor,
                &mut bin,
                &mut jsonl,
                &mut Profiler::off(),
            )
        }
        .expect("plan validates");
        (
            serde_json::to_string(&report).expect("report serializes"),
            bin.finish().expect("in-memory writes succeed"),
            jsonl.finish().expect("in-memory writes succeed"),
        )
    }

    #[test]
    fn wrapped_runs_are_byte_identical() {
        for adaptive in [false, true] {
            let plain = small_run(adaptive, false);
            let wrapped = small_run(adaptive, true);
            assert!(!plain.1.is_empty() && !plain.2.is_empty());
            assert_eq!(plain.0, wrapped.0, "report differs (adaptive: {adaptive})");
            assert!(
                plain.1 == wrapped.1,
                "event stream differs (adaptive: {adaptive})"
            );
            assert!(
                plain.2 == wrapped.2,
                "decision log differs (adaptive: {adaptive})"
            );
        }
    }

    #[test]
    fn load_grids_match_their_sources() {
        let ladder = ladder_loads();
        assert_eq!((ladder.len(), ladder[0], ladder[19]), (20, 200.0, 4_000.0));
        let replay = replay_loads();
        assert_eq!(replay.len(), 8);
        assert!(replay[0] <= Trace::TWITTER_MIN_QPS && replay[7] >= Trace::TWITTER_MAX_QPS);
    }
}
