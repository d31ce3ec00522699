//! The pinned profiling scenarios behind `ramsis-cli perf`.
//!
//! Each scenario runs with the engine's self-profiler attached and
//! returns its report plus the captured profile (phase timings,
//! hot-path counters, depth gauges). Three scenarios cover the engine's
//! qualitatively different regimes:
//!
//! - `constant_load` — steady Poisson arrivals, no faults, resilience
//!   off: the pure dispatch loop.
//! - `surge_faults` — a straggler, an arrival surge, and a
//!   crash/recover cycle with the full resilience layer on: timeouts,
//!   retries, hedges, and admission all exercise their heap paths.
//! - `adaptive_drift` — the drifting stream served by adaptive RAMSIS:
//!   policy lookups, regime swaps, and shedding under load drift.
//!
//! Wall-clock numbers vary across machines; event counts, heap depths
//! and counters are fixed for a fixed seed. The repo's perf ledger is
//! the standalone `perfbench` package declared in `BENCHMARK.json`.

use ramsis_profiles::{Task, WorkerProfile};
use ramsis_sim::{
    AdaptiveRamsis, FastestFixed, FaultPlan, ProfileReport, Profiler, ResiliencePolicy, Routing,
    RunSpec, Simulation, SimulationConfig, SimulationReport,
};
use ramsis_workload::{DriftDetector, DriftDetectorConfig, LoadMonitor, Trace};

use crate::drift::DriftConfig;
use crate::harness::{build_profile, ramsis_config};

/// Parameters of the pinned scenarios. All scenarios derive from these
/// values; `smoke()` shrinks durations without changing the scenario
/// structure.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfScenarioConfig {
    /// Response-latency SLO, seconds.
    pub slo_s: f64,
    /// Cluster size (≥ 2 so hedges and crash re-routing engage).
    pub workers: usize,
    /// Offered load of the constant and surge scenarios, QPS.
    pub load_qps: f64,
    /// Trace length of the constant and surge scenarios, seconds.
    pub duration_s: f64,
    /// Length of each drift phase (steady, ramp, bursty), seconds.
    pub drift_phase_s: f64,
    /// Shared simulation + arrival seed.
    pub seed: u64,
    /// FLD discretization of the drift scenario's policies.
    pub d: u32,
}

impl Default for PerfScenarioConfig {
    fn default() -> Self {
        Self {
            slo_s: 0.15,
            workers: 4,
            load_qps: 120.0,
            duration_s: 30.0,
            drift_phase_s: 15.0,
            seed: 0xBE9C,
            d: 10,
        }
    }
}

impl PerfScenarioConfig {
    /// CI-sized variant: same scenarios, shorter traces.
    pub fn smoke(mut self) -> Self {
        self.duration_s = 6.0;
        self.drift_phase_s = 5.0;
        self
    }

    /// The surge-scenario fault plan: worker 0 straggles, load surges,
    /// and worker 1 crashes and recovers mid-surge.
    pub fn surge_plan(&self) -> FaultPlan {
        let t = self.duration_s;
        FaultPlan::none()
            .slowdown(0, 0.1 * t, 0.8 * t, 10.0)
            .surge(0.3 * t, 0.7 * t, 2.0)
            .crash(1, 0.4 * t)
            .recover(1, 0.6 * t)
    }
}

fn run_constant(
    profile: &WorkerProfile,
    cfg: &PerfScenarioConfig,
    prof: &mut Profiler,
) -> SimulationReport {
    let trace = Trace::constant(cfg.load_qps, cfg.duration_s);
    let sim = Simulation::new(
        profile,
        SimulationConfig::new(cfg.workers, cfg.slo_s).seeded(cfg.seed),
    )
    .expect("valid constant-load config");
    let mut scheme = FastestFixed::new(profile.fastest_model(), Routing::PerWorkerRoundRobin);
    let mut monitor = LoadMonitor::new();
    sim.execute(
        RunSpec::trace(&trace).profiler(prof),
        &mut scheme,
        &mut monitor,
    )
    .expect("an unfaulted run has nothing to refuse")
}

fn run_surge(
    profile: &WorkerProfile,
    cfg: &PerfScenarioConfig,
    prof: &mut Profiler,
) -> SimulationReport {
    let trace = Trace::constant(cfg.load_qps, cfg.duration_s);
    let sim = Simulation::new(
        profile,
        SimulationConfig::new(cfg.workers, cfg.slo_s)
            .seeded(cfg.seed)
            .stochastic()
            .with_resilience(ResiliencePolicy::all_on()),
    )
    .expect("valid surge config");
    let mut scheme = FastestFixed::new(profile.fastest_model(), Routing::PerWorkerRoundRobin);
    let mut monitor = LoadMonitor::new();
    sim.execute(
        RunSpec::trace(&trace)
            .faults(&cfg.surge_plan())
            .profiler(prof),
        &mut scheme,
        &mut monitor,
    )
    .expect("surge plan validates")
}

fn run_drift_scenario(
    profile: &WorkerProfile,
    cfg: &PerfScenarioConfig,
    prof: &mut Profiler,
) -> SimulationReport {
    let dcfg = DriftConfig {
        slo_s: cfg.slo_s,
        workers: cfg.workers,
        phase_s: cfg.drift_phase_s,
        d: cfg.d,
        seed: cfg.seed,
        ..DriftConfig::default()
    };
    let gen_config = ramsis_config(dcfg.slo_s, dcfg.workers, dcfg.d);
    let grid = dcfg.grid();
    let library = ramsis_core::PolicyLibrary::generate_poisson_bins(
        profile,
        grid.clone(),
        dcfg.bursty_dispersion,
        &gen_config,
    )
    .expect("poisson bins generate");
    let initial = dcfg.initial_regime();
    let detector = DriftDetector::new(grid, DriftDetectorConfig::default(), initial);
    let mut scheme = AdaptiveRamsis::new(profile, gen_config, library, detector)
        .expect("initial regime is solved")
        .with_shed_policy(dcfg.shed)
        .with_lazy_solve_budget(dcfg.lazy_solve_budget);
    let arrivals = dcfg.arrivals();
    let sim = Simulation::new(
        profile,
        SimulationConfig::new(dcfg.workers, dcfg.slo_s).seeded(dcfg.seed),
    )
    .expect("valid drift config");
    let mut monitor = LoadMonitor::new();
    sim.execute(
        RunSpec::arrivals(&arrivals).profiler(prof),
        &mut scheme,
        &mut monitor,
    )
    .expect("empty fault plan validates")
}

/// The pinned scenario names, in matrix order.
pub const SCENARIOS: [&str; 3] = ["constant_load", "surge_faults", "adaptive_drift"];

/// Runs one pinned scenario by name with a fresh profiler attached;
/// returns the simulation report and the captured profile. This is the
/// entry point behind `ramsis-cli perf`.
///
/// # Errors
///
/// Returns an error for a name outside [`SCENARIOS`].
pub fn run_scenario(
    name: &str,
    cfg: &PerfScenarioConfig,
) -> Result<(SimulationReport, ProfileReport), String> {
    let profile = build_profile(Task::ImageClassification, cfg.slo_s);
    let mut prof = Profiler::on();
    let report = match name {
        "constant_load" => run_constant(&profile, cfg, &mut prof),
        "surge_faults" => run_surge(&profile, cfg, &mut prof),
        "adaptive_drift" => run_drift_scenario(&profile, cfg, &mut prof),
        other => {
            return Err(format!(
                "unknown scenario {other:?} (expected one of {SCENARIOS:?})"
            ))
        }
    };
    Ok((report, prof.report()))
}
