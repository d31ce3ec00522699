//! Shared experiment machinery: profile construction, policy-set and
//! ModelSwitching-table caching, and single-run execution.

use std::path::Path;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use ramsis_baselines::{profile_response_latency, ModelSwitching, ResponseLatencyTable};
use ramsis_core::{Discretization, PolicyConfig, PolicySet};
use ramsis_profiles::{ModelCatalog, ProfilerConfig, Task, WorkerProfile};
use ramsis_sim::{LatencyMode, ServingScheme, Simulation, SimulationConfig, SimulationReport};
use ramsis_workload::{LoadEstimator, LoadMonitor, OracleMonitor, Trace};

/// Which load estimator the run uses (§6 vs §7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorKind {
    /// The 500 ms moving-average monitor (production-trace runs).
    MovingAverage,
    /// Perfect load knowledge (constant-load runs, §7.2).
    Oracle,
}

/// One labelled run result row used across experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Task short name.
    pub task: String,
    /// Method name.
    pub method: String,
    /// SLO in milliseconds.
    pub slo_ms: u64,
    /// Worker count.
    pub workers: usize,
    /// Constant load (QPS) or mean trace load.
    pub load_qps: f64,
    /// The full simulation report.
    pub report: SimulationReport,
}

/// Builds the worker profile for a task and SLO with the default
/// profiler settings (100 invocations, p95).
pub fn build_profile(task: Task, slo_s: f64) -> WorkerProfile {
    let catalog = match task {
        Task::ImageClassification => ModelCatalog::torchvision_image(),
        Task::TextClassification => ModelCatalog::bert_text(),
    };
    WorkerProfile::build(
        &catalog,
        Duration::from_secs_f64(slo_s),
        ProfilerConfig::default(),
    )
}

/// The paper's evaluation worker count for Fig. 6-style constant-load
/// experiments: 60 for image, 20 for text (§7.2).
pub fn constant_load_workers(task: Task) -> usize {
    match task {
        Task::ImageClassification => 60,
        Task::TextClassification => 20,
    }
}

/// Standard RAMSIS generation config: FLD with the given `D`.
pub fn ramsis_config(slo_s: f64, workers: usize, d: u32) -> PolicyConfig {
    PolicyConfig::builder(Duration::from_secs_f64(slo_s))
        .workers(workers)
        .discretization(Discretization::fixed_length(d))
        .build()
}

/// Generates (or loads from the on-disk cache) a RAMSIS Poisson policy
/// set for the given loads. Cached under
/// `out_dir/policy_gen/RAMSIS_<task>_<workers>_<slo>/...` mirroring the
/// artifact layout.
pub fn ramsis_policy_set(
    out_dir: &Path,
    profile: &WorkerProfile,
    loads: &[f64],
    config: &PolicyConfig,
) -> PolicySet {
    ramsis_policy_set_timed(out_dir, profile, loads, config).0
}

/// [`ramsis_policy_set`] plus the wall-clock seconds of the
/// `PolicySet::generate_poisson` call, or `None` when the set came from
/// the on-disk cache.
pub fn ramsis_policy_set_timed(
    out_dir: &Path,
    profile: &WorkerProfile,
    loads: &[f64],
    config: &PolicyConfig,
) -> (PolicySet, Option<f64>) {
    let d = match config.discretization {
        Discretization::FixedLength { d } => format!("fld{d}"),
        Discretization::ModelBased => "md".to_string(),
    };
    // The fingerprint keys the cache on the exact model set AND the full
    // generation config: identical (task, workers, SLO) runs over
    // different catalogs (Fig. 8's dense set) or different config knobs
    // (Fig. 11's batching strategies) must not share policies.
    let mut fingerprint = profile
        .models
        .iter()
        .fold(profile.n_models() as u64, |acc, m| {
            m.name
                .bytes()
                .fold(acc, |a, b| a.wrapping_mul(131).wrapping_add(b as u64))
        });
    let config_json = serde_json::to_string(config).expect("config serializes");
    fingerprint = config_json.bytes().fold(fingerprint, |a, b| {
        a.wrapping_mul(131).wrapping_add(b as u64)
    });
    let key = format!(
        "RAMSIS_{}_{}w_{}ms_{}_{}loads_{:x}_{fingerprint:x}",
        profile.task.name(),
        config.workers,
        (config.slo_s * 1e3).round() as u64,
        d,
        loads.len(),
        loads
            .iter()
            .fold(0u64, |acc, &l| acc.wrapping_mul(31).wrapping_add(l as u64))
    );
    let cache = out_dir.join("policy_gen").join(format!("{key}.json"));
    if let Ok(text) = std::fs::read_to_string(&cache) {
        if let Ok(set) = serde_json::from_str::<PolicySet>(&text) {
            return (set, None);
        }
    }
    let started = Instant::now();
    let set = PolicySet::generate_poisson(profile, loads, config)
        .expect("policy generation over valid loads");
    let wall = started.elapsed().as_secs_f64();
    if let Some(parent) = cache.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    if let Ok(json) = serde_json::to_string(&set) {
        std::fs::write(&cache, json).ok();
    }
    (set, Some(wall))
}

/// Builds (or loads from the on-disk cache) a ModelSwitching selector
/// with its offline p99-response-latency sweep (the artifact's
/// `MS_gen.py`).
pub fn ms_scheme(
    out_dir: &Path,
    profile: &WorkerProfile,
    workers: usize,
    loads: &[f64],
    duration_s: f64,
) -> ModelSwitching {
    let fingerprint = profile
        .models
        .iter()
        .fold(profile.n_models() as u64, |acc, m| {
            m.name
                .bytes()
                .fold(acc, |a, b| a.wrapping_mul(131).wrapping_add(b as u64))
        });
    let key = format!(
        "MS_{}_{}w_{}ms_{}loads_{fingerprint:x}",
        profile.task.name(),
        workers,
        (profile.slo() * 1e3).round() as u64,
        loads.len()
    );
    let cache = out_dir.join("ms_profiles").join(format!("{key}.json"));
    if let Ok(text) = std::fs::read_to_string(&cache) {
        if let Ok(table) = serde_json::from_str::<ResponseLatencyTable>(&text) {
            if table.loads == loads {
                return ModelSwitching::new(profile, table);
            }
        }
    }
    let table = profile_response_latency(profile, workers, loads, duration_s, 0xB45E);
    if let Some(parent) = cache.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    if let Ok(json) = serde_json::to_string(&table) {
        std::fs::write(&cache, json).ok();
    }
    ModelSwitching::new(profile, table)
}

/// Runs one scheme over one trace and returns the report.
pub fn run_scheme(
    profile: &WorkerProfile,
    workers: usize,
    trace: &Trace,
    scheme: &mut dyn ServingScheme,
    monitor: MonitorKind,
    latency: LatencyMode,
    seed: u64,
) -> SimulationReport {
    let mut config = SimulationConfig::new(workers, profile.slo()).seeded(seed);
    config.latency = latency;
    let sim = Simulation::new(profile, config).expect("valid simulation config");
    let mut estimator: Box<dyn LoadEstimator> = match monitor {
        MonitorKind::MovingAverage => Box::new(LoadMonitor::new()),
        MonitorKind::Oracle => Box::new(OracleMonitor::new(trace.clone())),
    };
    sim.run(trace, scheme, estimator.as_mut())
}

/// The ModelSwitching offline profiling load grid: the paper sweeps 400
/// to 4,000 QPS in increments of 100 (quick mode: increments of 400).
pub fn ms_profiling_loads(full: bool) -> Vec<f64> {
    let step = if full { 100 } else { 400 };
    (1..)
        .map(|i| (400 + (i - 1) * step) as f64)
        .take_while(|&l| l <= 4_000.0)
        .collect()
}

/// The RAMSIS policy-set load grid covering a trace's load range plus
/// headroom (a policy must exist at or above the anticipated load).
pub fn ramsis_loads_for_range(min_qps: f64, max_qps: f64, count: usize) -> Vec<f64> {
    assert!(count >= 2, "need at least two grid points");
    assert!(max_qps > min_qps, "range must be non-empty");
    let hi = max_qps * 1.1;
    (0..count)
        .map(|i| min_qps + (hi - min_qps) * i as f64 / (count - 1) as f64)
        .map(|l| l.round())
        .collect()
}

/// Formats a fraction as a percent string with four decimals, matching
/// the paper's Tables 3/4.
pub fn pct(x: f64) -> String {
    format!("{:.4}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramsis_baselines::JellyfishPlus;

    #[test]
    fn profiles_build_for_all_paper_points() {
        for task in [Task::ImageClassification, Task::TextClassification] {
            for slo in task.paper_slos() {
                let p = build_profile(task, slo);
                assert!(p.max_batch() >= 1);
                assert!(!p.pareto_models().is_empty());
            }
        }
    }

    #[test]
    fn ms_loads_grids() {
        let quick = ms_profiling_loads(false);
        assert_eq!(quick.first(), Some(&400.0));
        assert_eq!(quick.last(), Some(&4_000.0));
        assert_eq!(quick.len(), 10);
        let full = ms_profiling_loads(true);
        assert_eq!(full.len(), 37);
    }

    #[test]
    fn ramsis_load_grid_covers_range() {
        let loads = ramsis_loads_for_range(1_617.0, 3_905.0, 6);
        assert_eq!(loads.len(), 6);
        assert!(loads[0] <= 1_617.0);
        assert!(*loads.last().unwrap() >= 3_905.0);
        for w in loads.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn caches_round_trip() {
        let dir = std::env::temp_dir().join("ramsis_bench_cache_test");
        std::fs::remove_dir_all(&dir).ok();
        let profile = build_profile(Task::TextClassification, 0.1);
        let config = ramsis_config(0.1, 4, 8);
        let a = ramsis_policy_set(&dir, &profile, &[100.0, 300.0], &config);
        let b = ramsis_policy_set(&dir, &profile, &[100.0, 300.0], &config);
        assert_eq!(a, b);
        let m1 = ms_scheme(&dir, &profile, 4, &[400.0, 800.0], 2.0);
        let m2 = ms_scheme(&dir, &profile, 4, &[400.0, 800.0], 2.0);
        assert_eq!(m1.table(), m2.table());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_scheme_produces_report() {
        let profile = build_profile(Task::TextClassification, 0.1);
        let trace = Trace::constant(200.0, 3.0);
        let mut jf = JellyfishPlus::new(&profile, 4);
        let r = run_scheme(
            &profile,
            4,
            &trace,
            &mut jf,
            MonitorKind::Oracle,
            LatencyMode::DeterministicP95,
            1,
        );
        assert!(r.served > 0);
        assert_eq!(r.served, r.total_arrivals);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.001234), "0.1234%");
        assert_eq!(pct(0.0), "0.0000%");
    }
}
