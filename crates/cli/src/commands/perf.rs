//! `ramsis-cli perf` — run a pinned scenario with the engine's
//! self-profiler attached and print where the time went.
//!
//! ```text
//! ramsis-cli perf [--scenario NAME] [--seed S] [--smoke] [--json]
//! ```
//!
//! Scenarios are the pinned matrix of `ramsis_bench::perf`
//! (`constant_load`, `surge_faults`, `adaptive_drift`); the output is
//! the phase flame-table (self/total wall time per engine phase), the
//! hot-path counters and the depth gauges. `--json` emits the full
//! [`ramsis_telemetry::ProfileReport`] instead.

use ramsis_bench::{run_scenario, PerfScenarioConfig, SCENARIOS};
use serde::Serialize;

/// The `--json` document: headline run facts plus the full profile.
#[derive(Serialize)]
struct PerfSummary {
    scenario: String,
    arrivals: u64,
    served: u64,
    violation_rate: f64,
    profile: ramsis_telemetry::ProfileReport,
}

pub fn run(args: &[String]) -> Result<(), String> {
    let mut scenario = "constant_load".to_string();
    let mut json = false;
    let mut smoke = false;
    let mut cfg = PerfScenarioConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenario" => {
                scenario = it.next().ok_or("--scenario requires a name")?.clone();
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .ok_or("--seed requires a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--smoke" => smoke = true,
            "--json" => json = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if smoke {
        cfg = cfg.smoke();
    }
    if !SCENARIOS.contains(&scenario.as_str()) {
        return Err(format!(
            "unknown scenario {scenario:?} (expected one of {SCENARIOS:?})"
        ));
    }

    let (report, profile) = run_scenario(&scenario, &cfg)?;

    if json {
        let summary = PerfSummary {
            scenario,
            arrivals: report.total_arrivals,
            served: report.served,
            violation_rate: report.violation_rate,
            profile,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    println!(
        "scenario {scenario}: {} arrivals, {} served, violation rate {:.4}%",
        report.total_arrivals,
        report.served,
        report.violation_rate * 100.0
    );
    println!("\n{}", profile.flame_table());
    println!("\ncounters:");
    for c in &profile.counters {
        println!("  {:<20} {}", c.counter, c.value);
    }
    println!("gauges:");
    for g in &profile.gauges {
        println!(
            "  {:<20} peak {}, mean {:.1} over {} samples",
            g.gauge, g.peak, g.mean, g.samples
        );
    }
    Ok(())
}
