//! Detection frontier: probe cadence vs detection lag vs probe cost.
//!
//! Runs the same seeded gray-failure scenario (a crash with a later
//! recovery, a heartbeat partition, and a batch-error window, on
//! distinct workers) once with oracle membership knowledge and once
//! per probe interval with the perceived-health subsystem on
//! (DESIGN.md §14). Each detector point reports the measured detection
//! lag against the policy's provable bound, the false-suspicion cost,
//! the probe volume, and the resulting violation rate — the frontier a
//! deployment walks when it trades probe traffic for reaction time.
//!
//! Two contracts under test:
//!
//! - every measured detection lag stays within the policy's provable
//!   bound (`HealthPolicy::detection_bound_s`);
//! - probing faster never costs fewer probes, and the finest cadence
//!   detects the crash strictly sooner than the coarsest.
//!
//! Results land in `results/BENCH_health.json`.
//!
//! ```text
//! detection_frontier [--smoke] [--out DIR]
//! ```
//!
//! `--smoke` shrinks the horizon and sweeps two intervals instead of
//! five; the contracts are unchanged.

use std::path::PathBuf;
use std::process::exit;

use ramsis_bench::harness::build_profile;
use ramsis_bench::{render_table, write_json};
use ramsis_profiles::Task;
use ramsis_sim::{
    FastestFixed, FaultPlan, HealthPolicy, Routing, RunSpec, Simulation, SimulationConfig,
    SimulationReport,
};
use ramsis_workload::{LoadMonitor, Trace};
use serde::Serialize;

/// One swept point of the frontier.
#[derive(Serialize)]
struct FrontierPoint {
    probe_interval_ms: f64,
    detection_bound_ms: f64,
    probes_sent: u64,
    probes_failed: u64,
    suspects: u64,
    suspects_genuine: u64,
    suspects_false: u64,
    reinstates: u64,
    mean_detection_lag_ms: f64,
    max_detection_lag_ms: f64,
    false_suspected_time_s: f64,
    violation_rate: f64,
}

#[derive(Serialize)]
struct BenchHealth {
    schema_version: u32,
    smoke: bool,
    workers: usize,
    load_qps: f64,
    duration_s: f64,
    oracle_violation_rate: f64,
    points: Vec<FrontierPoint>,
}

fn main() {
    let mut smoke = false;
    let mut out_dir = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_dir = PathBuf::from(args.next().expect("--out requires a directory")),
            other => {
                eprintln!("error: unknown flag {other:?}");
                eprintln!("usage: detection_frontier [--smoke] [--out DIR]");
                exit(2);
            }
        }
    }

    let task = Task::ImageClassification;
    let slo_s = task.paper_slos()[0];
    let workers = 6;
    let load = 150.0;
    let duration_s = if smoke { 20.0 } else { 60.0 };
    let intervals_ms: &[f64] = if smoke {
        &[10.0, 50.0]
    } else {
        &[5.0, 10.0, 20.0, 50.0, 100.0]
    };

    let profile = build_profile(task, slo_s);
    let trace = Trace::constant(load, duration_s);
    let d = duration_s;
    let plan = FaultPlan::none()
        .crash(1, 0.25 * d)
        .recover(1, 0.60 * d)
        .partition(2, 0.30 * d, 0.45 * d)
        .error_rate(3, 0.50 * d, 0.70 * d, 0.6);
    let base_config = SimulationConfig::new(workers, slo_s).seeded(0xDE7EC7);

    let run = |config: SimulationConfig| -> SimulationReport {
        let sim = Simulation::new(&profile, config).expect("valid simulation config");
        let mut scheme = FastestFixed::new(profile.fastest_model(), Routing::PerWorkerRoundRobin);
        let mut monitor = LoadMonitor::new();
        sim.execute(
            RunSpec::trace(&trace).faults(&plan),
            &mut scheme,
            &mut monitor,
        )
        .expect("canonical fault plan validates")
    };

    println!(
        "\n=== Detection frontier — {} task, {workers} workers, {load:.0} QPS x \
         {duration_s:.0} s, crash+partition+error-window scenario{} ===",
        task.name(),
        if smoke { " (smoke)" } else { "" }
    );

    let oracle = run(base_config);

    let mut points = Vec::with_capacity(intervals_ms.len());
    for &ms in intervals_ms {
        let policy = HealthPolicy::probing(ms / 1e3);
        let report = run(base_config.with_health(policy));
        let stats = report
            .health
            .expect("health-enabled run reports detector stats");
        let bound_ms = policy.detection_bound_s() * 1e3;
        assert!(
            stats.suspects_genuine >= 1,
            "probe interval {ms} ms never detected the crash"
        );
        assert!(
            stats.max_detection_lag_s * 1e3 <= bound_ms + 1e-6,
            "probe interval {ms} ms: max detection lag {:.2} ms exceeds the provable \
             bound {bound_ms:.2} ms",
            stats.max_detection_lag_s * 1e3
        );
        points.push(FrontierPoint {
            probe_interval_ms: ms,
            detection_bound_ms: bound_ms,
            probes_sent: stats.probes_sent,
            probes_failed: stats.probes_failed,
            suspects: stats.suspects,
            suspects_genuine: stats.suspects_genuine,
            suspects_false: stats.suspects_false,
            reinstates: stats.reinstates,
            mean_detection_lag_ms: stats.mean_detection_lag_s * 1e3,
            max_detection_lag_ms: stats.max_detection_lag_s * 1e3,
            false_suspected_time_s: stats.false_suspected_time_s,
            violation_rate: report.violation_rate,
        });
    }

    // Contract: probe volume is monotone in cadence, and the finest
    // cadence reacts strictly faster than the coarsest.
    for pair in points.windows(2) {
        assert!(
            pair[0].probes_sent >= pair[1].probes_sent,
            "probing every {} ms sent fewer probes than every {} ms",
            pair[0].probe_interval_ms,
            pair[1].probe_interval_ms
        );
    }
    let (finest, coarsest) = (&points[0], &points[points.len() - 1]);
    assert!(
        finest.max_detection_lag_ms < coarsest.max_detection_lag_ms,
        "finest cadence ({} ms) did not detect faster than the coarsest ({} ms): \
         {:.2} ms vs {:.2} ms",
        finest.probe_interval_ms,
        coarsest.probe_interval_ms,
        finest.max_detection_lag_ms,
        coarsest.max_detection_lag_ms
    );

    let mut rows: Vec<Vec<String>> = vec![vec![
        "oracle".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{:.4}%", oracle.violation_rate * 100.0),
    ]];
    rows.extend(points.iter().map(|p| {
        vec![
            format!("{:.0} ms", p.probe_interval_ms),
            p.probes_sent.to_string(),
            format!("{}g/{}f", p.suspects_genuine, p.suspects_false),
            format!("{:.1}", p.max_detection_lag_ms),
            format!("{:.1}", p.detection_bound_ms),
            format!("{:.2}", p.false_suspected_time_s),
            format!("{:.4}%", p.violation_rate * 100.0),
        ]
    }));
    println!(
        "{}",
        render_table(
            &[
                "probe",
                "probes",
                "suspects",
                "max lag ms",
                "bound ms",
                "false w-s",
                "violations",
            ],
            &rows
        )
    );
    println!(
        "frontier: {:.0} ms probes detect within {:.1} ms for {} probes; {:.0} ms \
         probes take {:.1} ms for {} — every lag within its provable bound",
        finest.probe_interval_ms,
        finest.max_detection_lag_ms,
        finest.probes_sent,
        coarsest.probe_interval_ms,
        coarsest.max_detection_lag_ms,
        coarsest.probes_sent,
    );

    let doc = BenchHealth {
        schema_version: 1,
        smoke,
        workers,
        load_qps: load,
        duration_s,
        oracle_violation_rate: oracle.violation_rate,
        points,
    };
    write_json(&out_dir, "BENCH_health", &doc);

    println!("OK: all detection lags within their bounds");
}
