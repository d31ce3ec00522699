//! Checkpoint overhead: the cost of durable runs at the default cadence.
//!
//! Runs the same seeded constant-load simulation three ways — plain
//! (checkpointing disabled, timed for the baseline), capture-only
//! (snapshots built at the default 100 000-event cadence and
//! discarded), and fully durable (a [`FileRecorder`] fsync-ing each
//! snapshot to disk) — with the self-profiler attached to the durable
//! variants. The engine attributes snapshot capture and the recorder's
//! write to the dedicated `checkpoint` phase, so the overhead ratio is
//! `checkpoint_phase_time / plain_wall_time`: the numerator is measured
//! directly inside one run rather than differenced between two runs,
//! which keeps shared-container clock drift out of the gate.
//!
//! Two contracts under test (DESIGN.md §12): every variant's report
//! must be byte-identical (checkpointing never perturbs the
//! simulation), and the engine-side capture cost must stay under 3% of
//! the run. The fsync-durable tier is reported for capacity planning
//! but not gated: at several million events per second the engine
//! burns through a 100k-event interval in ~15 ms, so a
//! millisecond-scale fsync is disk latency, not engine overhead, and
//! varies with the filesystem. Results land in
//! `results/BENCH_checkpoint.json` alongside `BENCH_perf.json`.
//!
//! ```text
//! checkpoint_overhead [--smoke] [--out DIR]
//! ```
//!
//! `--smoke` shrinks the trace for CI and loosens the capture gate
//! (a smoke run takes so few snapshots that fixed per-snapshot cost is
//! amortized over far fewer events); the byte-identity assertions are
//! unchanged.

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use ramsis_baselines::JellyfishPlus;
use ramsis_bench::harness::{build_profile, constant_load_workers};
use ramsis_bench::{render_table, write_json};
use ramsis_profiles::Task;
use ramsis_sim::{
    CheckpointPolicy, CheckpointRecorder, EngineSnapshot, FaultPlan, FileRecorder, Profiler,
    RunSpec, Simulation, SimulationConfig, SimulationReport,
};
use ramsis_workload::{OracleMonitor, Trace};
use serde::Serialize;

/// The capture-overhead gate: checkpoint-phase time under 3% of the
/// plain run's wall clock.
const FULL_GATE: f64 = 1.03;
/// Smoke gate: a ~45 s trace crosses the cadence once, so one
/// snapshot's fixed cost lands on a run an order of magnitude shorter.
const SMOKE_GATE: f64 = 1.25;

/// Counts cadence points without retaining or persisting anything:
/// isolates the engine-side cost of building a snapshot.
struct DiscardRecorder {
    seen: u64,
}

impl CheckpointRecorder for DiscardRecorder {
    fn record(&mut self, _snapshot: &EngineSnapshot) -> bool {
        self.seen += 1;
        true
    }
}

#[derive(Serialize)]
struct BenchCheckpoint {
    schema_version: u32,
    smoke: bool,
    workers: usize,
    load_qps: f64,
    duration_s: f64,
    reps: usize,
    interval_events: u64,
    events_processed: u64,
    plain_min_s: f64,
    plain_mean_s: f64,
    /// Median checkpoint-phase time with snapshots discarded, seconds.
    capture_phase_s: f64,
    /// Median checkpoint-phase time with fsync-to-disk, seconds.
    durable_phase_s: f64,
    /// `1 + capture_phase / plain_min` — the gated ratio.
    capture_overhead: f64,
    capture_gate: f64,
    /// `1 + durable_phase / plain_min`, informational.
    durable_overhead: f64,
    snapshots_per_run: u64,
    snapshot_bytes: u64,
    events_at_last_snapshot: u64,
    arrivals: u64,
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
                eprintln!("usage: checkpoint_overhead [--smoke] [--out DIR]");
                exit(2);
            }
        }
    }

    let task = Task::ImageClassification;
    let slo_s = task.paper_slos()[0];
    let workers = constant_load_workers(task);
    let load = 1_500.0;
    // Smoke still runs at the default cadence, so it must be long
    // enough to cross 100k engine events at least once (~45 s at
    // 1 500 QPS).
    let (duration_s, reps) = if smoke { (45.0, 3) } else { (300.0, 5) };
    let cadence = CheckpointPolicy::default();
    let interval = cadence.every_events;

    let profile = build_profile(task, slo_s);
    let trace = Trace::constant(load, duration_s);
    let plan = FaultPlan::none();
    let base_config = SimulationConfig::new(workers, slo_s).seeded(0xC4C4);

    let ckpt_dir = std::env::temp_dir().join(format!("ramsis-ckpt-bench-{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint scratch dir");
    let ckpt_path = ckpt_dir.join("snapshot.json");

    let plain = || -> (f64, SimulationReport) {
        let sim = Simulation::new(&profile, base_config).expect("valid simulation config");
        let mut scheme = JellyfishPlus::new(&profile, workers);
        let mut monitor = OracleMonitor::new(trace.clone());
        let start = Instant::now();
        let report = sim
            .execute(
                RunSpec::trace(&trace).faults(&plan),
                &mut scheme,
                &mut monitor,
            )
            .expect("empty fault plan always validates");
        (start.elapsed().as_secs_f64(), report)
    };
    // One profiled durable run; the recorder tier is the only variable.
    // Returns (checkpoint-phase seconds, events processed, report).
    let durable = |recorder: &mut dyn CheckpointRecorder| -> (f64, u64, SimulationReport) {
        let sim = Simulation::new(&profile, base_config).expect("valid simulation config");
        let mut scheme = JellyfishPlus::new(&profile, workers);
        let mut monitor = OracleMonitor::new(trace.clone());
        let mut prof = Profiler::on();
        let report = sim
            .execute(
                RunSpec::trace(&trace)
                    .faults(&plan)
                    .profiler(&mut prof)
                    .checkpoints(recorder, cadence),
                &mut scheme,
                &mut monitor,
            )
            .expect("no recorder tier stops the run");
        let p = prof.report();
        let ckpt_ns = p
            .phases
            .iter()
            .find(|ph| ph.phase == "checkpoint")
            .map_or(0, |ph| ph.total_ns);
        (ckpt_ns as f64 / 1e9, p.events_processed, report)
    };

    println!(
        "\n=== Checkpoint overhead — {} task, {workers} workers, {load:.0} QPS x \
         {duration_s:.0} s, snapshot every {interval} events, {reps} reps{} ===",
        task.name(),
        if smoke { " (smoke)" } else { "" }
    );

    // One untimed warmup so the first timed rep doesn't pay the cold
    // caches.
    let _ = plain();
    let mut plain_times = Vec::with_capacity(reps);
    let mut capture_phases = Vec::with_capacity(reps);
    let mut durable_phases = Vec::with_capacity(reps);
    let mut reports: Option<(SimulationReport, SimulationReport, SimulationReport)> = None;
    let mut snapshots_per_run = 0;
    let mut events_processed = 0;
    for _ in 0..reps {
        let (pt, pr) = plain();
        let mut discard = DiscardRecorder { seen: 0 };
        let (cs, events, cr) = durable(&mut discard);
        let mut file = FileRecorder::new(&ckpt_path);
        let (ds, _, dr) = durable(&mut file);
        assert_eq!(
            file.written(),
            discard.seen,
            "recorder tiers saw different cadence points: {}",
            file.take_error().unwrap_or_default()
        );
        plain_times.push(pt);
        capture_phases.push(cs);
        durable_phases.push(ds);
        snapshots_per_run = file.written();
        events_processed = events;
        reports.get_or_insert((pr, cr, dr));
    }
    let min = |ts: &[f64]| ts.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = |ts: &[f64]| ts.iter().sum::<f64>() / ts.len() as f64;
    let median = |ts: &[f64]| {
        let mut s = ts.to_vec();
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };
    let plain_min = min(&plain_times);
    let capture_phase_s = median(&capture_phases);
    let durable_phase_s = median(&durable_phases);
    let capture_overhead = 1.0 + capture_phase_s / plain_min;
    let durable_overhead = 1.0 + durable_phase_s / plain_min;
    let gate = if smoke { SMOKE_GATE } else { FULL_GATE };

    let (plain_report, capture_report, durable_report) = reports.expect("at least one rep ran");
    let plain_json = serde_json::to_string(&plain_report).expect("report serializes");
    for (tier, report) in [("capture", &capture_report), ("durable", &durable_report)] {
        assert_eq!(
            plain_json,
            serde_json::to_string(report).expect("report serializes"),
            "{tier} run diverged from the plain run — checkpointing must never perturb \
             the simulation"
        );
    }
    assert!(
        snapshots_per_run >= 1,
        "run too short to checkpoint: no snapshot at the {interval}-event cadence"
    );

    let last_snapshot = EngineSnapshot::read(&ckpt_path).expect("last written snapshot reads back");
    let snapshot_bytes = std::fs::metadata(&ckpt_path)
        .expect("snapshot file exists")
        .len();
    std::fs::remove_dir_all(&ckpt_dir).ok();

    let doc = BenchCheckpoint {
        schema_version: 1,
        smoke,
        workers,
        load_qps: load,
        duration_s,
        reps,
        interval_events: interval,
        events_processed,
        plain_min_s: plain_min,
        plain_mean_s: mean(&plain_times),
        capture_phase_s,
        durable_phase_s,
        capture_overhead,
        capture_gate: gate,
        durable_overhead,
        snapshots_per_run,
        snapshot_bytes,
        events_at_last_snapshot: last_snapshot.meta.events_done,
        arrivals: plain_report.total_arrivals,
    };

    let per_snapshot_us = |phase_s: f64| 1e6 * phase_s / snapshots_per_run as f64;
    let rows = vec![
        vec![
            "plain".to_string(),
            format!("{:.3}", doc.plain_min_s),
            "-".to_string(),
            "-".to_string(),
            "1.00x".to_string(),
        ],
        vec![
            "capture".to_string(),
            format!("{:.3}", doc.plain_min_s + capture_phase_s),
            format!("{:.3}", 1e3 * capture_phase_s),
            format!("{:.0}", per_snapshot_us(capture_phase_s)),
            format!("{capture_overhead:.4}x"),
        ],
        vec![
            "durable (fsync)".to_string(),
            format!("{:.3}", doc.plain_min_s + durable_phase_s),
            format!("{:.3}", 1e3 * durable_phase_s),
            format!("{:.0}", per_snapshot_us(durable_phase_s)),
            format!("{durable_overhead:.4}x"),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["run", "wall_s", "ckpt ms", "us/snapshot", "slowdown"],
            &rows
        )
    );
    println!(
        "{snapshots_per_run} snapshots of {snapshot_bytes} B per run; last at event {} of {} \
         heap events ({} arrivals)",
        doc.events_at_last_snapshot, events_processed, doc.arrivals
    );

    write_json(&out_dir, "BENCH_checkpoint", &doc);

    assert!(
        capture_overhead < gate,
        "snapshot capture {capture_overhead:.4}x the plain run — checkpointing every \
         {interval} events must cost <{:.0}% engine-side (median checkpoint-phase time \
         of {reps} reps over min-of-{reps} plain wall)",
        (gate - 1.0) * 100.0
    );
    println!(
        "OK: report byte-identity held; capture overhead {:.2}% < {:.0}% gate \
         (fsync tier {:.2}%, informational)",
        (capture_overhead - 1.0) * 100.0,
        (gate - 1.0) * 100.0,
        (durable_overhead - 1.0) * 100.0
    );
}
