//! Observer overhead: what each attachable run observer costs.
//!
//! One seeded constant-load scenario (JellyfishPlus with the oracle
//! load monitor, image task at a 150 ms SLO, 60 workers, 1,500 QPS)
//! runs plain, then once per observer tier. Tiers come in three groups,
//! each with its own seed, run length and rep count:
//!
//! | group | seed | tiers | cost read | gates (full / smoke) |
//! |---|---|---|---|---|
//! | telemetry | `0x0B5` | ring-64k, jsonl-mem | run wall, min of reps | none (informational) |
//! | decisions | `0xDEC1` | null, vec, jsonl-disk | `decision` phase, median | null < 1.03x / 1.10x; vec < 2,000 / 4,000 ns per record |
//! | checkpoint | `0xC4C4` | discard, file | `checkpoint` phase, median | discard < 1.03x / 1.25x |
//!
//! Every tier's report must be byte-identical to its group's plain run:
//! an observer never perturbs the simulation. Phase-read tiers run
//! under the self-profiler, which attributes the observer's own work
//! to a dedicated phase, so their overhead is `1 + phase / plain` —
//! measured inside one run rather than differenced between two, which
//! keeps shared-machine clock drift out of the gate. Decision records
//! are gated per record rather than as a run fraction: a record fires
//! per dispatch decision, so its total scales with the scenario, not
//! with the subsystem. The disk tiers (decision JSONL, checkpoint file)
//! are reported but not gated, because their cost is the filesystem's.
//! Telemetry tiers are informational wall-clock ratios; that a disabled
//! sink costs nothing is a structural property pinned by the test
//! suite, not a timing.
//!
//! Results land in `results/BENCH_overhead.json`.
//!
//! ```text
//! observer_overhead [--smoke] [--out DIR]
//! ```
//!
//! `--smoke` shortens the decision and checkpoint runs for CI and
//! loosens their gates (short runs amortize fixed per-run cost over
//! less work); the byte-identity and cross-tier checks are unchanged.

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

use ramsis_baselines::JellyfishPlus;
use ramsis_bench::harness::{build_profile, constant_load_workers};
use ramsis_bench::{render_table, write_json};
use ramsis_profiles::{Task, WorkerProfile};
use ramsis_sim::{
    CheckpointPolicy, CheckpointRecorder, EngineSnapshot, FileRecorder, Profiler, RunSpec,
    Simulation, SimulationConfig, SimulationReport,
};
use ramsis_telemetry::{
    DecisionSink, JsonlDecisionSink, JsonlSink, NullDecisionSink, Phase, RingSink, TelemetrySink,
    VecDecisionSink,
};
use ramsis_workload::{OracleMonitor, Trace};
use serde::Serialize;

const TASK: Task = Task::ImageClassification;
const LOAD_QPS: f64 = 1_500.0;

/// What a tier's gate bounds.
#[derive(Clone, Copy)]
enum Measure {
    /// The run-slowdown ratio (`overhead`).
    Overhead,
    /// Observer nanoseconds per counted unit.
    NsPerUnit,
}

/// A tier's name and its gate, `(measure, full limit, smoke limit)`.
type Tier = (&'static str, Option<(Measure, f64, f64)>);

/// One observer group: the scenario it runs and the tiers it compares.
struct Group {
    name: &'static str,
    seed: u64,
    /// `(run length s, reps)` at full size.
    full: (f64, usize),
    /// `(run length s, reps)` under `--smoke`.
    smoke: (f64, usize),
    /// What a tier's count counts.
    unit: &'static str,
    tiers: &'static [Tier],
    /// Runs every tier once, in `tiers` order, with the group's
    /// cross-tier checks; returns each tier's run and count.
    run: fn(&Scenario, &Path) -> Vec<(Observed, u64)>,
}

const GROUPS: [Group; 3] = [
    Group {
        name: "telemetry",
        seed: 0x0B5,
        full: (120.0, 5),
        smoke: (120.0, 5),
        unit: "events",
        tiers: &[("ring-64k", None), ("jsonl-mem", None)],
        run: telemetry_tiers,
    },
    Group {
        name: "decisions",
        seed: 0xDEC1,
        full: (120.0, 5),
        smoke: (20.0, 3),
        unit: "records",
        tiers: &[
            ("null", Some((Measure::Overhead, 1.03, 1.10))),
            ("vec", Some((Measure::NsPerUnit, 2_000.0, 4_000.0))),
            ("jsonl-disk", None),
        ],
        run: decision_tiers,
    },
    Group {
        name: "checkpoint",
        seed: 0xC4C4,
        // The smoke run still uses the default 100k-event cadence, so
        // it must cross it at least once (~45 s at 1,500 QPS).
        full: (300.0, 5),
        smoke: (45.0, 3),
        unit: "snapshots",
        tiers: &[
            ("discard", Some((Measure::Overhead, 1.03, 1.25))),
            ("file", None),
        ],
        run: checkpoint_tiers,
    },
];

/// The one observer a tier attaches to the plain run.
enum Observer<'o> {
    Telemetry(&'o mut dyn TelemetrySink),
    Decisions(&'o mut dyn DecisionSink),
    Checkpoints(&'o mut dyn CheckpointRecorder),
}

/// One observed run: the observer's cost in seconds (its profiler
/// phase, or the whole run's wall clock when it has none), the heap
/// events the profiler saw, and the report.
struct Observed {
    secs: f64,
    phase: Option<Phase>,
    events: u64,
    report: SimulationReport,
}

/// The group's seeded scenario; every run rebuilds the scheme and the
/// monitor so every rep starts from identical state.
struct Scenario<'p> {
    profile: &'p WorkerProfile,
    config: SimulationConfig,
    trace: Trace,
}

impl Scenario<'_> {
    fn timed(&self, spec: RunSpec<'_>) -> (f64, SimulationReport) {
        let sim = Simulation::new(self.profile, self.config).expect("valid simulation config");
        let mut scheme = JellyfishPlus::new(self.profile, self.config.workers);
        let mut monitor = OracleMonitor::new(self.trace.clone());
        let start = Instant::now();
        let report = sim
            .execute(spec, &mut scheme, &mut monitor)
            .expect("no observer tier stops the run");
        (start.elapsed().as_secs_f64(), report)
    }

    fn plain(&self) -> (f64, SimulationReport) {
        self.timed(RunSpec::trace(&self.trace))
    }

    fn observed(&self, observer: Observer<'_>) -> Observed {
        let mut prof = Profiler::on();
        let spec = RunSpec::trace(&self.trace);
        let (spec, phase) = match observer {
            Observer::Telemetry(sink) => (spec.telemetry(sink), None),
            Observer::Decisions(sink) => (
                spec.decisions(sink).profiler(&mut prof),
                Some(Phase::Decision),
            ),
            Observer::Checkpoints(recorder) => (
                spec.checkpoints(recorder, CheckpointPolicy::default())
                    .profiler(&mut prof),
                Some(Phase::Checkpoint),
            ),
        };
        let (wall_s, report) = self.timed(spec);
        let profile = prof.report();
        let secs = match phase {
            None => wall_s,
            Some(phase) => {
                let ns = profile
                    .phases
                    .iter()
                    .find(|p| p.phase == phase.name())
                    .map_or(0, |p| p.total_ns);
                ns as f64 / 1e9
            }
        };
        Observed {
            secs,
            phase,
            events: profile.events_processed,
            report,
        }
    }
}

fn telemetry_tiers(s: &Scenario, _scratch: &Path) -> Vec<(Observed, u64)> {
    let mut ring = RingSink::new(65_536);
    let ring_run = s.observed(Observer::Telemetry(&mut ring));
    let mut jsonl = JsonlSink::new(Vec::with_capacity(64 << 20));
    let jsonl_run = s.observed(Observer::Telemetry(&mut jsonl));
    assert_eq!(
        ring.seen(),
        jsonl.lines(),
        "telemetry tiers saw different event counts"
    );
    vec![(ring_run, ring.seen()), (jsonl_run, jsonl.lines())]
}

fn decision_tiers(s: &Scenario, scratch: &Path) -> Vec<(Observed, u64)> {
    let null_run = s.observed(Observer::Decisions(&mut NullDecisionSink));
    let mut vec = VecDecisionSink::new();
    let vec_run = s.observed(Observer::Decisions(&mut vec));
    let mut jsonl = JsonlDecisionSink::create(scratch.join("decisions.jsonl"))
        .expect("open decision log in scratch dir");
    let jsonl_run = s.observed(Observer::Decisions(&mut jsonl));
    assert!(!jsonl.write_failed(), "decision log write failed");
    let records = vec.records().len() as u64;
    assert_eq!(
        jsonl.lines(),
        records,
        "decision tiers saw different record counts"
    );
    assert!(records > 0, "run produced no decision records");
    vec![(null_run, 0), (vec_run, records), (jsonl_run, records)]
}

/// Counts cadence points without retaining or persisting anything:
/// isolates the engine-side cost of building a snapshot.
struct DiscardRecorder(u64);

impl CheckpointRecorder for DiscardRecorder {
    fn record(&mut self, _snapshot: &EngineSnapshot) -> bool {
        self.0 += 1;
        true
    }
}

fn checkpoint_tiers(s: &Scenario, scratch: &Path) -> Vec<(Observed, u64)> {
    let mut discard = DiscardRecorder(0);
    let discard_run = s.observed(Observer::Checkpoints(&mut discard));
    let path = scratch.join("snapshot.json");
    let mut file = FileRecorder::new(&path);
    let file_run = s.observed(Observer::Checkpoints(&mut file));
    assert_eq!(
        file.written(),
        discard.0,
        "recorder tiers saw different cadence points: {}",
        file.take_error().unwrap_or_default()
    );
    assert!(
        discard.0 >= 1,
        "run too short to checkpoint: no snapshot at the {}-event cadence",
        CheckpointPolicy::default().every_events
    );
    EngineSnapshot::read(&path).expect("last written snapshot reads back");
    vec![(discard_run, discard.0), (file_run, file.written())]
}

#[derive(Serialize)]
struct BenchOverhead {
    schema_version: u32,
    smoke: bool,
    workers: usize,
    load_qps: f64,
    groups: Vec<GroupDoc>,
}

#[derive(Serialize)]
struct GroupDoc {
    group: &'static str,
    seed: u64,
    duration_s: f64,
    reps: usize,
    arrivals: u64,
    /// Heap events per run, as the profiler counts them (`None` when
    /// no tier of the group runs profiled).
    events_processed: Option<u64>,
    unit: &'static str,
    plain_min_s: f64,
    plain_mean_s: f64,
    tiers: Vec<TierDoc>,
}

#[derive(Serialize)]
struct TierDoc {
    tier: &'static str,
    /// `"wall"` or the profiler phase the cost is read from.
    cost: &'static str,
    min_s: f64,
    mean_s: f64,
    median_s: f64,
    /// Units (the group's `unit`) per run.
    count: u64,
    /// Run slowdown: `min / plain_min` for wall tiers,
    /// `1 + median / plain_min` for phase tiers.
    overhead: f64,
    /// Observer nanoseconds per unit (`None` with no units).
    ns_per_unit: Option<f64>,
    gate: Option<GateDoc>,
}

#[derive(Serialize)]
struct GateDoc {
    measure: &'static str,
    limit: f64,
    value: f64,
    passed: bool,
}

/// Min, mean and median of a non-empty sample.
fn min_mean_median(xs: &[f64]) -> (f64, f64, f64) {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    (sorted[0], mean, sorted[sorted.len() / 2])
}

fn measure(group: &Group, profile: &WorkerProfile, smoke: bool, scratch: &Path) -> GroupDoc {
    let (duration_s, reps) = if smoke { group.smoke } else { group.full };
    let workers = constant_load_workers(TASK);
    let scenario = Scenario {
        profile,
        config: SimulationConfig::new(workers, TASK.paper_slos()[0]).seeded(group.seed),
        trace: Trace::constant(LOAD_QPS, duration_s),
    };
    println!(
        "{}: {duration_s:.0} s x {reps} reps, seed {:#x}",
        group.name, group.seed
    );

    // One untimed warmup so the first timed rep doesn't pay cold caches.
    let _ = scenario.plain();
    let mut plain_s = Vec::with_capacity(reps);
    let mut tier_s = vec![Vec::with_capacity(reps); group.tiers.len()];
    let mut arrivals = 0;
    let mut last = Vec::new();
    for _ in 0..reps {
        let (secs, plain) = scenario.plain();
        plain_s.push(secs);
        arrivals = plain.total_arrivals;
        let plain_json = serde_json::to_string(&plain).expect("report serializes");
        let runs = (group.run)(&scenario, scratch);
        assert_eq!(runs.len(), group.tiers.len(), "one run per tier");
        for ((&(tier, _), (run, _)), secs) in group.tiers.iter().zip(&runs).zip(&mut tier_s) {
            assert_eq!(
                plain_json,
                serde_json::to_string(&run.report).expect("report serializes"),
                "{}/{} run diverged from the plain run — an observer must never perturb \
                 the simulation",
                group.name,
                tier
            );
            secs.push(run.secs);
        }
        last = runs;
    }

    let (plain_min, plain_mean, _) = min_mean_median(&plain_s);
    let tiers = group
        .tiers
        .iter()
        .zip(&last)
        .zip(&tier_s)
        .map(|((&(tier, gate), (run, count)), secs)| {
            let (min_s, mean_s, median_s) = min_mean_median(secs);
            let (overhead, observer_s) = if run.phase.is_some() {
                (1.0 + median_s / plain_min, median_s)
            } else {
                (min_s / plain_min, (min_s - plain_min).max(0.0))
            };
            let ns_per_unit = (*count > 0).then(|| 1e9 * observer_s / *count as f64);
            let gate = gate.map(|(measure, full, small)| {
                let (measure, value) = match measure {
                    Measure::Overhead => ("overhead", overhead),
                    Measure::NsPerUnit => ("ns_per_unit", ns_per_unit.unwrap_or(0.0)),
                };
                let limit = if smoke { small } else { full };
                GateDoc {
                    measure,
                    limit,
                    value,
                    passed: value < limit,
                }
            });
            TierDoc {
                tier,
                cost: run.phase.map_or("wall", Phase::name),
                min_s,
                mean_s,
                median_s,
                count: *count,
                overhead,
                ns_per_unit,
                gate,
            }
        })
        .collect();
    GroupDoc {
        group: group.name,
        seed: group.seed,
        duration_s,
        reps,
        arrivals,
        events_processed: last
            .iter()
            .map(|(run, _)| run.events)
            .max()
            .filter(|&n| n > 0),
        unit: group.unit,
        plain_min_s: plain_min,
        plain_mean_s: plain_mean,
        tiers,
    }
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
                eprintln!("usage: observer_overhead [--smoke] [--out DIR]");
                exit(2);
            }
        }
    }

    let workers = constant_load_workers(TASK);
    println!(
        "\n=== Observer overhead — {} task, {workers} workers, {LOAD_QPS:.0} QPS{} ===",
        TASK.name(),
        if smoke { " (smoke)" } else { "" }
    );
    let profile = build_profile(TASK, TASK.paper_slos()[0]);
    let scratch = std::env::temp_dir().join(format!("ramsis-overhead-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create observer scratch dir");
    let groups: Vec<GroupDoc> = GROUPS
        .iter()
        .map(|g| measure(g, &profile, smoke, &scratch))
        .collect();
    std::fs::remove_dir_all(&scratch).ok();

    let mut rows = Vec::new();
    for g in &groups {
        rows.push(vec![
            g.group.to_string(),
            "plain".to_string(),
            "wall".to_string(),
            format!("{:.3}", g.plain_min_s),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "1.0000x".to_string(),
            "-".to_string(),
        ]);
        for t in &g.tiers {
            rows.push(vec![
                g.group.to_string(),
                t.tier.to_string(),
                t.cost.to_string(),
                format!("{:.3}", t.min_s),
                format!("{:.3}", t.median_s),
                format!("{} {}", t.count, g.unit),
                t.ns_per_unit
                    .map_or("-".to_string(), |ns| format!("{ns:.0}")),
                format!("{:.4}x", t.overhead),
                t.gate.as_ref().map_or("-".to_string(), |gate| {
                    format!(
                        "{} < {} {}",
                        gate.measure,
                        gate.limit,
                        if gate.passed { "ok" } else { "FAILED" }
                    )
                }),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "group", "tier", "cost", "min_s", "median_s", "count", "ns/unit", "overhead",
                "gate",
            ],
            &rows,
        )
    );

    let failed: Vec<String> = groups
        .iter()
        .flat_map(|g| {
            g.tiers.iter().filter_map(move |t| {
                let gate = t.gate.as_ref().filter(|gate| !gate.passed)?;
                Some(format!(
                    "{}/{}: {} {:.4} not under {}",
                    g.group, t.tier, gate.measure, gate.value, gate.limit
                ))
            })
        })
        .collect();
    write_json(
        &out_dir,
        "BENCH_overhead",
        &BenchOverhead {
            schema_version: 1,
            smoke,
            workers,
            load_qps: LOAD_QPS,
            groups,
        },
    );
    assert!(
        failed.is_empty(),
        "observer cost gates failed (phase tiers: median of reps over the min-of-reps plain \
         wall):\n  {}",
        failed.join("\n  ")
    );
    println!("OK: every tier's report byte-identical to its plain run; every gate held");
}
