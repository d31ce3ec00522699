//! Kill–resume through the facade, on one run that fills every optional
//! section of the snapshot: faults (a crash that never recovers, a
//! slowdown, a surge), every resilience mechanism, autoscaling with its
//! brownout ladder, the failure detector, a scheme with checkpoint
//! state (`DegradingRamsis`) and an estimator with checkpoint state
//! (`LoadMonitor`).
//!
//! Each snapshot's canonical JSON is reduced to a 64-bit FNV-1a
//! fingerprint and compared against values recorded by hand, so any
//! change to the snapshot bytes fails here: the schema and
//! `SNAPSHOT_VERSION` are a file format that older snapshots rely on.
//! A moved fingerprint means the snapshot layout or the run changed; do
//! not re-record it without bumping the format.

use std::sync::OnceLock;

use ramsis::core::{DegradablePolicySet, FallbackPolicy};
use ramsis::prelude::*;
use ramsis::sim::checkpoint::HeapEntry;
use ramsis::sim::{
    AutoscalePolicy, CheckpointPolicy, DegradingRamsis, EngineSnapshot, FaultPlan, HealthPolicy,
    MemoryRecorder, ResiliencePolicy,
};
use ramsis::telemetry::VecSink;

fn profile() -> &'static WorkerProfile {
    static P: OnceLock<WorkerProfile> = OnceLock::new();
    P.get_or_init(|| {
        WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_millis(150),
            ProfilerConfig::default(),
        )
    })
}

fn sets() -> &'static DegradablePolicySet {
    static S: OnceLock<DegradablePolicySet> = OnceLock::new();
    S.get_or_init(|| {
        let config = PolicyConfig::builder(Duration::from_millis(150))
            .workers(4)
            .discretization(Discretization::fixed_length(8))
            .build();
        DegradablePolicySet::generate_poisson(profile(), &[50.0, 150.0, 300.0], &config, 1)
            .expect("generation over valid loads")
    })
}

fn scheme() -> DegradingRamsis {
    DegradingRamsis::new(
        sets().clone(),
        FallbackPolicy::fastest(profile()).expect("profile has models"),
    )
}

fn trace() -> Trace {
    Trace::from_interval_qps(&[100.0, 20.0, 160.0], 1.5, TraceKind::Custom)
}

/// Worker 0 crashes for good; worker 1 slows down; arrivals surge.
fn plan() -> FaultPlan {
    FaultPlan::none()
        .crash(0, 0.7)
        .slowdown(1, 1.0, 2.5, 3.0)
        .surge(2.0, 3.0, 1.5)
}

fn sim() -> Simulation<'static> {
    let mut autoscale = AutoscalePolicy::elastic(1, 4, 50.0);
    autoscale.warmup_s = 0.3;
    let config = SimulationConfig::new(3, 0.15)
        .seeded(0xC0FFEE)
        .with_resilience(ResiliencePolicy::all_on())
        .with_autoscale(autoscale)
        .with_health(HealthPolicy::probing(0.05));
    Simulation::new(profile(), config).expect("valid config")
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn jsonl(events: &[ramsis::telemetry::Event]) -> Vec<String> {
    events
        .iter()
        .map(|e| serde_json::to_string(e).expect("events serialize"))
        .collect()
}

/// The uninterrupted run: its report JSON, its telemetry lines, and
/// every snapshot it recorded.
fn full_run() -> (String, Vec<String>, Vec<EngineSnapshot>) {
    let trace = trace();
    let plan = plan();
    let mut rec = MemoryRecorder::new();
    let mut sink = VecSink::new();
    let report = sim()
        .execute(
            RunSpec::trace(&trace)
                .faults(&plan)
                .telemetry(&mut sink)
                .checkpoints(&mut rec, CheckpointPolicy::every_events(150)),
            &mut scheme(),
            &mut LoadMonitor::new(),
        )
        .expect("run completes");
    let report = serde_json::to_string(&report).expect("report serializes");
    (report, jsonl(&sink.into_events()), rec.snapshots)
}

fn resume(snap: &EngineSnapshot) -> Result<(String, Vec<String>), ramsis::sim::SimError> {
    let trace = trace();
    let plan = plan();
    let mut sink = VecSink::new();
    let report = sim().execute(
        RunSpec::trace(&trace)
            .faults(&plan)
            .telemetry(&mut sink)
            .resume_from(snap),
        &mut scheme(),
        &mut LoadMonitor::new(),
    )?;
    let report = serde_json::to_string(&report).expect("report serializes");
    Ok((report, jsonl(&sink.into_events())))
}

#[test]
fn snapshot_bytes_are_pinned_and_resume_is_byte_identical() {
    let (report, events, snaps) = full_run();
    for s in &snaps {
        assert!(s.autoscale.is_some(), "autoscale section must be filled");
        assert!(s.health.is_some(), "health section must be filled");
        assert_eq!(
            s.scheme_state.kind(),
            "object",
            "scheme state must be filled"
        );
        assert_eq!(
            s.estimator_state.kind(),
            "object",
            "estimator state must be filled"
        );
    }
    let last = snaps.last().expect("the run takes snapshots");
    assert!(
        last.cluster.down_since[0].is_some(),
        "worker 0 must still be down"
    );
    assert!(
        !last.resilience.retry_buf.is_empty(),
        "retries must be pending"
    );

    let got: Vec<u64> = snaps
        .iter()
        .map(|s| fnv1a(s.to_json().as_bytes()))
        .collect();
    let want: [u64; 5] = [
        0x9dc0_dfd3_823d_12af,
        0x4b78_01e4_7f34_0171,
        0x5cd9_61a1_2005_cb0d,
        0x73ac_a390_1b4d_0027,
        0x11f3_4b86_e558_243c,
    ];
    assert_eq!(got, want, "snapshot bytes moved: {got:#x?}");

    // Resume from a middle snapshot, parsed back from its file form.
    let mid = EngineSnapshot::from_json(&snaps[snaps.len() / 2].to_json()).expect("parses");
    let (resumed_report, resumed_events) = resume(&mid).expect("resume succeeds");
    assert_eq!(resumed_report, report);
    assert_eq!(
        resumed_events,
        events[mid.meta.events_emitted as usize..].to_vec()
    );
}

/// Appends a pending event `(tag, a)` to the snapshot's heap.
fn push_event(s: &mut EngineSnapshot, tag: u8, a: u64) {
    s.heap.push(HeapEntry {
        t: s.meta.sim_time_ns,
        seq: s.next_seq,
        tag,
        a,
        b: 0,
    });
    s.next_seq += 1;
}

#[test]
fn resume_rejects_out_of_range_snapshots_with_an_error() {
    let (_, _, snaps) = full_run();
    let base = snaps[snaps.len() / 2].clone();
    let n = base.cluster.alive.len();
    let short = n - 1;
    let busy = base
        .cluster
        .in_flight
        .iter()
        .position(Option::is_some)
        .expect("a dispatch is in flight at the snapshot");
    let w = n as u64;
    type Edit = Box<dyn Fn(&mut EngineSnapshot)>;
    let cases: Vec<(&str, Edit)> = vec![
        (
            "short busy",
            Box::new(move |s| s.cluster.busy.truncate(short)),
        ),
        (
            "short slow",
            Box::new(move |s| s.cluster.slow.truncate(short)),
        ),
        (
            "short epochs",
            Box::new(move |s| s.cluster.epochs.truncate(short)),
        ),
        (
            "short in_flight",
            Box::new(move |s| s.cluster.in_flight.truncate(short)),
        ),
        (
            "short down_since",
            Box::new(move |s| s.cluster.down_since.truncate(short)),
        ),
        (
            "short lifecycle",
            Box::new(move |s| s.cluster.lifecycle.truncate(short)),
        ),
        (
            "short worker_queues",
            Box::new(move |s| s.worker_queues.truncate(short)),
        ),
        (
            "short admission",
            Box::new(move |s| s.resilience.admission.truncate(n)),
        ),
        (
            "short health",
            Box::new(move |s| s.health.as_mut().unwrap().workers.truncate(short)),
        ),
        ("live count", Box::new(|s| s.cluster.live += 1)),
        ("round-robin cursor", Box::new(move |s| s.rr_next = n)),
        ("rng word", Box::new(|s| s.latency_rng.1 = 17)),
        ("arrival index", Box::new(|s| push_event(s, 0, 1 << 40))),
        ("done worker", Box::new(move |s| push_event(s, 1, w))),
        ("fault index", Box::new(|s| push_event(s, 2, 999))),
        ("timeout worker", Box::new(move |s| push_event(s, 3, w + 1))),
        ("hedge worker", Box::new(|s| push_event(s, 4, u64::MAX))),
        ("retry index", Box::new(|s| push_event(s, 5, 999))),
        (
            "retry index past u32",
            Box::new(|s| push_event(s, 5, 1 << 32)),
        ),
        ("warmup worker", Box::new(move |s| push_event(s, 7, w))),
        (
            "in-flight twin",
            Box::new(move |s| s.cluster.in_flight[busy].as_mut().unwrap().twin = Some(n)),
        ),
        (
            "in-flight model",
            Box::new(move |s| s.cluster.in_flight[busy].as_mut().unwrap().model = 999),
        ),
    ];
    for (what, edit) in &cases {
        let mut snap = base.clone();
        edit(&mut snap);
        let snap = EngineSnapshot::from_json(&snap.to_json()).expect("still parses");
        let err = resume(&snap).expect_err(what);
        assert!(err.to_string().contains("cannot resume"), "{what}: {err}");
    }
}
