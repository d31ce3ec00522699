//! Observer contract through the facade: every combination of a
//! profiler (absent, disabled, enabled), a decision sink, and a
//! checkpoint recorder leaves the report and the event stream
//! byte-identical to the bare run, and the span reconstructor's
//! critical path conserves every completed query's measured response
//! time exactly.

use ramsis::prelude::*;
use ramsis::sim::{
    CheckpointPolicy, FastestFixed, FaultPlan, HedgePolicy, MemoryRecorder, ResiliencePolicy,
    Routing, TimeoutPolicy,
};
use ramsis::telemetry::{critical_path, reconstruct_spans, JsonlSink, Profiler, VecDecisionSink};

fn profile() -> &'static WorkerProfile {
    use std::sync::OnceLock;
    static P: OnceLock<WorkerProfile> = OnceLock::new();
    P.get_or_init(|| {
        WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_millis(150),
            ProfilerConfig::default(),
        )
    })
}

/// A resilience-heavy fixture: straggler slowdown plus a crash window
/// under timeouts, retries, and hedging — every span segment kind
/// (wait, service, wasted, backoff, hedge overlap) gets exercised.
fn resilience_fixture() -> (SimulationConfig, FaultPlan, Trace) {
    let mut policy = ResiliencePolicy {
        timeout: Some(TimeoutPolicy::default()),
        hedge: Some(HedgePolicy {
            min_samples: 16,
            quantile: 85.0,
            min_delay_s: 0.001,
        }),
        ..ResiliencePolicy::default()
    };
    policy.retry.max_retries = 3;
    let plan = FaultPlan::none()
        .slowdown(0, 2.0, 16.0, 10.0)
        .crash(1, 6.0)
        .recover(1, 12.0);
    let config = SimulationConfig::new(4, 0.15)
        .seeded(4242)
        .stochastic()
        .with_resilience(policy);
    (config, plan, Trace::constant(80.0, 18.0))
}

/// How a run's profiler is attached.
#[derive(Debug, Clone, Copy)]
enum Prof {
    Absent,
    Off,
    On,
}

/// One traced run of the fixture with the given observers attached:
/// a profiler, a decision sink, a checkpoint recorder. Returns the report,
/// the JSONL event stream, and the profiler if one was attached.
fn traced_run(
    prof: Prof,
    decisions: bool,
    recorder: bool,
) -> (SimulationReport, Vec<u8>, Option<Profiler>) {
    let (config, plan, trace) = resilience_fixture();
    let sim = Simulation::new(profile(), config).expect("valid simulation config");
    let mut scheme = FastestFixed::new(profile().fastest_model(), Routing::PerWorkerRoundRobin);
    let mut monitor = LoadMonitor::new();
    let mut sink = JsonlSink::new(Vec::new());
    let mut profiler = match prof {
        Prof::Absent => None,
        Prof::Off => Some(Profiler::off()),
        Prof::On => Some(Profiler::on()),
    };
    let mut decision_sink = VecDecisionSink::new();
    let mut rec = MemoryRecorder::new();
    let mut spec = RunSpec::trace(&trace).faults(&plan).telemetry(&mut sink);
    if let Some(p) = profiler.as_mut() {
        spec = spec.profiler(p);
    }
    if decisions {
        spec = spec.decisions(&mut decision_sink);
    }
    if recorder {
        spec = spec.checkpoints(&mut rec, CheckpointPolicy::every_events(500));
    }
    let report = sim
        .execute(spec, &mut scheme, &mut monitor)
        .expect("plan validates");
    assert_eq!(decisions, !decision_sink.records().is_empty());
    assert_eq!(recorder, !rec.snapshots.is_empty());
    let bytes = sink.finish().expect("in-memory sink flushes");
    (report, bytes, profiler)
}

#[test]
fn profiler_never_perturbs_the_run() {
    let (base_report, base_bytes, _) = traced_run(Prof::Absent, false, false);
    assert!(base_report.resilience.timeouts > 0, "fixture times out");
    assert!(base_report.resilience.hedges_issued > 0, "fixture hedges");

    // Every observer combination — profiler absent/off/on, decision
    // sink, checkpoint recorder — leaves the report equal and the
    // event stream byte-identical to the bare run.
    for prof in [Prof::Absent, Prof::Off, Prof::On] {
        for decisions in [false, true] {
            for recorder in [false, true] {
                let (report, bytes, profiler) = traced_run(prof, decisions, recorder);
                let case = format!("{prof:?} profiler, decisions {decisions}, recorder {recorder}");
                assert_eq!(base_report, report, "report diverged: {case}");
                assert_eq!(base_bytes, bytes, "event stream diverged: {case}");
                match prof {
                    Prof::Absent => assert!(profiler.is_none()),
                    Prof::Off => assert!(!profiler.expect("attached").report().enabled),
                    Prof::On => {
                        // Enabled profiler: observes without changing.
                        let pr = profiler.expect("attached").report();
                        assert!(pr.enabled && pr.events_processed > 0 && pr.wall_ns > 0);
                        assert!(!pr.phases.is_empty(), "phase timings were collected");
                        assert!(pr.counter("dispatches") > 0);
                        assert_eq!(pr.counter("heap_pushes"), pr.counter("heap_pops"));
                        assert!(pr.counter("timeouts_fired") > 0);
                        assert!(pr.counter("hedges_issued") > 0);
                    }
                }
            }
        }
    }
}

#[test]
fn critical_path_conserves_measured_response_times() {
    let (report, bytes, _) = traced_run(Prof::Absent, false, false);
    let text = String::from_utf8(bytes).unwrap();
    let parsed = ramsis::telemetry::parse_jsonl(&text).expect("clean log parses strictly");

    let log = reconstruct_spans(&parsed);
    let cp = critical_path(&log, 5);
    assert_eq!(cp.completed, report.served, "span count matches report");
    assert_eq!(cp.orphan_events, 0, "full trace has no orphans");
    assert_eq!(cp.conservation_violations, 0, "segment sums must conserve");

    // The per-span identity, checked exactly — wait + service + wasted
    // + backoff + hedge overlap telescopes to the engine's measured
    // response time, with zero rounding slack.
    let mut checked = 0u64;
    for span in &log.spans {
        if let Some(response_ns) = span.response_ns {
            assert_eq!(
                span.segment_sum(),
                response_ns,
                "query {} leaks time: segments {:?} vs response {}",
                span.query,
                (
                    span.wait_ns,
                    span.service_ns,
                    span.wasted_ns,
                    span.backoff_ns,
                    span.hedge_overlap_ns
                ),
                response_ns
            );
            assert_eq!(span.conserved(), Some(true));
            checked += 1;
        }
    }
    assert_eq!(checked, report.served, "every completion was checked");
    assert!(
        cp.retried > 0 && cp.hedged > 0,
        "fixture must put resilience on the critical path (retried {}, hedged {})",
        cp.retried,
        cp.hedged
    );
}
