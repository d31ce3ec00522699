//! Property tests for the checkpoint subsystem: over randomized
//! scenarios (cluster shape, load, faults, routing, checkpoint
//! cadence), every snapshot taken mid-run — including ones landing
//! mid-fault, mid-drain, or with hedges in flight — must JSON
//! round-trip byte-identically, and resuming from an arbitrary kill
//! point must reproduce the uninterrupted run's report and telemetry
//! suffix byte for byte.

use std::time::Duration;

use proptest::prelude::*;

use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_sim::{
    AutoscalePolicy, CheckpointPolicy, EngineSnapshot, FastestFixed, FaultPlan, MemoryRecorder,
    ResiliencePolicy, Routing, RunSpec, Simulation, SimulationConfig,
};
use ramsis_telemetry::VecSink;
use ramsis_workload::{LoadMonitor, Trace};

fn profile() -> WorkerProfile {
    WorkerProfile::build(
        &ModelCatalog::torchvision_image(),
        Duration::from_secs_f64(0.15),
        ProfilerConfig::default(),
    )
}

fn routing_of(ix: u8) -> Routing {
    match ix % 3 {
        0 => Routing::Central,
        1 => Routing::PerWorkerRoundRobin,
        _ => Routing::PerWorkerShortestQueue,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary kill points: run a randomized faulted scenario with a
    /// randomized checkpoint cadence, then (a) every snapshot taken —
    /// wherever it landed in the run — serializes and re-parses to the
    /// exact same bytes, and (b) resuming from a randomly chosen one
    /// continues to a byte-identical report and telemetry suffix.
    #[test]
    fn snapshots_round_trip_and_resume_byte_identically(
        seed in 0u64..1_000_000,
        workers in 1usize..4,
        load in 30.0f64..120.0,
        duration in 0.6f64..1.2,
        every in 8u64..80,
        routing_ix in 0u8..3,
        crash in proptest::bool::ANY,
        slowdown in proptest::bool::ANY,
        surge in proptest::bool::ANY,
        kill_ix in 0usize..64,
    ) {
        let profile = profile();
        let fastest = profile.fastest_model();
        let routing = routing_of(routing_ix);
        let mut plan = FaultPlan::none();
        if crash {
            plan = plan.crash(0, duration * 0.3);
            if workers > 1 {
                plan = plan.recover(0, duration * 0.7);
            }
        }
        if slowdown {
            plan = plan.slowdown(workers - 1, duration * 0.2, duration * 0.8, 3.0);
        }
        if surge {
            plan = plan.surge(duration * 0.4, duration * 0.9, 2.0);
        }
        let trace = Trace::constant(load, duration);
        let config = SimulationConfig::new(workers, 0.15)
            .seeded(seed)
            .with_resilience(ResiliencePolicy::all_on());
        let sim = Simulation::new(&profile, config).unwrap();

        let mut rec = MemoryRecorder::new();
        let mut full_sink = VecSink::new();
        let spec = RunSpec::trace(&trace)
            .faults(&plan)
            .telemetry(&mut full_sink)
            .checkpoints(&mut rec, CheckpointPolicy::every_events(every));
        let full = sim
            .execute(spec, &mut FastestFixed::new(fastest, routing), &mut LoadMonitor::new())
            .unwrap();
        let full_json = serde_json::to_string(&full).unwrap();
        let full_events = full_sink.into_events();

        for snap in &rec.snapshots {
            let json = snap.to_json();
            let back = EngineSnapshot::from_json(&json).unwrap();
            prop_assert_eq!(
                back.to_json(),
                json,
                "snapshot at event {} does not round-trip",
                snap.meta.events_done
            );
        }

        if !rec.snapshots.is_empty() {
            let snap = &rec.snapshots[kill_ix % rec.snapshots.len()];
            let mut sink = VecSink::new();
            let spec = RunSpec::trace(&trace)
                .faults(&plan)
                .telemetry(&mut sink)
                .resume_from(snap);
            let resumed = sim
                .execute(spec, &mut FastestFixed::new(fastest, routing), &mut LoadMonitor::new())
                .unwrap();
            prop_assert_eq!(&serde_json::to_string(&resumed).unwrap(), &full_json);
            let suffix = &full_events[snap.meta.events_emitted as usize..];
            prop_assert_eq!(sink.into_events().as_slice(), suffix);
        }
    }
}

/// The pinned acceptance run: one fixed faulted + elastic scenario,
/// resumed from *every* checkpoint it produced, each resumption
/// reproducing the same final report and exact telemetry suffix.
#[test]
fn pinned_run_resumes_identically_from_every_checkpoint() {
    let profile = profile();
    let fastest = profile.fastest_model();
    let trace = Trace::constant(140.0, 2.0);
    let plan = FaultPlan::none()
        .crash(0, 0.5)
        .recover(0, 1.2)
        .slowdown(1, 0.8, 1.6, 2.5)
        .surge(1.0, 1.8, 1.8);
    let mut policy = AutoscalePolicy::elastic(1, 5, 40.0);
    policy.warmup_s = 0.2;
    let config = SimulationConfig::new(3, 0.15)
        .seeded(4242)
        .with_resilience(ResiliencePolicy::all_on())
        .with_autoscale(policy);
    let sim = Simulation::new(&profile, config).unwrap();

    let mut rec = MemoryRecorder::new();
    let mut full_sink = VecSink::new();
    let full = sim
        .execute(
            RunSpec::trace(&trace)
                .faults(&plan)
                .telemetry(&mut full_sink)
                .checkpoints(&mut rec, CheckpointPolicy::every_events(150)),
            &mut FastestFixed::new(fastest, Routing::PerWorkerShortestQueue),
            &mut LoadMonitor::new(),
        )
        .unwrap();
    let full_json = serde_json::to_string(&full).unwrap();
    let full_events = full_sink.into_events();
    assert!(
        rec.snapshots.len() >= 4,
        "pinned run took only {} checkpoints",
        rec.snapshots.len()
    );

    for snap in &rec.snapshots {
        let mut sink = VecSink::new();
        let resumed = sim
            .execute(
                RunSpec::trace(&trace)
                    .faults(&plan)
                    .telemetry(&mut sink)
                    .resume_from(snap),
                &mut FastestFixed::new(fastest, Routing::PerWorkerShortestQueue),
                &mut LoadMonitor::new(),
            )
            .unwrap();
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            full_json,
            "divergent report resuming from event {}",
            snap.meta.events_done
        );
        assert_eq!(
            sink.into_events().as_slice(),
            &full_events[snap.meta.events_emitted as usize..],
            "divergent telemetry suffix resuming from event {}",
            snap.meta.events_done
        );
    }
}
