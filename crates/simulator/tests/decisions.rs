//! Decision provenance and counterfactual replay invariants (ISSUE 8):
//! recording is off-by-default byte-identical, records carry coherent
//! provenance, forcing a decision's own chosen action reproduces the
//! factual run byte for byte, and invalid forcings fail loudly.

use std::time::Duration;

use ramsis_core::{Discretization, PolicyConfig, PolicySet};
use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_sim::{
    CheckpointPolicy, FaultPlan, ForcedDecision, MemoryRecorder, ResiliencePolicy, RetryPolicy,
    RunSpec, Selection, Simulation, SimulationConfig, TimeoutPolicy,
};
use ramsis_telemetry::{ChosenAction, NullDecisionSink, ReasonCode, VecDecisionSink, VecSink};
use ramsis_workload::{LoadMonitor, Trace};

fn profile() -> &'static WorkerProfile {
    use std::sync::OnceLock;
    static PROFILE: OnceLock<WorkerProfile> = OnceLock::new();
    PROFILE.get_or_init(|| {
        WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_millis(150),
            ProfilerConfig::default(),
        )
    })
}

fn scheme() -> ramsis_sim::RamsisScheme {
    let config = PolicyConfig::builder(Duration::from_millis(150))
        .workers(2)
        .discretization(Discretization::fixed_length(10))
        .build();
    ramsis_sim::RamsisScheme::new(
        PolicySet::generate_poisson(profile(), &[40.0, 80.0], &config).unwrap(),
    )
}

fn scenario() -> (Simulation<'static>, Trace, FaultPlan) {
    let (config, trace, plan) = scenario_parts();
    (Simulation::new(profile(), config).unwrap(), trace, plan)
}

fn scenario_parts() -> (SimulationConfig, Trace, FaultPlan) {
    let config = SimulationConfig::new(2, 0.15).with_resilience(ResiliencePolicy {
        timeout: Some(TimeoutPolicy::default()),
        retry: RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        },
        ..ResiliencePolicy::default()
    });
    let trace = Trace::constant(80.0, 8.0);
    let plan = FaultPlan::none().crash(0, 2.0).recover(0, 5.0);
    (config, trace, plan)
}

/// With a disabled decision sink, report and telemetry stream are
/// byte-identical to the plain traced run: recording off costs nothing
/// and perturbs nothing.
#[test]
fn disabled_recording_is_byte_identical() {
    let (sim, trace, plan) = scenario();

    let mut plain_sink = VecSink::new();
    let mut s = scheme();
    let mut est = LoadMonitor::new();
    let plain = sim
        .execute(
            RunSpec::trace(&trace)
                .faults(&plan)
                .telemetry(&mut plain_sink),
            &mut s,
            &mut est,
        )
        .unwrap();

    let mut null_dec = NullDecisionSink;
    let mut dec_sink = VecSink::new();
    let mut s2 = scheme();
    let mut est2 = LoadMonitor::new();
    let with_null = sim
        .execute(
            RunSpec::trace(&trace)
                .faults(&plan)
                .telemetry(&mut dec_sink)
                .decisions(&mut null_dec),
            &mut s2,
            &mut est2,
        )
        .unwrap();

    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&with_null).unwrap()
    );
    assert_eq!(plain_sink.events().len(), dec_sink.events().len());
    for (a, b) in plain_sink.events().iter().zip(dec_sink.events()) {
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap()
        );
    }
}

/// Recording on: the run's report is still identical, and the records
/// carry coherent provenance — strictly increasing `k`, monotone
/// timestamps per worker-independent stream, MDP state on every
/// selection site, and reason codes drawn from the expected set.
#[test]
fn recording_emits_coherent_records_without_perturbing_the_run() {
    let (sim, trace, plan) = scenario();

    let mut s = scheme();
    let mut est = LoadMonitor::new();
    let plain = sim
        .execute(RunSpec::trace(&trace).faults(&plan), &mut s, &mut est)
        .unwrap();

    let mut recorder = VecDecisionSink::new();
    let mut s2 = scheme();
    let mut est2 = LoadMonitor::new();
    let recorded = sim
        .execute(
            RunSpec::trace(&trace)
                .faults(&plan)
                .decisions(&mut recorder),
            &mut s2,
            &mut est2,
        )
        .unwrap();

    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&recorded).unwrap()
    );
    let records = recorder.records();
    assert!(!records.is_empty(), "run produced no decision records");
    for pair in records.windows(2) {
        assert!(pair[0].k < pair[1].k, "k not strictly increasing");
        assert!(pair[0].at <= pair[1].at, "timestamps went backwards");
        assert!(
            pair[0].event <= pair[1].event,
            "event cursor went backwards"
        );
    }
    for r in records {
        match r.reason {
            ReasonCode::PolicyLookup | ReasonCode::Fallback | ReasonCode::DegradedRung => {
                assert!(r.state.is_some(), "selection site without MDP state: {r:?}");
                assert!(
                    !r.candidates.is_empty(),
                    "selection site without candidates: {r:?}"
                );
                assert!(
                    matches!(r.chosen, ChosenAction::Serve { .. } | ChosenAction::Idle),
                    "unexpected chosen action for {:?}: {:?}",
                    r.reason,
                    r.chosen
                );
            }
            ReasonCode::Retry => {
                assert!(matches!(r.chosen, ChosenAction::Retry { .. }));
            }
            ReasonCode::Hedge => {
                assert!(matches!(r.chosen, ChosenAction::Hedge { .. }));
            }
            ReasonCode::Shed => {
                assert!(matches!(r.chosen, ChosenAction::Shed { .. }));
            }
        }
    }
}

/// Forcing a selection-site decision's own raw chosen action replays
/// the factual run byte for byte — report and telemetry stream.
#[test]
fn replaying_the_chosen_action_reproduces_the_run() {
    let (sim, trace, plan) = scenario();

    let mut recorder = VecDecisionSink::new();
    let mut factual_sink = VecSink::new();
    let mut s = scheme();
    let mut est = LoadMonitor::new();
    let factual = sim
        .execute(
            RunSpec::trace(&trace)
                .faults(&plan)
                .telemetry(&mut factual_sink)
                .decisions(&mut recorder),
            &mut s,
            &mut est,
        )
        .unwrap();

    // Exercise several selection sites across the run, including ones
    // inside the fault window.
    let sites: Vec<_> = recorder
        .records()
        .iter()
        .filter(|r| r.state.is_some())
        .cloned()
        .collect();
    assert!(sites.len() >= 3, "too few selection sites: {}", sites.len());
    for rec in [&sites[0], &sites[sites.len() / 2], &sites[sites.len() - 1]] {
        let action = match rec.chosen {
            ChosenAction::Serve { model, batch } => Selection::Serve {
                model: model as usize,
                batch,
            },
            ChosenAction::Shed { count } => Selection::Drop { count },
            ChosenAction::Idle => Selection::Idle,
            _ => unreachable!("selection sites only"),
        };
        let mut replay_sink = VecSink::new();
        let mut s2 = scheme();
        let mut est2 = LoadMonitor::new();
        let replayed = sim
            .execute(
                RunSpec::trace(&trace)
                    .faults(&plan)
                    .telemetry(&mut replay_sink)
                    .force(ForcedDecision { k: rec.k, action }, 0),
                &mut s2,
                &mut est2,
            )
            .unwrap();
        assert_eq!(
            serde_json::to_string(&factual).unwrap(),
            serde_json::to_string(&replayed).unwrap(),
            "baseline replay diverged at k={}",
            rec.k
        );
        assert_eq!(factual_sink.events().len(), replay_sink.events().len());
    }
}

/// Forcing a genuinely different action produces a valid (usually
/// different) run: the replay machinery is a real branch, not a no-op.
#[test]
fn forcing_an_alternative_yields_a_valid_run() {
    let (sim, trace, plan) = scenario();

    let mut recorder = VecDecisionSink::new();
    let mut s = scheme();
    let mut est = LoadMonitor::new();
    let factual = sim
        .execute(
            RunSpec::trace(&trace)
                .faults(&plan)
                .decisions(&mut recorder),
            &mut s,
            &mut est,
        )
        .unwrap();

    let rec = recorder
        .records()
        .iter()
        .find(|r| matches!(r.chosen, ChosenAction::Serve { .. }))
        .expect("run served something")
        .clone();
    let ChosenAction::Serve { model, batch } = rec.chosen else {
        unreachable!()
    };
    let alt_model = if model == 0 { 1 } else { 0 };
    let mut s2 = scheme();
    let mut est2 = LoadMonitor::new();
    let cf = sim
        .execute(
            RunSpec::trace(&trace).faults(&plan).force(
                ForcedDecision {
                    k: rec.k,
                    action: Selection::Serve {
                        model: alt_model as usize,
                        batch,
                    },
                },
                0,
            ),
            &mut s2,
            &mut est2,
        )
        .unwrap();
    assert_eq!(cf.total_arrivals, factual.total_arrivals);
    assert!(cf.served + cf.dropped <= cf.total_arrivals + cf.resilience.retries);
}

/// A forced decision the run never reaches is an error, not a silent
/// reproduction of the factual run.
#[test]
fn forcing_an_unreached_decision_errors() {
    let (sim, trace, plan) = scenario();
    let mut s = scheme();
    let mut est = LoadMonitor::new();
    let err = sim
        .execute(
            RunSpec::trace(&trace).faults(&plan).force(
                ForcedDecision {
                    k: u64::MAX,
                    action: Selection::Idle,
                },
                0,
            ),
            &mut s,
            &mut est,
        )
        .unwrap_err();
    assert!(
        format!("{err}").contains("never applied"),
        "unexpected error: {err}"
    );
}

/// A forced model no worker serves is rejected up front.
#[test]
fn forcing_an_unknown_model_errors() {
    let (sim, trace, plan) = scenario();
    let mut s = scheme();
    let mut est = LoadMonitor::new();
    let err = sim
        .execute(
            RunSpec::trace(&trace).faults(&plan).force(
                ForcedDecision {
                    k: 0,
                    action: Selection::Serve {
                        model: 10_000,
                        batch: 1,
                    },
                },
                0,
            ),
            &mut s,
            &mut est,
        )
        .unwrap_err();
    assert!(
        format!("{err}").contains("out of range"),
        "unexpected error: {err}"
    );
}

/// Branching from a checkpoint: forcing decision `k` on a run resumed
/// from a mid-run snapshot of a faulted run — with `k_offset` the
/// factual decisions made before the snapshot — reproduces forcing the
/// same `k` from time zero byte for byte, and a branch point before
/// the snapshot is refused.
#[test]
fn forcing_from_a_checkpoint_matches_forcing_from_time_zero() {
    let (config, trace, plan) = scenario_parts();
    let sim = Simulation::new(profile(), config).unwrap();

    let mut decisions = VecDecisionSink::new();
    let mut snapshots = MemoryRecorder::new();
    let spec = RunSpec::trace(&trace)
        .faults(&plan)
        .decisions(&mut decisions)
        .checkpoints(&mut snapshots, CheckpointPolicy::every_events(200));
    sim.execute(spec, &mut scheme(), &mut LoadMonitor::new())
        .unwrap();
    assert!(
        snapshots.snapshots.len() >= 2,
        "fixture must checkpoint mid-run"
    );
    let snap = &snapshots.snapshots[snapshots.snapshots.len() / 2];
    let records = decisions.records();
    let k_offset = records
        .iter()
        .filter(|r| r.event < snap.meta.events_done)
        .count() as u64;
    assert!(k_offset > 0, "snapshot must follow some decisions");

    // The first selection-site Serve past the snapshot, forced to the
    // other model so the branch really diverges.
    let rec = records
        .iter()
        .find(|r| r.k >= k_offset && matches!(r.chosen, ChosenAction::Serve { .. }))
        .expect("a dispatch follows the snapshot");
    let ChosenAction::Serve { model, batch } = rec.chosen else {
        unreachable!()
    };
    let forced = ForcedDecision {
        k: rec.k,
        action: Selection::Serve {
            model: usize::from(model == 0),
            batch,
        },
    };

    let from_zero = sim
        .execute(
            RunSpec::trace(&trace).faults(&plan).force(forced, 0),
            &mut scheme(),
            &mut LoadMonitor::new(),
        )
        .unwrap();
    let from_snapshot = sim
        .execute(
            RunSpec::trace(&trace)
                .faults(&plan)
                .resume_from(snap)
                .force(forced, k_offset),
            &mut scheme(),
            &mut LoadMonitor::new(),
        )
        .unwrap();
    assert_eq!(
        serde_json::to_string(&from_zero).unwrap(),
        serde_json::to_string(&from_snapshot).unwrap()
    );

    let before_snapshot = ForcedDecision {
        k: k_offset - 1,
        ..forced
    };
    let err = sim
        .execute(
            RunSpec::trace(&trace)
                .faults(&plan)
                .resume_from(snap)
                .force(before_snapshot, k_offset),
            &mut scheme(),
            &mut LoadMonitor::new(),
        )
        .unwrap_err();
    assert!(
        format!("{err}").contains("precedes the snapshot"),
        "unexpected error: {err}"
    );
}
