//! A small randomized chaos sweep with every dimension on: each run
//! draws its cluster, load, faults and resilience, autoscale and
//! detector policies from its seed, executes twice, is killed at a
//! random checkpoint and resumed, and must pass the whole invariant
//! battery (determinism, conservation, counter agreement, kill–resume
//! byte-identity, detector bounds). The full sweeps live in the
//! simulator crate's tests.

use ramsis::sim::ChaosConfig;

#[test]
fn kill_resume_sweep_with_the_detector_passes_every_invariant() {
    let config = ChaosConfig {
        seed: 0x7E57_C4A0,
        runs: 25,
        max_workers: 3,
        max_duration_s: 1.0,
        max_load_qps: 80.0,
        kill_resume: true,
        health: true,
        ..ChaosConfig::default()
    };
    let report = config.run_sweep().expect("sweep parameters are valid");
    assert_eq!(report.runs.len(), 25);
    report.expect_pass();
    assert!(report.runs.iter().all(|r| r.detected));
    assert!(report.runs.iter().any(|r| r.resumed_from.is_some()));
}
