//! One small seeded, faulted run under each optional engine subsystem
//! configuration, reduced to 64-bit FNV-1a fingerprints of its report
//! JSON and its telemetry event stream. The values were recorded by
//! hand; a moved fingerprint means the subsystem's behaviour changed.
//! Re-record only for an intended behaviour change, and say why.

use std::sync::OnceLock;

use ramsis::prelude::*;
use ramsis::sim::{
    AutoscalePolicy, FastestFixed, FaultPlan, HealthPolicy, ResiliencePolicy, Routing,
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

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The run's report JSON and its event stream as JSON lines.
fn run(config: SimulationConfig) -> (String, String) {
    // A lull, an overload past the pool's capacity, then recovery.
    let trace = Trace::from_interval_qps(&[40.0, 160.0, 60.0], 2.0, TraceKind::Custom);
    // A straggler, a crash that recovers, and a short partition.
    let plan = FaultPlan::none()
        .slowdown(0, 1.0, 1.6, 8.0)
        .crash(1, 2.5)
        .recover(1, 3.5)
        .partition(2, 4.0, 4.6);
    // The quickest model at least twice as slow as the fastest, so the
    // brownout ladder has a faster one to degrade to.
    let lat = |m: usize| profile().latency_extrapolated(m, 1);
    let floor = 2.0 * lat(profile().fastest_model());
    let model = (0..profile().n_models())
        .filter(|&m| lat(m) >= floor)
        .min_by(|&a, &b| lat(a).total_cmp(&lat(b)))
        .expect("the zoo has slower models");
    let mut scheme = FastestFixed::new(model, Routing::PerWorkerRoundRobin);
    let mut sink = VecSink::new();
    let report = Simulation::new(profile(), config)
        .expect("valid config")
        .execute(
            RunSpec::trace(&trace).faults(&plan).telemetry(&mut sink),
            &mut scheme,
            &mut LoadMonitor::new(),
        )
        .expect("run completes");
    let events: String = sink
        .into_events()
        .iter()
        .map(|e| serde_json::to_string(e).expect("events serialize") + "\n")
        .collect();
    (
        serde_json::to_string(&report).expect("report serializes"),
        events,
    )
}

fn base() -> SimulationConfig {
    SimulationConfig::new(3, 0.15).seeded(0x5EED).stochastic()
}

#[test]
fn each_subsystem_configuration_is_pinned() {
    let all_on = ResiliencePolicy::all_on();
    let timeout_only = ResiliencePolicy {
        timeout: all_on.timeout,
        ..ResiliencePolicy::default()
    };
    let hedge_only = ResiliencePolicy {
        hedge: all_on.hedge,
        ..ResiliencePolicy::default()
    };
    let admission_only = ResiliencePolicy {
        admission: all_on.admission,
        ..ResiliencePolicy::default()
    };
    let elastic = AutoscalePolicy::elastic(2, 6, 40.0);
    let mut no_brownout = elastic;
    no_brownout.brownout = None;

    let cases: [(&str, SimulationConfig, u64, u64); 8] = [
        (
            "default",
            base(),
            0xd19e_b429_489f_fdce,
            0x1502_433a_0a40_24e5,
        ),
        (
            "all_on",
            base().with_resilience(all_on),
            0xa662_cc08_cd0e_7762,
            0xde22_963e_0530_60cc,
        ),
        (
            "timeout_only",
            base().with_resilience(timeout_only),
            0x0083_8476_4d67_2e0c,
            0x0b50_2862_7897_aba5,
        ),
        (
            "hedge_only",
            base().with_resilience(hedge_only),
            0x904f_56d3_e0b6_7595,
            0x79c6_0351_45cb_b4e6,
        ),
        (
            "admission_only",
            base().with_resilience(admission_only),
            0x5a3f_7055_dc1d_18be,
            0x884f_154b_ec33_edc9,
        ),
        (
            "elastic",
            base().with_autoscale(elastic),
            0x0ebc_ab38_ba00_e9e6,
            0xa895_b41e_2d25_f77f,
        ),
        (
            "elastic_no_brownout",
            base().with_autoscale(no_brownout),
            0x23bf_5b83_be49_ca2c,
            0xe07e_9259_ac7e_c940,
        ),
        (
            "health",
            base().with_health(HealthPolicy::probing(0.05)),
            0xe213_c85d_7839_85e6,
            0x1816_0642_5c9f_e8aa,
        ),
    ];
    let mut got = Vec::new();
    for (name, config, _, _) in &cases {
        let (report, events) = run(*config);
        got.push((*name, fnv1a(report.as_bytes()), fnv1a(events.as_bytes())));
        if *name == "default" {
            assert!(!report.contains("\"autoscale\""), "{report}");
            assert!(!report.contains("\"health\""), "{report}");
        }
    }
    let want: Vec<(&str, u64, u64)> = cases.iter().map(|c| (c.0, c.2, c.3)).collect();
    assert_eq!(got, want, "fingerprints moved: {got:#x?}");
}
