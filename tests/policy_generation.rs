//! Exactness of the offline pipeline: the assembled worker MDPs and a
//! solved policy ladder are pinned to the bit.
//!
//! Each MDP is reduced to a fingerprint, a 64-bit FNV-1a hash over every
//! state's action range, action label, reward bits and `(target,
//! probability bits)` transition. The hash is written out here rather
//! than taken from `std`'s `DefaultHasher`, whose algorithm may change
//! between Rust releases. A fingerprint that moves means assembly now
//! produces a different MDP: fix the assembly, not the expected value.

use ramsis::core::{
    assemble_mdp_for_bench, Balancing, Batching, Discretization, PolicyConfig, PolicySet,
};
use ramsis::mdp::{value_iteration, value_iteration_gauss_seidel, SolveOptions, SparseMdp};
use ramsis::prelude::*;
use ramsis::stats::counts::ArrivalProcess;
use ramsis::stats::{NegativeBinomialProcess, PoissonProcess};

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

fn config(workers: usize, d: u32) -> ramsis::core::PolicyConfigBuilder {
    PolicyConfig::builder(Duration::from_millis(150))
        .workers(workers)
        .discretization(Discretization::fixed_length(d))
}

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fingerprint(mdp: &SparseMdp) -> u64 {
    let mut h = Fnv1a::new();
    h.word(mdp.n_states() as u64);
    for s in 0..mdp.n_states() {
        let actions = mdp.actions_of(s);
        h.word(actions.start as u64);
        h.word(actions.end as u64);
        for a in actions {
            h.word(mdp.action_label(a));
            h.word(mdp.action_reward(a).to_bits());
            for (to, p) in mdp.transitions_of(a) {
                h.word(to as u64);
                h.word(p.to_bits());
            }
        }
    }
    h.0
}

fn assert_fingerprint(
    what: &str,
    process: &dyn ArrivalProcess,
    config: &PolicyConfig,
    expected: u64,
) {
    let mdp = assemble_mdp_for_bench(profile(), process, config).unwrap();
    let got = fingerprint(&mdp);
    assert_eq!(
        got,
        expected,
        "{what} at {} QPS assembled a different MDP ({} states, {} actions, {} transitions): \
         fingerprint {got:#018x}",
        process.rate(),
        mdp.n_states(),
        mdp.n_actions(),
        mdp.n_transitions()
    );
}

#[test]
fn round_robin_maximal_batching_mdps_are_pinned() {
    let cfg = config(8, 12).build();
    for (qps, expected) in [
        (150.0, 0x9f77_1533_04b3_8fde),
        (900.0, 0xa253_bac8_ca4b_eaff),
    ] {
        let process = PoissonProcess::per_second(qps);
        assert_fingerprint("round-robin, maximal", &process, &cfg, expected);
    }
}

#[test]
fn round_robin_variable_batching_mdps_are_pinned() {
    let cfg = config(4, 8).batching(Batching::Variable).build();
    for (qps, expected) in [
        (100.0, 0x5f5c_2ea5_b830_77d3),
        (350.0, 0x4af6_579e_4bad_9f66),
    ] {
        let process = PoissonProcess::per_second(qps);
        assert_fingerprint("round-robin, variable", &process, &cfg, expected);
    }
}

#[test]
fn shortest_queue_first_mdps_are_pinned() {
    let cfg = config(4, 10)
        .balancing(Balancing::ShortestQueueFirst)
        .build();
    for (qps, expected) in [
        (100.0, 0x1c47_b2ea_9208_8cb4),
        (400.0, 0x6caa_58cf_6689_8d00),
    ] {
        let process = PoissonProcess::per_second(qps);
        assert_fingerprint("shortest-queue-first", &process, &cfg, expected);
    }
}

#[test]
fn negative_binomial_mdps_are_pinned() {
    let cfg = config(4, 10).build();
    for (qps, expected) in [
        (100.0, 0x70b1_b671_6e39_93cb),
        (300.0, 0xf380_5557_e0cc_9b0d),
    ] {
        let process = NegativeBinomialProcess::new(qps, 3.0);
        assert_fingerprint("negative binomial", &process, &cfg, expected);
    }
}

/// Jacobi and Gauss–Seidel value iteration converge to the same fixed
/// point, so on a real policy MDP (image zoo, 150 ms, 4 workers, FLD
/// D = 10, 400 QPS) they must pick the same action in every state.
#[test]
fn exact_solvers_agree_on_a_pinned_policy_mdp() {
    let cfg = config(4, 10).build();
    let process = PoissonProcess::per_second(400.0);
    let mdp = assemble_mdp_for_bench(profile(), &process, &cfg).unwrap();
    let opts = SolveOptions {
        discount: cfg.discount,
        ..SolveOptions::default()
    };
    let jacobi = value_iteration(&mdp, &opts);
    let gauss_seidel = value_iteration_gauss_seidel(&mdp, &opts);
    assert_eq!(
        jacobi.policy, gauss_seidel.policy,
        "exact solvers disagree on the policy"
    );
}

/// A six-load ladder equals, field for field, the set the same call
/// produced when this fixture was recorded (`generation_seconds`, a
/// wall-clock reading, aside).
#[test]
fn policy_ladder_matches_the_recorded_set() {
    let recorded: PolicySet =
        serde_json::from_str(include_str!("data/policy_ladder_6.json")).unwrap();
    let solved = PolicySet::generate_poisson(profile(), &LADDER_LOADS, &ladder_config()).unwrap();
    assert_eq!(solved.loads(), LADDER_LOADS);
    let with_recorded_times: Vec<_> = solved
        .policies()
        .iter()
        .zip(recorded.policies())
        .map(|(p, r)| {
            let mut p = p.clone();
            p.generation_seconds = r.generation_seconds;
            p
        })
        .collect();
    assert_eq!(
        PolicySet::from_policies(with_recorded_times).unwrap(),
        recorded
    );
}

const LADDER_LOADS: [f64; 6] = [50.0, 150.0, 250.0, 350.0, 450.0, 550.0];

fn ladder_config() -> PolicyConfig {
    config(4, 10).build()
}
