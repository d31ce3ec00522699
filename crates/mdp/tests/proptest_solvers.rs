//! Property tests for the exact solvers on randomized MDPs: optimality
//! dominance, solver agreement, and stationary-distribution fixed
//! points.

#![allow(clippy::type_complexity)] // proptest strategies are naturally tuple-heavy

use proptest::prelude::*;

use ramsis_mdp::{
    evaluate_policy, policy_iteration, stationary_distribution, value_iteration,
    value_iteration_gauss_seidel, value_iteration_traced, MdpBuilder, Solution, SolveOptions,
    SparseMdp, StationaryOptions, StopRule,
};

/// A random MDP: `n` states, 1-3 actions each, 1-3 transitions per
/// action with normalized probabilities, rewards in [0, 1].
fn random_mdp(n: usize, shape: &[(Vec<(usize, f64, f64)>, u64)]) -> SparseMdp {
    let mut b = MdpBuilder::new(n);
    let mut idx = 0;
    for s in 0..n {
        b.start_state();
        // At least one action per state; consume entries round-robin.
        let actions = 1 + (shape[s % shape.len()].1 % 3) as usize;
        for _ in 0..actions {
            let (entries, _) = &shape[idx % shape.len()];
            idx += 1;
            // Normalize targets into range and probabilities to 1.
            let total: f64 = entries.iter().map(|&(_, p, _)| p).sum();
            let row: Vec<(usize, f64, f64)> = entries
                .iter()
                .map(|&(t, p, r)| (t % n, p / total, r))
                .collect();
            b.add_action(idx as u64, &row);
        }
    }
    b.build().expect("random MDP is well-formed")
}

/// Every bit of a solution, so equality cannot hide a `-0.0` or a NaN.
fn bits(sol: &Solution) -> (Vec<u64>, Vec<usize>, usize, u64, Option<u64>) {
    (
        sol.values.iter().map(|v| v.to_bits()).collect(),
        sol.policy.clone(),
        sol.iterations,
        sol.residual.to_bits(),
        sol.gain.map(f64::to_bits),
    )
}

fn shape_strategy() -> impl Strategy<Value = Vec<(Vec<(usize, f64, f64)>, u64)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0usize..64, 0.05f64..1.0, 0.0f64..1.0), 1..4),
            proptest::num::u64::ANY,
        ),
        4..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimal value dominates the value of every deterministic
    /// policy (here: the first-action policy).
    #[test]
    fn optimal_values_dominate_any_policy(
        n in 2usize..10,
        shape in shape_strategy(),
        gamma in 0.5f64..0.95,
    ) {
        let mdp = random_mdp(n, &shape);
        let opts = SolveOptions { discount: gamma, tolerance: 1e-9, max_iterations: 100_000, stop: StopRule::ValueTolerance };
        let sol = value_iteration(&mdp, &opts);
        let first_action: Vec<usize> = (0..n).map(|s| mdp.actions_of(s).start).collect();
        let v_first = evaluate_policy(&mdp, &first_action, gamma, 1e-9);
        #[allow(clippy::needless_range_loop)]
        for s in 0..n {
            prop_assert!(
                sol.values[s] >= v_first[s] - 1e-5,
                "state {s}: optimal {} < first-action {}",
                sol.values[s],
                v_first[s]
            );
        }
        // Values are bounded by the geometric series of max reward.
        let bound = 1.0 / (1.0 - gamma) + 1e-6;
        for &v in &sol.values {
            prop_assert!((0.0..=bound).contains(&v), "value {v} out of [0, {bound}]");
        }
    }

    /// Value iteration and policy iteration agree on values (policies
    /// may differ only on ties).
    #[test]
    fn solvers_agree(
        n in 2usize..8,
        shape in shape_strategy(),
        gamma in 0.5f64..0.9,
    ) {
        let mdp = random_mdp(n, &shape);
        let opts = SolveOptions { discount: gamma, tolerance: 1e-10, max_iterations: 200_000, stop: StopRule::ValueTolerance };
        let vi = value_iteration(&mdp, &opts);
        let pi = policy_iteration(&mdp, &opts, 10_000);
        let gs = value_iteration_gauss_seidel(&mdp, &opts);
        for s in 0..n {
            prop_assert!(
                (vi.values[s] - pi.values[s]).abs() < 1e-4,
                "state {s}: VI {} vs PI {}",
                vi.values[s],
                pi.values[s]
            );
            prop_assert!(
                (vi.values[s] - gs.values[s]).abs() < 1e-4,
                "state {s}: VI {} vs GS {}",
                vi.values[s],
                gs.values[s]
            );
        }
    }

    /// The certified stop agrees with the tolerance stop: on the policy
    /// when its certificate fires, and bit for bit on the whole solution
    /// when it falls back.
    #[test]
    fn certified_stop_agrees_with_the_tolerance_stop(
        n in 2usize..10,
        shape in shape_strategy(),
        gamma in 0.5f64..0.95,
    ) {
        let mdp = random_mdp(n, &shape);
        let tolerance = SolveOptions {
            discount: gamma,
            tolerance: 1e-10,
            max_iterations: 100_000,
            stop: StopRule::ValueTolerance,
        };
        let certified_opts = SolveOptions { stop: StopRule::PolicyCertified, ..tolerance };
        let (certified, trace) = value_iteration_traced(&mdp, &certified_opts);
        let reference = value_iteration(&mdp, &tolerance);
        match trace.certificate {
            Some(c) => {
                prop_assert_eq!(&certified.policy, &reference.policy);
                prop_assert!(c.min_gap > c.bound);
                prop_assert_eq!(c.sweep as usize, certified.iterations);
                prop_assert!(certified.iterations <= reference.iterations);
            }
            None => prop_assert_eq!(bits(&certified), bits(&reference)),
        }
    }

    /// The stationary distribution is a probability vector and a fixed
    /// point of the induced chain.
    #[test]
    fn stationary_is_fixed_point(
        n in 2usize..10,
        shape in shape_strategy(),
    ) {
        let mdp = random_mdp(n, &shape);
        let policy: Vec<usize> = (0..n).map(|s| mdp.actions_of(s).start).collect();
        let pi = stationary_distribution(&mdp, &policy, &StationaryOptions::default());
        let sum: f64 = pi.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sums to {sum}");
        for &p in &pi {
            prop_assert!(p >= -1e-12);
        }
        // One application of P leaves it (nearly) unchanged.
        let mut next = vec![0.0; n];
        for s in 0..n {
            for (to, p) in mdp.transitions_of(policy[s]) {
                next[to] += pi[s] * p;
            }
        }
        let l1: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        prop_assert!(l1 < 1e-6, "not a fixed point: L1 drift {l1}");
    }
}
