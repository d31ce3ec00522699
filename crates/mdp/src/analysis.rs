//! Policy evaluation and stationary analysis of the induced Markov chain.
//!
//! Given a fixed policy `π`, the MDP collapses to a Markov chain
//! `P_π(s, s') = P_{π[s]}(s, s')`. The paper's §5.1 guarantees — expected
//! inference accuracy and expected latency-SLO violation rate — are
//! expectations under the stationary distribution of that chain,
//! "calculated via power iteration \[40\] from the transition
//! probabilities". This module implements both the evaluation of `v_π`
//! and the stationary distribution.

use crate::model::SparseMdp;

/// Options for the stationary-distribution power iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationaryOptions {
    /// Convergence threshold on the L1 change between sweeps.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Damping factor `τ`: each sweep computes `τ·xP + (1−τ)·x`, which
    /// preserves fixed points while suppressing oscillation on periodic
    /// chains.
    pub damping: f64,
}

impl Default for StationaryOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-12,
            max_iterations: 200_000,
            damping: 0.9,
        }
    }
}

/// Evaluates a fixed policy under the discounted criterion by iterative
/// sweeps, returning `v_π`.
///
/// # Panics
///
/// Panics if `policy.len() != mdp.n_states()`, an entry is not an action
/// of its state, or `discount` is outside `(0, 1)`.
pub fn evaluate_policy(
    mdp: &SparseMdp,
    policy: &[usize],
    discount: f64,
    tolerance: f64,
) -> Vec<f64> {
    assert_eq!(policy.len(), mdp.n_states(), "policy length mismatch");
    assert!(
        discount > 0.0 && discount < 1.0,
        "discount must lie in (0, 1), got {discount}"
    );
    for (s, &a) in policy.iter().enumerate() {
        assert!(
            mdp.actions_of(s).contains(&a),
            "policy assigns action {a} which does not belong to state {s}"
        );
    }
    let n = mdp.n_states();
    let mut values = vec![0.0; n];
    let stop = tolerance * (1.0 - discount) / discount;
    for _ in 0..1_000_000 {
        let mut max_delta = 0.0f64;
        for s in 0..n {
            let v = mdp.q_value(policy[s], &values, discount);
            max_delta = max_delta.max((v - values[s]).abs());
            values[s] = v;
        }
        if max_delta < stop {
            break;
        }
    }
    values
}

/// Computes the stationary distribution of the chain induced by `policy`
/// via damped power iteration, starting from the uniform distribution.
///
/// For uni-chain policies (every RAMSIS worker MDP is uni-chain: the
/// empty-queue state is reachable from everywhere under a positive-rate
/// arrival process) the result is the unique stationary distribution.
/// The returned vector is non-negative and sums to 1.
///
/// # Panics
///
/// Panics if the policy is malformed (see [`evaluate_policy`]) or the
/// damping factor is outside `(0, 1]`.
pub fn stationary_distribution(
    mdp: &SparseMdp,
    policy: &[usize],
    options: &StationaryOptions,
) -> Vec<f64> {
    assert_eq!(policy.len(), mdp.n_states(), "policy length mismatch");
    assert!(
        options.damping > 0.0 && options.damping <= 1.0,
        "damping must lie in (0, 1], got {}",
        options.damping
    );
    for (s, &a) in policy.iter().enumerate() {
        assert!(
            mdp.actions_of(s).contains(&a),
            "policy assigns action {a} which does not belong to state {s}"
        );
    }
    let n = mdp.n_states();
    let mut x = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    for _ in 0..options.max_iterations {
        next.iter_mut().for_each(|v| *v = 0.0);
        for s in 0..n {
            let mass = x[s];
            if mass == 0.0 {
                continue;
            }
            for (to, p) in mdp.transitions_of(policy[s]) {
                next[to] += mass * p;
            }
        }
        // Damp and renormalize (transition rows are normalized, but the
        // damping mix plus rounding can drift the total by ulps).
        let mut l1 = 0.0;
        let mut total = 0.0;
        for s in 0..n {
            let mixed = options.damping * next[s] + (1.0 - options.damping) * x[s];
            l1 += (mixed - x[s]).abs();
            x[s] = mixed;
            total += mixed;
        }
        if total > 0.0 {
            let inv = 1.0 / total;
            x.iter_mut().for_each(|v| *v *= inv);
        }
        if l1 < options.tolerance {
            break;
        }
    }
    x
}

/// Expected per-epoch reward of `policy` under its stationary
/// distribution: `Σ_s P_π(s) · r(s, π[s])`.
pub fn stationary_reward(mdp: &SparseMdp, policy: &[usize], stationary: &[f64]) -> f64 {
    policy
        .iter()
        .zip(stationary)
        .map(|(&a, &p)| p * mdp.action_reward(a))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MdpBuilder;
    use crate::solve::{value_iteration, SolveOptions, StopRule};

    fn chain_with_choice() -> SparseMdp {
        // 0 --(a: stay 0.3 / go 0.7)--> 1; 1 --(b)--> 0. All reward in 1.
        let mut b = MdpBuilder::new(2);
        b.start_state();
        b.add_action(0, &[(0, 0.3, 0.0), (1, 0.7, 0.0)]);
        b.start_state();
        b.add_action(1, &[(0, 1.0, 1.0)]);
        b.build().unwrap()
    }

    #[test]
    fn evaluate_policy_matches_closed_form() {
        let mdp = chain_with_choice();
        let policy = vec![0usize, 1usize];
        let gamma = 0.9;
        let v = evaluate_policy(&mdp, &policy, gamma, 1e-12);
        // Solve: v0 = γ(0.3 v0 + 0.7 v1); v1 = 1 + γ v0.
        // => v0 = γ·0.7·(1)/(1 − 0.3γ − 0.7γ²) ... compute numerically.
        let denom = 1.0 - 0.3 * gamma - 0.7 * gamma * gamma;
        let v0 = 0.7 * gamma / denom;
        let v1 = 1.0 + gamma * v0;
        assert!((v[0] - v0).abs() < 1e-8, "{} vs {v0}", v[0]);
        assert!((v[1] - v1).abs() < 1e-8, "{} vs {v1}", v[1]);
    }

    #[test]
    fn evaluation_of_optimal_policy_equals_optimal_values() {
        let mdp = chain_with_choice();
        let opts = SolveOptions {
            discount: 0.8,
            tolerance: 1e-12,
            max_iterations: 100_000,
            stop: StopRule::ValueTolerance,
        };
        let sol = value_iteration(&mdp, &opts);
        let v = evaluate_policy(&mdp, &sol.policy, opts.discount, 1e-12);
        for (a, b) in v.iter().zip(&sol.values) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn stationary_distribution_two_state() {
        let mdp = chain_with_choice();
        let pi = stationary_distribution(&mdp, &[0, 1], &StationaryOptions::default());
        // Chain: P(0→1) = 0.7, P(0→0) = 0.3, P(1→0) = 1.
        // Balance: π1 = 0.7 π0; π0 + π1 = 1 → π0 = 1/1.7.
        assert!((pi[0] - 1.0 / 1.7).abs() < 1e-9, "pi0={}", pi[0]);
        assert!((pi[1] - 0.7 / 1.7).abs() < 1e-9, "pi1={}", pi[1]);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_distribution_periodic_chain() {
        // Pure 2-cycle: undamped power iteration would oscillate forever.
        let mut b = MdpBuilder::new(2);
        b.start_state();
        b.add_action(0, &[(1, 1.0, 0.0)]);
        b.start_state();
        b.add_action(1, &[(0, 1.0, 0.0)]);
        let mdp = b.build().unwrap();
        let pi = stationary_distribution(&mdp, &[0, 1], &StationaryOptions::default());
        assert!((pi[0] - 0.5).abs() < 1e-9);
        assert!((pi[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn stationary_distribution_absorbing() {
        // 0 → 1 (absorbing): all mass ends in 1.
        let mut b = MdpBuilder::new(2);
        b.start_state();
        b.add_action(0, &[(1, 1.0, 0.0)]);
        b.start_state();
        b.add_action(1, &[(1, 1.0, 0.0)]);
        let mdp = b.build().unwrap();
        let pi = stationary_distribution(&mdp, &[0, 1], &StationaryOptions::default());
        assert!(pi[0] < 1e-9);
        assert!((pi[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stationary_reward_weights_by_distribution() {
        let mdp = chain_with_choice();
        let policy = vec![0usize, 1usize];
        let pi = stationary_distribution(&mdp, &policy, &StationaryOptions::default());
        let r = stationary_reward(&mdp, &policy, &pi);
        // Reward 1 collected every visit to state 1.
        assert!((r - 0.7 / 1.7).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "does not belong to state")]
    fn rejects_foreign_action() {
        let mdp = chain_with_choice();
        // Action 1 belongs to state 1, not state 0.
        let _ = evaluate_policy(&mdp, &[1, 1], 0.9, 1e-9);
    }

    #[test]
    #[should_panic(expected = "policy length mismatch")]
    fn rejects_short_policy() {
        let mdp = chain_with_choice();
        let _ = stationary_distribution(&mdp, &[0], &StationaryOptions::default());
    }
}
