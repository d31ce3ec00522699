//! Exact MDP solution methods.
//!
//! The paper generates model-selection policies with value iteration
//! (§4.1), noting that "other exact solution methods, like policy
//! iteration, may be used". All three classic exact methods are provided:
//!
//! - [`value_iteration`]: discounted Jacobi value iteration with two stop
//!   rules ([`StopRule`]). By default it stops as soon as a MacQueen
//!   action-gap certificate proves the sweep's greedy actions are the
//!   unique optimal policy (Puterman §6.6). The fallback, and the only
//!   rule under [`StopRule::ValueTolerance`], is a sup-norm stop: the
//!   update's sup norm below `tolerance · (1 − γ) / (2γ)`, which puts the
//!   values within `tolerance / 2` of `v*` (Puterman Thm. 6.3.1).
//!   [`value_iteration_gauss_seidel`] uses the sup-norm stop only.
//! - [`policy_iteration`]: modified policy iteration with an iterative
//!   inner evaluation — for sparse million-transition MDPs this often
//!   converges in a handful of policy improvements.
//! - [`relative_value_iteration`]: the average-reward criterion, natural
//!   for the non-terminating serving loop; exposed for ablations.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::model::SparseMdp;

/// One sweep of an iterative solver, as recorded by the traced
/// variants ([`value_iteration_traced`],
/// [`value_iteration_gauss_seidel_traced`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepRecord {
    /// 1-based sweep number.
    pub sweep: u32,
    /// Sup-norm of the value update after the sweep.
    pub residual: f64,
    /// States backed up in the sweep.
    pub states: u64,
    /// Wall-clock time of the sweep, seconds.
    pub elapsed_s: f64,
}

/// The proof behind a [`StopRule::PolicyCertified`] stop: in sweep
/// `sweep`, every state's best Q-value beat its runner-up by more than
/// `bound`, so the sweep's greedy actions are the unique optimal policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyCertificate {
    /// 1-based sweep at which the certificate held.
    pub sweep: u32,
    /// Smallest best-minus-runner-up Q gap over all states in that
    /// sweep (`inf` when every state has a single action).
    pub min_gap: f64,
    /// What the gap had to exceed: `γ · span(Δ) / (1 − γ) + margin`.
    pub bound: f64,
}

/// Per-sweep convergence record of one solve — makes offline solve
/// cost visible (sweeps to convergence, residual decay, time per
/// sweep). Wall-clock timing is fine here: solves run offline, never
/// on the simulated clock, so traces don't perturb simulation
/// determinism.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ConvergenceTrace {
    /// Solver name (e.g. `"value-iteration"`).
    pub method: String,
    /// Whether a stop rule fired before the sweep cap (the policy
    /// certificate or the sup-norm tolerance).
    pub converged: bool,
    /// The certificate that stopped the solve, if that rule fired.
    pub certificate: Option<PolicyCertificate>,
    /// Total wall-clock solve time, seconds.
    pub total_s: f64,
    /// Every sweep, in order.
    pub sweeps: Vec<SweepRecord>,
}

impl ConvergenceTrace {
    fn new(method: &str) -> Self {
        Self {
            method: method.to_owned(),
            ..Self::default()
        }
    }

    /// Residual after the last sweep (`INFINITY` when no sweep ran).
    pub fn final_residual(&self) -> f64 {
        self.sweeps.last().map_or(f64::INFINITY, |s| s.residual)
    }

    /// Total states backed up across all sweeps.
    pub fn states_touched(&self) -> u64 {
        self.sweeps.iter().map(|s| s.states).sum()
    }
}

/// When [`value_iteration`] may stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopRule {
    /// Stop at the first sweep whose greedy actions are proven to be the
    /// unique optimal policy, falling back to [`Self::ValueTolerance`]
    /// when no proof comes (exact ties never certify). The returned
    /// `values` are then the certifying sweep's, not within `tolerance`
    /// of `v*`.
    #[default]
    PolicyCertified,
    /// Stop only when the values are within `tolerance / 2` of `v*`.
    ValueTolerance,
}

/// Options shared by the solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Discount factor `γ ∈ (0, 1)` for the discounted criterion.
    pub discount: f64,
    /// Target distance of the values from `v*`: the discounted solvers
    /// stop once the sup norm of the value update is below
    /// `tolerance · (1 − γ) / (2γ)`. Under [`StopRule::PolicyCertified`]
    /// value iteration usually stops earlier, on its policy certificate,
    /// and this sup-norm stop is the fallback. Relative value iteration
    /// compares the span seminorm of its update against `tolerance`
    /// directly.
    pub tolerance: f64,
    /// Hard cap on sweeps, guarding against configuration mistakes.
    pub max_iterations: usize,
    /// Stop rule of [`value_iteration`]; the other solvers ignore it.
    pub stop: StopRule,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            discount: 0.99,
            tolerance: 1e-9,
            max_iterations: 100_000,
            stop: StopRule::default(),
        }
    }
}

/// The result of solving an MDP.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Value per state (differential values for the average-reward
    /// criterion). Within `tolerance / 2` of the optimum except after a
    /// certified stop ([`StopRule::PolicyCertified`]).
    pub values: Vec<f64>,
    /// Chosen global action index per state.
    pub policy: Vec<usize>,
    /// Number of sweeps performed.
    pub iterations: usize,
    /// Sup norm of the last value update (span seminorm for relative
    /// value iteration).
    pub residual: f64,
    /// Average reward per epoch (only set by relative value iteration).
    pub gain: Option<f64>,
}

fn span(delta_min: f64, delta_max: f64) -> f64 {
    delta_max - delta_min
}

/// Solves the discounted MDP by value iteration.
///
/// Iterates `v ← max_a [r(s, a) + γ Σ P v]` (Jacobi: each sweep reads
/// only the previous sweep's values) and stops by `options.stop`:
///
/// - **Certified** (the default). Let `Δ = v_{k+1} − v_k` for the sweep
///   that computed `Q_k(s, a) = r(s, a) + γ Σ P v_k`. MacQueen's bounds
///   put `v* − v_k` between `min Δ / (1 − γ)` and `max Δ / (1 − γ)` in
///   every state, so every `Q*(s, a) − Q_k(s, a)` lies in one interval
///   of width `γ · span(Δ) / (1 − γ)`. If every state's best `Q_k`
///   beats its runner-up by more than that plus `margin`, the sweep's
///   argmax is the unique optimal action everywhere and is returned as
///   is; no separate greedy pass runs. `margin` absorbs floating-point
///   error: `8 · ((m + 2) · ε + δ) · B / (1 − γ)`, with `ε` =
///   `f64::EPSILON`, `m` the longest transition row, `δ` a bound on any
///   row's distance from summing to one (a few ulps once the builder has
///   normalized the rows), and `B = max(|v_k|, |v_{k+1}|) + ‖Δ‖∞ / (1 − γ)`,
///   which bounds both the iterates and `‖v*‖∞`. Each Q is a length-`m` dot product, so it
///   is off by at most about `(m + 2) · ε · B / 2`; errors in the gap and
///   in `span(Δ)` (the latter amplified by `γ / (1 − γ)`) and the
///   row-sum slack's effect on the bounds together stay below `margin`
///   while `γ · δ ≪ 1 − γ`. A state whose best two actions tie exactly
///   never certifies, so such MDPs fall back to the sup-norm stop.
/// - **Sup-norm** (the fallback, and [`StopRule::ValueTolerance`]). Stop
///   when `‖Δ‖∞ < tolerance · (1 − γ) / (2γ)`, guaranteeing
///   `‖v − v*‖∞ ≤ tolerance / 2` and an `ε`-optimal greedy policy
///   (Puterman, Thm. 6.3.1), then extract the greedy policy. The value
///   sequence does not depend on the rule, so a solve that falls back
///   returns a [`Solution`] bit-identical to a
///   [`StopRule::ValueTolerance`] one.
///
/// # Panics
///
/// Panics if `discount` is outside `(0, 1)` or `tolerance` is not
/// positive.
pub fn value_iteration(mdp: &SparseMdp, options: &SolveOptions) -> Solution {
    value_iteration_impl(mdp, options, None)
}

/// [`value_iteration`] with a per-sweep [`ConvergenceTrace`]. The
/// returned solution is bit-identical to the untraced one (tracing
/// only observes, never steers).
pub fn value_iteration_traced(
    mdp: &SparseMdp,
    options: &SolveOptions,
) -> (Solution, ConvergenceTrace) {
    let mut trace = ConvergenceTrace::new("value-iteration");
    let solution = value_iteration_impl(mdp, options, Some(&mut trace));
    (solution, trace)
}

/// `margin / B` of [`value_iteration`]'s certificate.
fn certificate_margin_scale(mdp: &SparseMdp, discount: f64) -> f64 {
    let (max_len, max_dev) = mdp.row_bounds();
    8.0 * ((max_len + 2) as f64 * f64::EPSILON + max_dev) / (1.0 - discount)
}

fn value_iteration_impl(
    mdp: &SparseMdp,
    options: &SolveOptions,
    mut trace: Option<&mut ConvergenceTrace>,
) -> Solution {
    assert!(
        options.discount > 0.0 && options.discount < 1.0,
        "discount must lie in (0, 1), got {}",
        options.discount
    );
    assert!(
        options.tolerance > 0.0,
        "tolerance must be positive, got {}",
        options.tolerance
    );
    let gamma = options.discount;
    let n = mdp.n_states();
    let mut values = vec![0.0; n];
    let mut next = vec![0.0; n];
    let mut argmax = vec![0; n];
    let stop = options.tolerance * (1.0 - gamma) / (2.0 * gamma);
    let margin_scale =
        (options.stop == StopRule::PolicyCertified).then(|| certificate_margin_scale(mdp, gamma));
    let mut certificate = None;
    let mut prev_max_abs = 0.0f64;
    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    let solve_start = trace.is_some().then(Instant::now);
    while iterations < options.max_iterations {
        let sweep_start = trace.is_some().then(Instant::now);
        let mut max_delta = 0.0f64;
        let (mut delta_min, mut delta_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut min_gap = f64::INFINITY;
        let mut max_abs = 0.0f64;
        for s in 0..n {
            let (v, a, runner_up) = mdp.bellman_backup_with_runner_up(s, &values, gamma);
            let delta = v - values[s];
            max_delta = max_delta.max(delta.abs());
            delta_min = delta_min.min(delta);
            delta_max = delta_max.max(delta);
            min_gap = min_gap.min(v - runner_up);
            max_abs = max_abs.max(v.abs());
            argmax[s] = a;
            next[s] = v;
        }
        std::mem::swap(&mut values, &mut next);
        iterations += 1;
        residual = max_delta;
        if let Some(scale) = margin_scale {
            let reach = max_abs.max(prev_max_abs) + residual / (1.0 - gamma);
            let bound = gamma * span(delta_min, delta_max) / (1.0 - gamma) + scale * reach;
            if min_gap > bound {
                certificate = Some(PolicyCertificate {
                    sweep: iterations as u32,
                    min_gap,
                    bound,
                });
            }
            prev_max_abs = max_abs;
        }
        if let Some(t) = trace.as_deref_mut() {
            t.sweeps.push(SweepRecord {
                sweep: iterations as u32,
                residual,
                states: n as u64,
                elapsed_s: sweep_start
                    .expect("timed with trace")
                    .elapsed()
                    .as_secs_f64(),
            });
        }
        if certificate.is_some() || residual < stop {
            break;
        }
    }
    if let Some(t) = trace {
        t.converged = certificate.is_some() || residual < stop;
        t.certificate = certificate;
        t.total_s = solve_start
            .expect("timed with trace")
            .elapsed()
            .as_secs_f64();
    }
    let policy = if certificate.is_some() {
        argmax
    } else {
        greedy_policy(mdp, &values, gamma)
    };
    Solution {
        values,
        policy,
        iterations,
        residual,
        gain: None,
    }
}

/// Solves the discounted MDP by Gauss–Seidel value iteration: backups
/// within a sweep use the already-updated values of earlier states,
/// which typically cuts the sweep count roughly in half versus the
/// Jacobi variant ([`value_iteration`]) while converging to the same
/// fixed point.
///
/// It always uses the sup-norm stop and ignores `options.stop`. The
/// certificate's MacQueen bound is stated for the Jacobi operator, whose
/// sweep computes every Q from one value vector; an in-place sweep mixes
/// two, so `Δ`'s span no longer bounds how far each Q is from `Q*`.
///
/// # Panics
///
/// Panics on the same invalid options as [`value_iteration`].
pub fn value_iteration_gauss_seidel(mdp: &SparseMdp, options: &SolveOptions) -> Solution {
    value_iteration_gauss_seidel_impl(mdp, options, None)
}

/// [`value_iteration_gauss_seidel`] with a per-sweep
/// [`ConvergenceTrace`]. The returned solution is bit-identical to the
/// untraced one.
pub fn value_iteration_gauss_seidel_traced(
    mdp: &SparseMdp,
    options: &SolveOptions,
) -> (Solution, ConvergenceTrace) {
    let mut trace = ConvergenceTrace::new("gauss-seidel");
    let solution = value_iteration_gauss_seidel_impl(mdp, options, Some(&mut trace));
    (solution, trace)
}

fn value_iteration_gauss_seidel_impl(
    mdp: &SparseMdp,
    options: &SolveOptions,
    mut trace: Option<&mut ConvergenceTrace>,
) -> Solution {
    assert!(
        options.discount > 0.0 && options.discount < 1.0,
        "discount must lie in (0, 1), got {}",
        options.discount
    );
    assert!(
        options.tolerance > 0.0,
        "tolerance must be positive, got {}",
        options.tolerance
    );
    let n = mdp.n_states();
    let mut values = vec![0.0; n];
    let stop = options.tolerance * (1.0 - options.discount) / (2.0 * options.discount);
    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    let solve_start = trace.is_some().then(Instant::now);
    while iterations < options.max_iterations {
        let sweep_start = trace.is_some().then(Instant::now);
        let mut max_delta = 0.0f64;
        for s in 0..n {
            let (v, _) = mdp.bellman_backup(s, &values, options.discount);
            max_delta = max_delta.max((v - values[s]).abs());
            values[s] = v;
        }
        iterations += 1;
        residual = max_delta;
        if let Some(t) = trace.as_deref_mut() {
            t.sweeps.push(SweepRecord {
                sweep: iterations as u32,
                residual,
                states: n as u64,
                elapsed_s: sweep_start
                    .expect("timed with trace")
                    .elapsed()
                    .as_secs_f64(),
            });
        }
        if residual < stop {
            break;
        }
    }
    if let Some(t) = trace {
        t.converged = residual < stop;
        t.total_s = solve_start
            .expect("timed with trace")
            .elapsed()
            .as_secs_f64();
    }
    let policy = greedy_policy(mdp, &values, options.discount);
    Solution {
        values,
        policy,
        iterations,
        residual,
        gain: None,
    }
}

/// Extracts the greedy policy with respect to `values`.
pub fn greedy_policy(mdp: &SparseMdp, values: &[f64], discount: f64) -> Vec<usize> {
    (0..mdp.n_states())
        .map(|s| mdp.bellman_backup(s, values, discount).1)
        .collect()
}

/// Solves the discounted MDP by policy iteration with iterative
/// evaluation.
///
/// Alternates full policy evaluation (iterative sweeps to within
/// `options.tolerance`, capped at `eval_sweeps` sweeps per round) with
/// greedy improvement, terminating when the policy is stable. Converges
/// to the same optimal policy as [`value_iteration`], typically in a
/// handful of (more expensive) outer iterations. On return, `values` is
/// the evaluation of the final policy.
pub fn policy_iteration(mdp: &SparseMdp, options: &SolveOptions, eval_sweeps: usize) -> Solution {
    assert!(
        options.discount > 0.0 && options.discount < 1.0,
        "discount must lie in (0, 1), got {}",
        options.discount
    );
    let n = mdp.n_states();
    let mut values = vec![0.0; n];
    let mut policy = greedy_policy(mdp, &values, options.discount);
    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    let eval_stop = options.tolerance * (1.0 - options.discount) / (2.0 * options.discount);
    while iterations < options.max_iterations {
        // Policy evaluation (Gauss–Seidel sweeps, in place).
        for _ in 0..eval_sweeps.max(1) {
            let mut max_delta = 0.0f64;
            for s in 0..n {
                let v = mdp.q_value(policy[s], &values, options.discount);
                max_delta = max_delta.max((v - values[s]).abs());
                values[s] = v;
            }
            residual = max_delta;
            if max_delta < eval_stop {
                break;
            }
        }
        // Greedy improvement.
        let improved = greedy_policy(mdp, &values, options.discount);
        iterations += 1;
        if improved == policy {
            break;
        }
        policy = improved;
    }
    Solution {
        values,
        policy,
        iterations,
        residual,
        gain: None,
    }
}

/// Solves the average-reward MDP by relative value iteration.
///
/// Iterates `h ← B h − (B h)(s₀)` where `B` is the undiscounted Bellman
/// operator and `s₀` is a reference state. On convergence, `(B h)(s₀)` is
/// the optimal gain (average reward per epoch). A small damping mix keeps
/// periodic chains from oscillating.
///
/// `options.discount` is ignored.
pub fn relative_value_iteration(mdp: &SparseMdp, options: &SolveOptions) -> Solution {
    let n = mdp.n_states();
    let mut h = vec![0.0; n];
    let mut next = vec![0.0; n];
    let mut gain = 0.0;
    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    // Damping for periodic chains: h ← (1−τ) h + τ (B h − gain).
    const TAU: f64 = 0.9;
    while iterations < options.max_iterations {
        let mut delta_min = f64::INFINITY;
        let mut delta_max = f64::NEG_INFINITY;
        for (s, slot) in next.iter_mut().enumerate() {
            let (v, _) = mdp.bellman_backup(s, &h, 1.0);
            *slot = v;
        }
        gain = next[0];
        for s in 0..n {
            let updated = (1.0 - TAU) * h[s] + TAU * (next[s] - gain);
            let d = updated - h[s];
            delta_min = delta_min.min(d);
            delta_max = delta_max.max(d);
            h[s] = updated;
        }
        iterations += 1;
        residual = span(delta_min, delta_max);
        if residual < options.tolerance {
            break;
        }
    }
    let policy = greedy_policy(mdp, &h, 1.0);
    Solution {
        values: h,
        policy,
        iterations,
        residual,
        gain: Some(gain),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MdpBuilder;

    /// A two-state chain with a known closed-form optimum.
    ///
    /// State 0: action A (reward 0, go to 1) or action B (reward 0.3,
    /// stay). State 1: single action (reward 1, stay). With γ close to 1
    /// the optimal play in state 0 is A (invest to reach the absorbing
    /// reward-1 state); with γ close to 0 it is B (take the immediate
    /// 0.3).
    fn invest_mdp() -> SparseMdp {
        let mut b = MdpBuilder::new(2);
        b.start_state();
        b.add_action(0, &[(1, 1.0, 0.0)]); // invest
        b.add_action(1, &[(0, 1.0, 0.3)]); // consume
        b.start_state();
        b.add_action(2, &[(1, 1.0, 1.0)]);
        b.build().unwrap()
    }

    #[test]
    fn value_iteration_closed_form() {
        let mdp = invest_mdp();
        let gamma = 0.9;
        let sol = value_iteration(
            &mdp,
            &SolveOptions {
                discount: gamma,
                tolerance: 1e-10,
                max_iterations: 100_000,
                stop: StopRule::ValueTolerance,
            },
        );
        // v(1) = 1 / (1 − γ) = 10; v(0) = γ · v(1) = 9 (investing beats
        // consuming: 0.3 + γ v(0) = 0.3/(1−γ) = 3).
        assert!((sol.values[1] - 10.0).abs() < 1e-6, "v1={}", sol.values[1]);
        assert!((sol.values[0] - 9.0).abs() < 1e-6, "v0={}", sol.values[0]);
        assert_eq!(mdp.action_label(sol.policy[0]), 0);
    }

    #[test]
    fn value_iteration_prefers_immediate_reward_when_myopic() {
        let mdp = invest_mdp();
        let sol = value_iteration(
            &mdp,
            &SolveOptions {
                discount: 0.2,
                tolerance: 1e-10,
                max_iterations: 100_000,
                stop: StopRule::PolicyCertified,
            },
        );
        // 0.3 / (1 − 0.2) = 0.375 beats γ/(1−γ)·... investing: γ·v1 = 0.2·1.25 = 0.25.
        assert_eq!(mdp.action_label(sol.policy[0]), 1);
    }

    #[test]
    fn gauss_seidel_matches_jacobi_with_fewer_sweeps() {
        let mdp = invest_mdp();
        let opts = SolveOptions {
            discount: 0.95,
            tolerance: 1e-10,
            max_iterations: 100_000,
            stop: StopRule::ValueTolerance,
        };
        let jacobi = value_iteration(&mdp, &opts);
        let gs = value_iteration_gauss_seidel(&mdp, &opts);
        assert_eq!(jacobi.policy, gs.policy);
        for (a, b) in jacobi.values.iter().zip(&gs.values) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert!(
            gs.iterations <= jacobi.iterations,
            "GS {} vs Jacobi {}",
            gs.iterations,
            jacobi.iterations
        );
    }

    #[test]
    fn policy_iteration_matches_value_iteration() {
        let mdp = invest_mdp();
        let opts = SolveOptions {
            discount: 0.95,
            tolerance: 1e-10,
            max_iterations: 100_000,
            stop: StopRule::ValueTolerance,
        };
        let vi = value_iteration(&mdp, &opts);
        let pi = policy_iteration(&mdp, &opts, 5_000);
        assert_eq!(vi.policy, pi.policy);
        for (a, b) in vi.values.iter().zip(&pi.values) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        assert!(pi.iterations <= vi.iterations);
    }

    #[test]
    fn relative_value_iteration_gain() {
        // Deterministic cycle 0 → 1 → 0 with rewards 0 and 1: gain 0.5.
        let mut b = MdpBuilder::new(2);
        b.start_state();
        b.add_action(0, &[(1, 1.0, 0.0)]);
        b.start_state();
        b.add_action(1, &[(0, 1.0, 1.0)]);
        let mdp = b.build().unwrap();
        let sol = relative_value_iteration(
            &mdp,
            &SolveOptions {
                discount: 0.99,
                tolerance: 1e-12,
                max_iterations: 200_000,
                ..SolveOptions::default()
            },
        );
        let gain = sol.gain.expect("RVI reports gain");
        assert!((gain - 0.5).abs() < 1e-6, "gain={gain}");
    }

    #[test]
    fn relative_vi_agrees_with_high_discount_vi_on_policy() {
        let mdp = invest_mdp();
        let rvi = relative_value_iteration(&mdp, &SolveOptions::default());
        let vi = value_iteration(
            &mdp,
            &SolveOptions {
                discount: 0.999,
                ..SolveOptions::default()
            },
        );
        let rvi_labels: Vec<_> = rvi.policy.iter().map(|&a| mdp.action_label(a)).collect();
        let vi_labels: Vec<_> = vi.policy.iter().map(|&a| mdp.action_label(a)).collect();
        assert_eq!(rvi_labels, vi_labels);
    }

    #[test]
    fn value_iteration_handles_stochastic_transitions() {
        // Gambler-style state: win/lose with p = 0.5.
        let mut b = MdpBuilder::new(3);
        b.start_state();
        b.add_action(0, &[(1, 0.5, 0.0), (2, 0.5, 0.0)]);
        b.start_state();
        b.add_action(1, &[(1, 1.0, 1.0)]);
        b.start_state();
        b.add_action(2, &[(2, 1.0, 0.0)]);
        let mdp = b.build().unwrap();
        let sol = value_iteration(
            &mdp,
            &SolveOptions {
                discount: 0.5,
                tolerance: 1e-12,
                max_iterations: 100_000,
                stop: StopRule::ValueTolerance,
            },
        );
        // v1 = 1/(1 − 0.5) = 2, v2 = 0, v0 = 0.5(0.5·2 + 0.5·0) = 0.5.
        assert!((sol.values[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "discount must lie in (0, 1)")]
    fn value_iteration_rejects_bad_discount() {
        let mdp = invest_mdp();
        let _ = value_iteration(
            &mdp,
            &SolveOptions {
                discount: 1.0,
                ..SolveOptions::default()
            },
        );
    }

    #[test]
    fn traced_solution_is_identical_to_untraced() {
        let mdp = invest_mdp();
        let opts = SolveOptions {
            discount: 0.95,
            tolerance: 1e-10,
            max_iterations: 100_000,
            stop: StopRule::PolicyCertified,
        };
        let plain = value_iteration(&mdp, &opts);
        let (traced, trace) = value_iteration_traced(&mdp, &opts);
        assert_eq!(plain, traced, "tracing must not perturb the solve");
        assert_eq!(trace.method, "value-iteration");
        assert!(trace.converged);
        assert_eq!(trace.sweeps.len(), traced.iterations);
        assert_eq!(trace.final_residual(), traced.residual);
        assert_eq!(
            trace.states_touched(),
            (traced.iterations * mdp.n_states()) as u64
        );
        // Sweep numbers are 1-based and contiguous.
        for (i, s) in trace.sweeps.iter().enumerate() {
            assert_eq!(s.sweep as usize, i + 1);
            assert_eq!(s.states, mdp.n_states() as u64);
            assert!(s.elapsed_s >= 0.0);
        }
        // Geometric convergence: the residual must shrink overall.
        assert!(trace.final_residual() < trace.sweeps[0].residual);

        let plain_gs = value_iteration_gauss_seidel(&mdp, &opts);
        let (traced_gs, trace_gs) = value_iteration_gauss_seidel_traced(&mdp, &opts);
        assert_eq!(plain_gs, traced_gs);
        assert_eq!(trace_gs.method, "gauss-seidel");
        assert!(trace_gs.converged);
        assert_eq!(trace_gs.sweeps.len(), traced_gs.iterations);
    }

    #[test]
    fn trace_reports_nonconvergence_at_sweep_cap() {
        let mdp = invest_mdp();
        let (sol, trace) = value_iteration_traced(
            &mdp,
            &SolveOptions {
                discount: 0.999_9,
                tolerance: 1e-15,
                max_iterations: 7,
                stop: StopRule::ValueTolerance,
            },
        );
        assert_eq!(sol.iterations, 7);
        assert!(!trace.converged, "cap hit before tolerance");
        assert_eq!(trace.sweeps.len(), 7);
    }

    #[test]
    fn empty_trace_final_residual_is_infinite() {
        let t = ConvergenceTrace::new("value-iteration");
        assert_eq!(t.final_residual(), f64::INFINITY);
        assert_eq!(t.states_touched(), 0);
    }

    #[test]
    fn convergence_trace_serde_round_trip() {
        let mdp = invest_mdp();
        let (_, trace) = value_iteration_traced(&mdp, &SolveOptions::default());
        assert!(trace.certificate.is_some(), "the default stop certifies");
        let json = serde_json::to_string(&trace).unwrap();
        let back: ConvergenceTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let mdp = invest_mdp();
        let sol = value_iteration(
            &mdp,
            &SolveOptions {
                discount: 0.999_9,
                tolerance: 1e-15,
                max_iterations: 7,
                stop: StopRule::ValueTolerance,
            },
        );
        assert_eq!(sol.iterations, 7);
    }

    /// Every bit of a solution, so `==` cannot hide a `-0.0` or a NaN.
    fn bits(sol: &Solution) -> (Vec<u64>, Vec<usize>, usize, u64, Option<u64>) {
        (
            sol.values.iter().map(|v| v.to_bits()).collect(),
            sol.policy.clone(),
            sol.iterations,
            sol.residual.to_bits(),
            sol.gain.map(f64::to_bits),
        )
    }

    fn with_stop(stop: StopRule) -> SolveOptions {
        SolveOptions {
            discount: 0.9,
            tolerance: 1e-10,
            max_iterations: 100_000,
            stop,
        }
    }

    #[test]
    fn certified_stop_returns_the_optimal_policy_early() {
        let mdp = invest_mdp();
        let (certified, trace) =
            value_iteration_traced(&mdp, &with_stop(StopRule::PolicyCertified));
        let reference = value_iteration(&mdp, &with_stop(StopRule::ValueTolerance));
        let c = trace.certificate.expect("a strict optimum certifies");
        assert!(trace.converged);
        assert_eq!(c.sweep as usize, certified.iterations);
        assert!(c.min_gap > c.bound, "{} vs {}", c.min_gap, c.bound);
        assert_eq!(certified.policy, reference.policy);
        assert!(
            certified.iterations < reference.iterations,
            "certified {} vs tolerance {}",
            certified.iterations,
            reference.iterations
        );
    }

    #[test]
    fn exact_tie_never_certifies_and_falls_back_bit_for_bit() {
        // State 2 offers the same action twice: its best two Q-values are
        // equal in every sweep, so no action gap can be proven.
        let mut b = MdpBuilder::new(3);
        b.start_state();
        b.add_action(0, &[(1, 1.0, 0.0)]);
        b.add_action(1, &[(0, 1.0, 0.3)]);
        b.start_state();
        b.add_action(2, &[(1, 1.0, 1.0)]);
        b.start_state();
        b.add_action(3, &[(1, 0.5, 0.2), (2, 0.5, 0.0)]);
        b.add_action(4, &[(1, 0.5, 0.2), (2, 0.5, 0.0)]);
        let mdp = b.build().unwrap();
        let (certified, trace) =
            value_iteration_traced(&mdp, &with_stop(StopRule::PolicyCertified));
        let reference = value_iteration(&mdp, &with_stop(StopRule::ValueTolerance));
        assert_eq!(trace.certificate, None);
        assert!(trace.converged, "the sup-norm fallback fired");
        assert_eq!(bits(&certified), bits(&reference));
    }

    /// One state, two self-loops whose rewards differ by `edge`: the
    /// sweep's `Δ` is a single number, so its span is zero and the gap
    /// only has to clear the floating-point margin (about 7e-13 here).
    fn near_tie_mdp(edge: f64) -> SparseMdp {
        let mut b = MdpBuilder::new(1);
        b.start_state();
        b.add_action(0, &[(0, 1.0, 1.0)]);
        b.add_action(1, &[(0, 1.0, 1.0 + edge)]);
        b.build().unwrap()
    }

    #[test]
    fn near_tie_inside_the_margin_falls_back() {
        let mdp = near_tie_mdp(1e-13);
        let (certified, trace) =
            value_iteration_traced(&mdp, &with_stop(StopRule::PolicyCertified));
        let reference = value_iteration(&mdp, &with_stop(StopRule::ValueTolerance));
        assert_eq!(trace.certificate, None);
        assert_eq!(bits(&certified), bits(&reference));
        assert_eq!(mdp.action_label(certified.policy[0]), 1);

        // The same shape with a gap well outside the margin certifies at
        // once.
        let mdp = near_tie_mdp(1e-9);
        let (certified, trace) =
            value_iteration_traced(&mdp, &with_stop(StopRule::PolicyCertified));
        assert_eq!(trace.certificate.map(|c| c.sweep), Some(1));
        assert_eq!(certified.iterations, 1);
        assert_eq!(mdp.action_label(certified.policy[0]), 1);
    }
}
