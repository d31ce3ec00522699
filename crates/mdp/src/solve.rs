//! Exact MDP solution methods.
//!
//! The paper generates model-selection policies with value iteration
//! (§4.1), noting that "other exact solution methods, like policy
//! iteration, may be used". All three classic exact methods are provided:
//!
//! - [`value_iteration`]: discounted, with span-seminorm stopping, which
//!   terminates within `ε` of the optimal policy's value rather than of
//!   the value estimate (Puterman §6.6).
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

/// Per-sweep convergence record of one solve — makes offline solve
/// cost visible (sweeps to convergence, residual decay, time per
/// sweep). Wall-clock timing is fine here: solves run offline, never
/// on the simulated clock, so traces don't perturb simulation
/// determinism.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ConvergenceTrace {
    /// Solver name (e.g. `"value-iteration"`).
    pub method: String,
    /// Whether the residual crossed the stopping threshold (false when
    /// the sweep cap was hit first).
    pub converged: bool,
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

/// Options shared by the solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Discount factor `γ ∈ (0, 1)` for the discounted criterion.
    pub discount: f64,
    /// Convergence threshold on the span seminorm of the value update.
    pub tolerance: f64,
    /// Hard cap on sweeps, guarding against configuration mistakes.
    pub max_iterations: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            discount: 0.99,
            tolerance: 1e-9,
            max_iterations: 100_000,
        }
    }
}

/// The result of solving an MDP.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal value per state (differential values for the
    /// average-reward criterion).
    pub values: Vec<f64>,
    /// Chosen global action index per state.
    pub policy: Vec<usize>,
    /// Number of sweeps performed.
    pub iterations: usize,
    /// Final span seminorm of the last update.
    pub residual: f64,
    /// Average reward per epoch (only set by relative value iteration).
    pub gain: Option<f64>,
}

fn span(delta_min: f64, delta_max: f64) -> f64 {
    delta_max - delta_min
}

/// Solves the discounted MDP by value iteration.
///
/// Iterates `v ← max_a [r(s, a) + γ Σ P v]` until the sup norm of the
/// update falls below `tolerance · (1 − γ) / (2γ)`, the classic bound
/// guaranteeing `‖v − v*‖∞ ≤ tolerance / 2` and an `ε`-optimal greedy
/// policy (Puterman, Thm. 6.3.1), then extracts the greedy policy.
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
    let n = mdp.n_states();
    let mut values = vec![0.0; n];
    let mut next = vec![0.0; n];
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
            next[s] = v;
        }
        std::mem::swap(&mut values, &mut next);
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

/// Solves the discounted MDP by Gauss–Seidel value iteration: backups
/// within a sweep use the already-updated values of earlier states,
/// which typically cuts the sweep count roughly in half versus the
/// Jacobi variant ([`value_iteration`]) while converging to the same
/// fixed point.
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
            },
        );
        assert_eq!(sol.iterations, 7);
    }
}
