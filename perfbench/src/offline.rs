//! The offline pipeline replayed step by step through its public calls,
//! one span per step, so each layer's share of a policy solve is timed
//! from outside `generate_policy`.

use ramsis_core::guarantees::compute_guarantees;
use ramsis_core::{
    assemble_mdp_for_bench, Action, CoreError, Guarantees, PolicyConfig, SolverKind, StateSpace,
    TimeGrid, WorkerPolicy,
};
use ramsis_mdp::{
    policy_iteration, relative_value_iteration, stationary_distribution,
    value_iteration_gauss_seidel_traced, value_iteration_traced, SolveOptions, StationaryOptions,
};
use ramsis_profiles::WorkerProfile;
use ramsis_stats::counts::ArrivalProcess;

use crate::layers::Tracer;

/// What one decomposed solve produced, and the MDP's size.
pub struct Decomposed {
    pub actions: Vec<Action>,
    pub stationary: Vec<f64>,
    pub guarantees: Guarantees,
    pub sweeps: usize,
    pub states: usize,
    pub actions_total: usize,
    pub transitions: usize,
}

impl Decomposed {
    /// Whether `policy` (from `generate_policy` on the same inputs) holds
    /// exactly the same actions, stationary distribution, guarantees and
    /// sweep count.
    pub fn matches(&self, policy: &WorkerPolicy) -> bool {
        let space = policy.space();
        space.len() == self.actions.len()
            && space
                .iter()
                .all(|(i, st)| policy.action_at(st) == self.actions[i])
            && policy.stationary() == self.stationary.as_slice()
            && *policy.guarantees() == self.guarantees
            && policy.solve_iterations == self.sweeps
    }
}

/// Runs `generate_policy`'s steps for one arrival process: MDP assembly,
/// the configured solver, the stationary distribution and the §5.1
/// guarantees, each inside a span under `parent`.
///
/// # Errors
///
/// Propagates assembly failures.
pub fn decompose(
    tracer: &mut Tracer,
    parent: Option<usize>,
    profile: &WorkerProfile,
    process: &dyn ArrivalProcess,
    config: &PolicyConfig,
) -> Result<Decomposed, CoreError> {
    let grid = TimeGrid::build(profile, config.slo_s, config.discretization);
    let nw = config.max_queue.unwrap_or(profile.max_batch() + 3);
    let space = StateSpace::new(nw, grid.len() as u32);

    let mdp = tracer.span("generator.assemble", parent, || {
        assemble_mdp_for_bench(profile, process, config)
    })?;
    let opts = SolveOptions {
        discount: config.discount,
        ..SolveOptions::default()
    };
    let solution = tracer.span("mdp.solve", parent, || match config.solver {
        SolverKind::ValueIteration => value_iteration_traced(&mdp, &opts).0,
        SolverKind::GaussSeidelValueIteration => value_iteration_gauss_seidel_traced(&mdp, &opts).0,
        SolverKind::PolicyIteration => policy_iteration(&mdp, &opts, 10_000),
        SolverKind::RelativeValueIteration => relative_value_iteration(&mdp, &opts),
    });
    let actions: Vec<Action> = solution
        .policy
        .iter()
        .map(|&a| Action::from_label(mdp.action_label(a)))
        .collect();
    let stationary = tracer.span("mdp.stationary", parent, || {
        stationary_distribution(&mdp, &solution.policy, &StationaryOptions::default())
    });
    let guarantees = tracer.span("guarantees.compute", parent, || {
        compute_guarantees(profile, &grid, &space, &actions, &stationary)
    });
    Ok(Decomposed {
        actions,
        stationary,
        guarantees,
        sweeps: solution.iterations,
        states: mdp.n_states(),
        actions_total: mdp.n_actions(),
        transitions: mdp.n_transitions(),
    })
}

/// Whether every §5.1 guarantee is finite and within its range:
/// accuracies in [0, 100] percent, rates and probabilities in [0, 1].
pub fn guarantees_in_range(g: &Guarantees) -> bool {
    let pct = |x: f64| x.is_finite() && (0.0..=100.0).contains(&x);
    let unit = |x: f64| x.is_finite() && (0.0..=1.0).contains(&x);
    pct(g.expected_accuracy)
        && pct(g.epoch_accuracy)
        && unit(g.expected_violation_rate)
        && unit(g.epoch_violation_rate)
        && unit(g.full_state_probability)
        && unit(g.empty_state_probability)
}
