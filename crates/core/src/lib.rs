//! RAMSIS core: the paper's MDP formulation of per-worker model
//! selection, offline policy generation, and probabilistic guarantees.
//!
//! The pipeline mirrors the paper's offline phase (§3.1):
//!
//! 1. **Inputs** — a latency/accuracy [`ramsis_profiles::WorkerProfile`],
//!    an arrival distribution (`PF(k, T)`,
//!    [`ramsis_stats::ArrivalProcess`]), a response-latency SLO, and the
//!    worker count `K` served by the round-robin load balancer
//!    ([`config::PolicyConfig`]).
//! 2. **State space** — worker-queue states `(n, T_j)` over a discrete
//!    slack grid ([`discretize`], §4.2), plus the empty-queue state and
//!    the full-queue state `(φ, ∅)` ([`state`], §4.2.3–4.3.4).
//! 3. **Actions** — `(model, batch)` pairs constrained by latency, batch
//!    strategy, and Pareto pruning ([`action`], §4.3).
//! 4. **Transitions** — the interval-counting derivation of §4.4 for
//!    round-robin balancing ([`transitions`]) or the conditional-Poisson
//!    approximation of appendix §I for shortest-queue-first ([`sqf`]).
//! 5. **Solution** — value iteration over the assembled sparse MDP
//!    ([`generator`], §4.1), yielding a [`policy::WorkerPolicy`].
//! 6. **Guarantees** — expected accuracy and expected SLO violation rate
//!    from the stationary distribution ([`guarantees`], §5.1).
//! 7. **Deployment set** — per-load policy sets with the 1% adjacent-
//!    accuracy refinement rule and lowest-satisfying-load selection
//!    ([`policy_set`], §3.2.2 and §6).

pub mod action;
pub mod config;
pub mod discretize;
pub mod error;
pub mod fallback;
pub mod generator;
pub mod guarantees;
pub mod policy;
pub mod policy_set;
mod pool;
pub mod regime;
pub mod sqf;
pub mod state;
pub mod transitions;

pub use action::{Action, Batching};
pub use config::{
    Balancing, MissPolicy, PolicyConfig, PolicyConfigBuilder, RewardKind, SolverKind,
};
pub use discretize::{Discretization, TimeGrid};
pub use error::CoreError;
pub use fallback::FallbackPolicy;
pub use generator::{
    assemble_mdp as assemble_mdp_for_bench, generate_policy, generate_policy_traced, mdp_dimensions,
};
pub use guarantees::{AccuracyDistribution, Guarantees};
pub use policy::{Decision, WorkerPolicy};
pub use policy_set::{DegradablePolicySet, PolicySet};
pub use ramsis_mdp::{ConvergenceTrace, SweepRecord};
pub use regime::{PolicyLibrary, ShedPolicy};
pub use state::{State, StateSpace};

/// The Poisson arrival process (re-exported for API convenience; the
/// paper's experiments all assume Poisson arrivals, §3.1.1).
pub use ramsis_stats::PoissonProcess as PoissonArrivals;
