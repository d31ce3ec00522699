//! Deployable worker-level model-selection policies.
//!
//! A [`WorkerPolicy`] is the offline output of RAMSIS (paper §3.1.3):
//! the optimal action for every worker-queue state, plus the metadata
//! needed to map a *runtime* queue observation (`n` queued queries,
//! earliest-deadline slack) onto a state. Policies serialize to JSON,
//! mirroring the paper artifact's
//! `policy_gen/METHOD_NUMWORKERS_SLO/LOAD.json` files ("a dictionary
//! mapping states of the MDP to actions" — see
//! [`WorkerPolicy::artifact_map`]).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use ramsis_profiles::WorkerProfile;

use crate::action::Action;
use crate::config::PolicyConfig;
use crate::discretize::TimeGrid;
use crate::guarantees::{AccuracyDistribution, Guarantees};
use crate::state::{State, StateSpace};

/// A runtime model-selection decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The queue is empty: idle until the next arrival (the arrival
    /// action `â`).
    Wait,
    /// Serve the `batch` earliest-deadline queries on `model`.
    Serve {
        /// Catalog index of the selected model.
        model: usize,
        /// Number of queries to batch.
        batch: u32,
    },
    /// Shed `count` queries whose deadlines cannot be met
    /// ([`crate::config::MissPolicy::Drop`]).
    Drop {
        /// Number of queries to discard.
        count: u32,
    },
}

/// An offline-generated per-worker model-selection policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerPolicy {
    /// The configuration the policy was generated under.
    pub config: PolicyConfig,
    /// The central-queue load (QPS) the policy is specialized for.
    pub design_load_qps: f64,
    /// Name of the arrival process (`"poisson"`, ...).
    pub process_name: String,
    /// Number of value/policy-iteration sweeps the solver used.
    pub solve_iterations: usize,
    /// Wall-clock policy-generation time in seconds.
    ///
    /// A policy set solves its policies in parallel, so within one set
    /// these walls overlap: their sum is the summed per-policy solve
    /// time, not the set's generation time (time the set's
    /// `generate_*` call for that).
    pub generation_seconds: f64,
    grid: TimeGrid,
    space: StateSpace,
    actions: Vec<Action>,
    guarantees: Guarantees,
    /// Stationary probability per state under this policy (§5.1).
    stationary: Vec<f64>,
}

impl WorkerPolicy {
    /// Assembles a policy (used by the generator; not public API).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        config: PolicyConfig,
        design_load_qps: f64,
        process_name: String,
        grid: TimeGrid,
        space: StateSpace,
        actions: Vec<Action>,
        guarantees: Guarantees,
        stationary: Vec<f64>,
        solve_iterations: usize,
        generation_seconds: f64,
    ) -> Self {
        assert_eq!(actions.len(), space.len(), "one action per state");
        assert_eq!(stationary.len(), space.len(), "one probability per state");
        Self {
            config,
            design_load_qps,
            process_name,
            solve_iterations,
            generation_seconds,
            grid,
            space,
            actions,
            guarantees,
            stationary,
        }
    }

    /// The §5.1 guarantees computed at generation time.
    pub fn guarantees(&self) -> &Guarantees {
        &self.guarantees
    }

    /// The stationary probability of each state under this policy.
    pub fn stationary(&self) -> &[f64] {
        &self.stationary
    }

    /// The per-query accuracy distribution (§5.1's summary statistics
    /// beyond the expectation): e.g.
    /// `policy.accuracy_distribution(&profile).quantile(0.5)` is the
    /// median accuracy a satisfied query receives.
    pub fn accuracy_distribution(&self, profile: &WorkerProfile) -> AccuracyDistribution {
        AccuracyDistribution::compute(
            profile,
            &self.grid,
            &self.space,
            &self.actions,
            &self.stationary,
        )
    }

    /// The slack grid `T_w` (§4.2).
    pub fn grid(&self) -> &TimeGrid {
        &self.grid
    }

    /// The state space.
    pub fn space(&self) -> &StateSpace {
        &self.space
    }

    /// The stored action for a symbolic state.
    pub fn action_at(&self, state: State) -> Action {
        self.actions[self.space.index(state)]
    }

    /// Maps a runtime queue observation to a decision (§3.2.2): `n`
    /// queued queries whose earliest deadline has `slack_s` seconds
    /// remaining (negative when already blown).
    ///
    /// Queue lengths beyond `N_w` hit the `(φ, ∅)` state's forced action
    /// and serve the entire queue (the evaluation never drops queries,
    /// §7 "Baseline MS&S Policies").
    pub fn decide(&self, n: usize, slack_s: f64) -> Decision {
        if n == 0 {
            return Decision::Wait;
        }
        let nw = self.space.max_queue() as usize;
        let state = if n > nw {
            State::Full
        } else {
            State::Queued {
                n: n as u32,
                slack: self.grid.floor_index(slack_s) as u32,
            }
        };
        match self.action_at(state) {
            Action::Arrival => Decision::Wait,
            Action::Shed => Decision::Drop { count: n as u32 },
            Action::Serve { model, batch } => Decision::Serve {
                model: model as usize,
                // The overflow state's stored batch is N_w; serve the
                // real queue in full.
                batch: if n > nw { n as u32 } else { batch },
            },
        }
    }

    /// Serializes the policy to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("policy serialization is infallible")
    }

    /// Deserializes a policy from [`Self::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the serde error message on malformed input.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// The artifact-style state→action dictionary: keys are
    /// `"(n, T_j_ms)"`, values are `"(model_name, batch)"` (or
    /// `"wait"`); useful for eyeballing and diffing policies.
    pub fn artifact_map(&self, profile: &WorkerProfile) -> BTreeMap<String, String> {
        let mut map = BTreeMap::new();
        for (i, st) in self.space.iter() {
            let key = match st {
                State::Empty => "(0, -)".to_owned(),
                State::Queued { n, slack } => {
                    format!("({n}, {:.1}ms)", self.grid.value(slack as usize) * 1e3)
                }
                State::Full => "(full, 0ms)".to_owned(),
            };
            let value = match self.actions[i] {
                Action::Arrival => "wait".to_owned(),
                Action::Shed => "drop".to_owned(),
                Action::Serve { model, batch } => {
                    format!("({}, {batch})", profile.models[model as usize].name)
                }
            };
            map.insert(key, value);
        }
        map
    }

    /// Catalog indices of every model the policy ever selects.
    pub fn models_used(&self) -> Vec<usize> {
        let mut used: Vec<usize> = self
            .actions
            .iter()
            .filter_map(|a| match a {
                Action::Serve { model, .. } => Some(*model as usize),
                Action::Arrival | Action::Shed => None,
            })
            .collect();
        used.sort_unstable();
        used.dedup();
        used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyConfig;
    use crate::discretize::Discretization;
    use ramsis_profiles::{ModelCatalog, ProfilerConfig};
    use std::time::Duration;

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

    /// Hand-built tiny policy: fast model everywhere, batch = n.
    fn tiny_policy() -> WorkerPolicy {
        let p = profile();
        let grid = TimeGrid::build(p, 0.15, Discretization::fixed_length(10));
        let space = StateSpace::new(4, grid.len() as u32);
        let fast = p.fastest_model() as u32;
        let actions: Vec<Action> = space
            .iter()
            .map(|(_, st)| match st {
                State::Empty => Action::Arrival,
                State::Queued { n, .. } => Action::Serve {
                    model: fast,
                    batch: n,
                },
                State::Full => Action::Serve {
                    model: fast,
                    batch: space.max_queue(),
                },
            })
            .collect();
        let g = Guarantees {
            expected_accuracy: p.accuracy(fast as usize),
            expected_violation_rate: 0.0,
            epoch_accuracy: p.accuracy(fast as usize),
            epoch_violation_rate: 0.0,
            full_state_probability: 0.0,
            empty_state_probability: 0.5,
        };
        let stationary = vec![1.0 / space.len() as f64; space.len()];
        WorkerPolicy::new(
            PolicyConfig::builder(Duration::from_millis(150)).build(),
            400.0,
            "poisson".into(),
            grid,
            space,
            actions,
            g,
            stationary,
            10,
            0.5,
        )
    }

    #[test]
    fn decide_empty_queue_waits() {
        let p = tiny_policy();
        assert_eq!(p.decide(0, 0.15), Decision::Wait);
    }

    #[test]
    fn decide_serves_batch_n() {
        let p = tiny_policy();
        let fast = profile().fastest_model();
        assert_eq!(
            p.decide(3, 0.15),
            Decision::Serve {
                model: fast,
                batch: 3
            }
        );
    }

    #[test]
    fn decide_overflow_serves_everything() {
        let p = tiny_policy();
        let fast = profile().fastest_model();
        // N_w = 4; a queue of 9 hits the Full state but serves all 9.
        assert_eq!(
            p.decide(9, -0.01),
            Decision::Serve {
                model: fast,
                batch: 9
            }
        );
    }

    #[test]
    fn decide_clamps_negative_slack() {
        let p = tiny_policy();
        // Negative slack maps to the exhausted bin, not a panic.
        assert!(matches!(p.decide(2, -1.0), Decision::Serve { .. }));
    }

    #[test]
    fn json_round_trip() {
        let p = tiny_policy();
        let json = p.to_json();
        let back = WorkerPolicy::from_json(&json).unwrap();
        assert_eq!(p, back);
        assert!(WorkerPolicy::from_json("{not json").is_err());
    }

    #[test]
    fn artifact_map_is_readable() {
        let p = tiny_policy();
        let map = p.artifact_map(profile());
        assert_eq!(map.len(), p.space().len());
        assert_eq!(map.get("(0, -)").map(String::as_str), Some("wait"));
        let any_serve = map.values().any(|v| v.contains("shufflenet"));
        assert!(any_serve);
    }

    #[test]
    fn models_used_deduplicates() {
        let p = tiny_policy();
        assert_eq!(p.models_used(), vec![profile().fastest_model()]);
    }
}
