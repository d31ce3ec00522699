//! Sparse MDP representation and validating builder.
//!
//! An MDP is the tuple `(S, A, P_a, R_a)` of paper §4. States and actions
//! are dense indices assigned by the caller; each action carries an opaque
//! `u64` label so the caller can recover its domain meaning (RAMSIS packs
//! `(model, batch)` pairs into it). Rewards are reduced at build time to
//! the expected immediate reward `r(s, a) = Σ_{s'} P_a(s, s') R_a(s, s')`,
//! which is equivalent for every exact solution method used here.
//!
//! Storage is CSR-like: one flat transition array indexed by per-action
//! ranges, one flat action array indexed by per-state ranges.

use serde::{Deserialize, Serialize};

/// Tolerance for "transition row sums to one" validation.
const ROW_SUM_TOLERANCE: f64 = 1e-6;

/// Errors produced while assembling or validating an MDP.
#[derive(Debug, Clone, PartialEq)]
pub enum MdpError {
    /// A state was declared with no available action.
    StateWithoutActions {
        /// Index of the offending state.
        state: usize,
    },
    /// A transition referenced a state index out of range.
    BadTargetState {
        /// Index of the source state.
        state: usize,
        /// Target index that was out of range.
        target: usize,
        /// Number of states in the MDP.
        n_states: usize,
    },
    /// A transition had a negative, NaN, or infinite probability.
    BadProbability {
        /// Index of the source state.
        state: usize,
        /// The offending probability.
        prob: f64,
    },
    /// A transition row's probabilities did not sum to one.
    RowSumMismatch {
        /// Index of the source state.
        state: usize,
        /// Label of the offending action.
        action_label: u64,
        /// The actual row sum.
        sum: f64,
    },
    /// The MDP has no states.
    Empty,
}

impl std::fmt::Display for MdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdpError::StateWithoutActions { state } => {
                write!(f, "state {state} has no actions")
            }
            MdpError::BadTargetState {
                state,
                target,
                n_states,
            } => write!(
                f,
                "state {state} has a transition to {target}, but there are only {n_states} states"
            ),
            MdpError::BadProbability { state, prob } => {
                write!(f, "state {state} has a transition with invalid probability {prob}")
            }
            MdpError::RowSumMismatch {
                state,
                action_label,
                sum,
            } => write!(
                f,
                "state {state}, action {action_label}: transition probabilities sum to {sum}, expected 1"
            ),
            MdpError::Empty => write!(f, "MDP has no states"),
        }
    }
}

impl std::error::Error for MdpError {}

/// Incrementally assembles a [`SparseMdp`], validating on `build`.
///
/// # Examples
///
/// ```
/// use ramsis_mdp::MdpBuilder;
///
/// // Two states; action 0 flips, action 1 stays (reward 1 in state 1).
/// let mut b = MdpBuilder::new(2);
/// b.start_state();
/// b.add_action(0, &[(1, 1.0, 0.0)]);
/// b.start_state();
/// b.add_action(1, &[(1, 1.0, 1.0)]);
/// let mdp = b.build().unwrap();
/// assert_eq!(mdp.n_states(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MdpBuilder {
    n_states: usize,
    state_action_start: Vec<usize>,
    action_labels: Vec<u64>,
    action_trans_start: Vec<usize>,
    action_reward: Vec<f64>,
    trans_to: Vec<u32>,
    trans_prob: Vec<f64>,
    /// Whether to rescale near-miss rows instead of rejecting them.
    normalize_rows: bool,
}

impl MdpBuilder {
    /// Creates a builder for an MDP with `n_states` states.
    ///
    /// States must then be emitted in index order via [`Self::start_state`]
    /// followed by one or more [`Self::add_action`] calls each.
    pub fn new(n_states: usize) -> Self {
        Self {
            n_states,
            state_action_start: Vec::with_capacity(n_states + 1),
            action_labels: Vec::new(),
            action_trans_start: vec![0],
            action_reward: Vec::new(),
            trans_to: Vec::new(),
            trans_prob: Vec::new(),
            normalize_rows: false,
        }
    }

    /// Rescale rows whose sum deviates from one by more than the strict
    /// tolerance but less than `slack`, instead of rejecting.
    ///
    /// RAMSIS uses this with the truncation slack of its Poisson tables:
    /// tail mass below 1e-9 per row is renormalized away rather than
    /// rejected.
    pub fn normalize_rows(&mut self, enable: bool) -> &mut Self {
        self.normalize_rows = enable;
        self
    }

    /// Begins the next state (states are implicitly indexed 0, 1, ...).
    ///
    /// # Panics
    ///
    /// Panics if more than `n_states` states are started.
    pub fn start_state(&mut self) -> usize {
        assert!(
            self.state_action_start.len() < self.n_states,
            "started more states than declared ({})",
            self.n_states
        );
        self.state_action_start.push(self.action_labels.len());
        self.state_action_start.len() - 1
    }

    /// Adds an action to the current state.
    ///
    /// `transitions` is a slice of `(target_state, probability, reward)`
    /// triples. Zero-probability entries are dropped.
    ///
    /// # Panics
    ///
    /// Panics if called before any [`Self::start_state`].
    pub fn add_action(&mut self, label: u64, transitions: &[(usize, f64, f64)]) {
        assert!(
            !self.state_action_start.is_empty(),
            "add_action called before start_state"
        );
        self.action_labels.push(label);
        let mut expected_reward = 0.0;
        for &(to, prob, reward) in transitions {
            if prob == 0.0 {
                continue;
            }
            self.trans_to.push(to as u32);
            self.trans_prob.push(prob);
            expected_reward += prob * reward;
        }
        self.action_reward.push(expected_reward);
        self.action_trans_start.push(self.trans_to.len());
    }

    /// Validates and freezes the MDP.
    ///
    /// # Errors
    ///
    /// Returns an [`MdpError`] if any state lacks actions, a transition
    /// targets an out-of-range state, probabilities are invalid, or a row
    /// does not sum to one (beyond the normalization slack when enabled).
    pub fn build(mut self) -> Result<SparseMdp, MdpError> {
        if self.n_states == 0 {
            return Err(MdpError::Empty);
        }
        assert_eq!(
            self.state_action_start.len(),
            self.n_states,
            "declared {} states but started {}",
            self.n_states,
            self.state_action_start.len()
        );
        self.state_action_start.push(self.action_labels.len());

        // Per-state action presence.
        for s in 0..self.n_states {
            if self.state_action_start[s] == self.state_action_start[s + 1] {
                return Err(MdpError::StateWithoutActions { state: s });
            }
        }
        // Per-transition validity.
        for (i, (&to, &prob)) in self.trans_to.iter().zip(&self.trans_prob).enumerate() {
            let state = self.state_of_transition(i);
            if (to as usize) >= self.n_states {
                return Err(MdpError::BadTargetState {
                    state,
                    target: to as usize,
                    n_states: self.n_states,
                });
            }
            if !prob.is_finite() || prob < 0.0 {
                return Err(MdpError::BadProbability { state, prob });
            }
        }
        // Row sums (with optional renormalization of truncation slack).
        for a in 0..self.action_labels.len() {
            let range = self.action_trans_start[a]..self.action_trans_start[a + 1];
            let sum: f64 = self.trans_prob[range.clone()].iter().sum();
            if (sum - 1.0).abs() > ROW_SUM_TOLERANCE {
                let state = self.state_of_action(a);
                // Allow generous slack when normalizing: rows come from
                // truncated tables so can only fall short, never exceed.
                if self.normalize_rows && sum > 0.5 && sum < 1.0 + ROW_SUM_TOLERANCE {
                    let scale = 1.0 / sum;
                    for p in &mut self.trans_prob[range.clone()] {
                        *p *= scale;
                    }
                    self.action_reward[a] *= scale;
                } else {
                    return Err(MdpError::RowSumMismatch {
                        state,
                        action_label: self.action_labels[a],
                        sum,
                    });
                }
            } else if sum != 1.0 && self.normalize_rows {
                let scale = 1.0 / sum;
                for p in &mut self.trans_prob[range.clone()] {
                    *p *= scale;
                }
                self.action_reward[a] *= scale;
            }
        }

        Ok(SparseMdp {
            n_states: self.n_states,
            state_action_start: self.state_action_start,
            action_labels: self.action_labels,
            action_trans_start: self.action_trans_start,
            action_reward: self.action_reward,
            trans_to: self.trans_to,
            trans_prob: self.trans_prob,
        })
    }

    fn state_of_action(&self, action: usize) -> usize {
        // `state_action_start` may not yet have the sentinel; search the
        // prefix that exists.
        match self.state_action_start.binary_search(&action) {
            Ok(mut s) => {
                // Several empty states could share the offset; take the
                // first whose range contains `action`.
                while s + 1 < self.state_action_start.len()
                    && self.state_action_start[s + 1] == action
                {
                    s += 1;
                }
                s
            }
            Err(s) => s - 1,
        }
    }

    fn state_of_transition(&self, trans: usize) -> usize {
        let action = match self.action_trans_start.binary_search(&trans) {
            Ok(a) => a,
            Err(a) => a - 1,
        };
        self.state_of_action(action)
    }
}

/// A validated, immutable, sparsely stored finite MDP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseMdp {
    n_states: usize,
    state_action_start: Vec<usize>,
    action_labels: Vec<u64>,
    action_trans_start: Vec<usize>,
    action_reward: Vec<f64>,
    trans_to: Vec<u32>,
    trans_prob: Vec<f64>,
}

impl SparseMdp {
    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Total number of `(state, action)` pairs.
    pub fn n_actions(&self) -> usize {
        self.action_labels.len()
    }

    /// Total number of stored transitions.
    pub fn n_transitions(&self) -> usize {
        self.trans_to.len()
    }

    /// Global action indices available in `state`.
    pub fn actions_of(&self, state: usize) -> std::ops::Range<usize> {
        self.state_action_start[state]..self.state_action_start[state + 1]
    }

    /// Caller-defined label of a global action index.
    pub fn action_label(&self, action: usize) -> u64 {
        self.action_labels[action]
    }

    /// Expected immediate reward `r(s, a)` of a global action index.
    pub fn action_reward(&self, action: usize) -> f64 {
        self.action_reward[action]
    }

    /// `(target, probability)` pairs of a global action index.
    pub fn transitions_of(&self, action: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.action_trans_start[action]..self.action_trans_start[action + 1];
        self.trans_to[range.clone()]
            .iter()
            .zip(&self.trans_prob[range])
            .map(|(&to, &p)| (to as usize, p))
    }

    /// One backup of the Bellman optimality operator at `state` given the
    /// value estimates `values`, returning `(best_value, best_action)`.
    ///
    /// Ties break toward the action added first, making solver output
    /// deterministic.
    pub fn bellman_backup(&self, state: usize, values: &[f64], discount: f64) -> (f64, usize) {
        let (best, best_action, _) = self.bellman_backup_with_runner_up(state, values, discount);
        (best, best_action)
    }

    /// [`Self::bellman_backup`] that also returns the runner-up Q-value,
    /// `(best_value, best_action, runner_up_value)`. The first two are
    /// bit-identical to [`Self::bellman_backup`]'s. The runner-up is the
    /// largest Q among the other actions: it equals `best_value` on an
    /// exact tie and is `-inf` in a single-action state, so
    /// `best_value − runner_up_value` is the state's action gap.
    pub(crate) fn bellman_backup_with_runner_up(
        &self,
        state: usize,
        values: &[f64],
        discount: f64,
    ) -> (f64, usize, f64) {
        let mut best = f64::NEG_INFINITY;
        let mut runner_up = f64::NEG_INFINITY;
        let mut best_action = self.state_action_start[state];
        for a in self.actions_of(state) {
            let mut q = self.action_reward[a];
            let range = self.action_trans_start[a]..self.action_trans_start[a + 1];
            let mut future = 0.0;
            for (i, &to) in self.trans_to[range.clone()].iter().enumerate() {
                future += self.trans_prob[range.start + i] * values[to as usize];
            }
            q += discount * future;
            let second = if q > best { best } else { q };
            if second > runner_up {
                runner_up = second;
            }
            if q > best {
                best = q;
                best_action = a;
            }
        }
        (best, best_action, runner_up)
    }

    /// `(max_len, max_dev)` over all transition rows: the longest row and
    /// a bound on how far any row's exact sum lies from one (the
    /// computed sum's deviation plus that sum's own rounding bound,
    /// `len · ε`). After `normalize_rows(true)` the deviation is a few
    /// ulps; without it the builder admits up to `1e-6`.
    pub(crate) fn row_bounds(&self) -> (usize, f64) {
        let mut max_len = 0;
        let mut max_dev = 0.0f64;
        for a in 0..self.n_actions() {
            let range = self.action_trans_start[a]..self.action_trans_start[a + 1];
            let len = range.len();
            let sum: f64 = self.trans_prob[range].iter().sum();
            max_len = max_len.max(len);
            max_dev = max_dev.max((sum - 1.0).abs() + len as f64 * f64::EPSILON);
        }
        (max_len, max_dev)
    }

    /// Q-value of one specific global action index.
    pub fn q_value(&self, action: usize, values: &[f64], discount: f64) -> f64 {
        let mut future = 0.0;
        for (to, p) in self.transitions_of(action) {
            future += p * values[to];
        }
        self.action_reward[action] + discount * future
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> SparseMdp {
        let mut b = MdpBuilder::new(2);
        b.start_state();
        b.add_action(10, &[(0, 0.5, 0.0), (1, 0.5, 2.0)]);
        b.add_action(11, &[(0, 1.0, 0.1)]);
        b.start_state();
        b.add_action(20, &[(1, 1.0, 1.0)]);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_expected_shape() {
        let m = two_state();
        assert_eq!(m.n_states(), 2);
        assert_eq!(m.n_actions(), 3);
        assert_eq!(m.n_transitions(), 4);
        assert_eq!(m.actions_of(0), 0..2);
        assert_eq!(m.actions_of(1), 2..3);
        assert_eq!(m.action_label(2), 20);
        // Expected reward of action 0: 0.5·0 + 0.5·2 = 1.
        assert!((m.action_reward(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transitions_iterate_in_order() {
        let m = two_state();
        let t: Vec<_> = m.transitions_of(0).collect();
        assert_eq!(t, vec![(0, 0.5), (1, 0.5)]);
    }

    #[test]
    fn zero_probability_entries_are_dropped() {
        let mut b = MdpBuilder::new(1);
        b.start_state();
        b.add_action(0, &[(0, 1.0, 1.0), (0, 0.0, 99.0)]);
        let m = b.build().unwrap();
        assert_eq!(m.n_transitions(), 1);
        assert!((m.action_reward(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_state_without_actions() {
        let mut b = MdpBuilder::new(2);
        b.start_state();
        b.add_action(0, &[(0, 1.0, 0.0)]);
        b.start_state();
        assert_eq!(
            b.build().unwrap_err(),
            MdpError::StateWithoutActions { state: 1 }
        );
    }

    #[test]
    fn rejects_bad_target() {
        let mut b = MdpBuilder::new(1);
        b.start_state();
        b.add_action(0, &[(3, 1.0, 0.0)]);
        assert!(matches!(
            b.build().unwrap_err(),
            MdpError::BadTargetState { target: 3, .. }
        ));
    }

    #[test]
    fn rejects_negative_probability() {
        let mut b = MdpBuilder::new(1);
        b.start_state();
        b.add_action(0, &[(0, -0.5, 0.0), (0, 1.5, 0.0)]);
        assert!(matches!(
            b.build().unwrap_err(),
            MdpError::BadProbability { .. }
        ));
    }

    #[test]
    fn rejects_row_sum_mismatch() {
        let mut b = MdpBuilder::new(1);
        b.start_state();
        b.add_action(7, &[(0, 0.7, 0.0)]);
        assert!(matches!(
            b.build().unwrap_err(),
            MdpError::RowSumMismatch {
                action_label: 7,
                ..
            }
        ));
    }

    #[test]
    fn normalization_rescues_truncated_rows() {
        let mut b = MdpBuilder::new(1);
        b.normalize_rows(true);
        b.start_state();
        b.add_action(0, &[(0, 0.999_999, 2.0)]);
        let m = b.build().unwrap();
        let sum: f64 = m.transitions_of(0).map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Reward rescales with the row so r(s, a) stays the conditional mean.
        assert!((m.action_reward(0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_still_rejects_garbage() {
        let mut b = MdpBuilder::new(1);
        b.normalize_rows(true);
        b.start_state();
        b.add_action(0, &[(0, 0.2, 0.0)]);
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_empty_mdp() {
        assert_eq!(MdpBuilder::new(0).build().unwrap_err(), MdpError::Empty);
    }

    #[test]
    fn bellman_backup_picks_best_action() {
        let m = two_state();
        let values = vec![0.0, 10.0];
        // Action 0: 1 + γ(0.5·0 + 0.5·10) = 1 + 5γ; action 1: 0.1 + γ·0.
        let (v, a) = m.bellman_backup(0, &values, 0.9);
        assert_eq!(a, 0);
        assert!((v - 5.5).abs() < 1e-12);
        // With γ = 0 the comparison is on immediate rewards only.
        let (v0, a0) = m.bellman_backup(0, &values, 0.0);
        assert_eq!(a0, 0);
        assert!((v0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn q_value_matches_backup() {
        let m = two_state();
        let values = vec![3.0, -1.0];
        let best = m.bellman_backup(0, &values, 0.95);
        let q0 = m.q_value(0, &values, 0.95);
        let q1 = m.q_value(1, &values, 0.95);
        assert!((best.0 - q0.max(q1)).abs() < 1e-12);
    }

    #[test]
    fn runner_up_is_the_second_best_q() {
        let m = two_state();
        let values = vec![3.0, -1.0];
        let (v, a, runner_up) = m.bellman_backup_with_runner_up(0, &values, 0.95);
        assert_eq!((v, a), m.bellman_backup(0, &values, 0.95));
        let q0 = m.q_value(0, &values, 0.95);
        let q1 = m.q_value(1, &values, 0.95);
        assert_eq!(runner_up, q0.min(q1));
        // A single-action state has no runner-up.
        assert_eq!(
            m.bellman_backup_with_runner_up(1, &values, 0.95).2,
            f64::NEG_INFINITY
        );
        // An exact tie keeps the first action and reports a zero gap.
        let mut b = MdpBuilder::new(1);
        b.start_state();
        b.add_action(0, &[(0, 1.0, 1.0)]);
        b.add_action(1, &[(0, 1.0, 1.0)]);
        let tie = b.build().unwrap();
        let (v, a, runner_up) = tie.bellman_backup_with_runner_up(0, &[2.0], 0.5);
        assert_eq!((a, v), (0, runner_up));
    }

    #[test]
    fn row_bounds_report_the_longest_row_and_its_slack() {
        let (max_len, max_dev) = two_state().row_bounds();
        assert_eq!(max_len, 2);
        // Exact rows: only the summation's own rounding bound remains.
        assert_eq!(max_dev, 2.0 * f64::EPSILON);
    }
}
