//! Load-indexed policy sets (paper §3.1.3, §3.2.2, §6).
//!
//! RAMSIS pre-computes a *set* of policies, one per query load, because
//! each MS policy is specialized to an arrival distribution. Online, the
//! worker-level selector uses "the lowest-load MS policy that meets the
//! anticipated query load". The paper's implementation picks the load
//! grid adaptively: "we generate policies for differing query load such
//! that the largest difference between the expected accuracies among all
//! pairs of adjacent policies is below a threshold — 1% in our
//! experiments" (§6).

use serde::{Deserialize, Serialize};

use ramsis_profiles::WorkerProfile;
use ramsis_stats::{NegativeBinomialProcess, PoissonProcess};

use crate::config::PolicyConfig;
use crate::error::CoreError;
use crate::generator::generate_policy;
use crate::policy::WorkerPolicy;
use crate::pool;

/// A set of policies specialized per query load, sorted ascending.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySet {
    policies: Vec<WorkerPolicy>,
}

impl PolicySet {
    /// The paper's adjacent-accuracy refinement threshold (1%).
    pub const DEFAULT_ACCURACY_GAP: f64 = 1.0;

    /// Generates one policy per load in `loads_qps` (Poisson arrivals).
    ///
    /// # Errors
    ///
    /// Propagates the first generation failure; also fails on an empty
    /// or non-positive load list.
    pub fn generate_poisson(
        profile: &WorkerProfile,
        loads_qps: &[f64],
        config: &PolicyConfig,
    ) -> Result<Self, CoreError> {
        Self::generate_per_load(loads_qps, |qps| {
            generate_policy(profile, &PoissonProcess::per_second(qps), config)
        })
    }

    /// Generates one policy per load in `loads_qps` against the
    /// negative-binomial Lévy process with the given count dispersion
    /// (variance-to-mean ratio of the window counts, `> 1`) — the
    /// over-dispersed arrival model the drift detector fits bursty
    /// traffic to.
    ///
    /// # Errors
    ///
    /// Rejects an empty or non-positive load list and `dispersion <= 1`
    /// (use [`Self::generate_poisson`] at dispersion 1), and propagates
    /// the first generation failure.
    pub fn generate_negative_binomial(
        profile: &WorkerProfile,
        loads_qps: &[f64],
        dispersion: f64,
        config: &PolicyConfig,
    ) -> Result<Self, CoreError> {
        if loads_qps.is_empty() {
            return Err(CoreError::InvalidConfig("load list is empty".into()));
        }
        if !(dispersion > 1.0 && dispersion.is_finite()) {
            return Err(CoreError::InvalidConfig(format!(
                "negative-binomial dispersion must be finite and > 1, got {dispersion}"
            )));
        }
        Self::generate_per_load(loads_qps, |qps| {
            generate_policy(
                profile,
                &NegativeBinomialProcess::new(qps, dispersion),
                config,
            )
        })
    }

    /// Solves one policy per load on the solve pool (see `pool`), in
    /// parallel across loads. Each load is checked where it is solved,
    /// so the error returned is the one a sequential loop would stop
    /// at: the first invalid load or failed solve in list order.
    fn generate_per_load(
        loads_qps: &[f64],
        solve: impl Fn(f64) -> Result<WorkerPolicy, CoreError> + Sync,
    ) -> Result<Self, CoreError> {
        if loads_qps.is_empty() {
            return Err(CoreError::InvalidConfig("load list is empty".into()));
        }
        let policies = pool::solve_all(loads_qps, |&qps| {
            if !(qps > 0.0 && qps.is_finite()) {
                return Err(CoreError::InvalidConfig(format!(
                    "loads must be positive, got {qps}"
                )));
            }
            solve(qps)
        })?;
        Self::from_policies(policies)
    }

    /// Generates an adaptively refined Poisson policy set over
    /// `[min_qps, max_qps]`: starting from the endpoints, the largest-
    /// accuracy-gap adjacent pair is bisected until every gap is below
    /// `max_accuracy_gap` percentage points or `max_policies` have been
    /// generated (§6's 1% rule).
    ///
    /// # Errors
    ///
    /// Propagates generation failures and rejects inverted or
    /// non-positive ranges.
    pub fn generate_poisson_adaptive(
        profile: &WorkerProfile,
        min_qps: f64,
        max_qps: f64,
        config: &PolicyConfig,
        max_accuracy_gap: f64,
        max_policies: usize,
    ) -> Result<Self, CoreError> {
        if !(min_qps > 0.0 && max_qps > min_qps) {
            return Err(CoreError::InvalidConfig(format!(
                "need 0 < min < max, got [{min_qps}, {max_qps}]"
            )));
        }
        if max_policies < 2 {
            return Err(CoreError::InvalidConfig(
                "adaptive generation needs room for at least 2 policies".into(),
            ));
        }
        let gen = |qps: f64| -> Result<WorkerPolicy, CoreError> {
            generate_policy(profile, &PoissonProcess::per_second(qps), config)
        };
        let mut policies = vec![gen(min_qps)?, gen(max_qps)?];
        loop {
            if policies.len() >= max_policies {
                break;
            }
            // Find the adjacent pair with the largest accuracy gap.
            let mut worst: Option<(usize, f64)> = None;
            for i in 0..policies.len() - 1 {
                let gap = (policies[i].guarantees().expected_accuracy
                    - policies[i + 1].guarantees().expected_accuracy)
                    .abs();
                let span = policies[i + 1].design_load_qps - policies[i].design_load_qps;
                // Do not split ranges below 1 QPS — accuracy is flat
                // there and splitting cannot help.
                if span < 1.0 {
                    continue;
                }
                if gap > max_accuracy_gap && worst.is_none_or(|(_, g)| gap > g) {
                    worst = Some((i, gap));
                }
            }
            let Some((i, _)) = worst else {
                break;
            };
            let mid = 0.5 * (policies[i].design_load_qps + policies[i + 1].design_load_qps);
            let p = gen(mid)?;
            policies.insert(i + 1, p);
        }
        Ok(Self { policies })
    }

    /// Wraps pre-generated policies (sorted by design load).
    pub fn from_policies(mut policies: Vec<WorkerPolicy>) -> Result<Self, CoreError> {
        if policies.is_empty() {
            return Err(CoreError::InvalidConfig("policy set is empty".into()));
        }
        policies.sort_by(|a, b| {
            a.design_load_qps
                .partial_cmp(&b.design_load_qps)
                .expect("loads are finite")
        });
        Ok(Self { policies })
    }

    /// Number of policies in the set.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// The design loads, ascending.
    pub fn loads(&self) -> Vec<f64> {
        self.policies.iter().map(|p| p.design_load_qps).collect()
    }

    /// The policies, ascending by design load.
    pub fn policies(&self) -> &[WorkerPolicy] {
        &self.policies
    }

    /// Selects "the lowest-load MS policy that meets the anticipated
    /// query load" (§3.2.2); anticipated loads beyond every design load
    /// fall back to the highest-load policy (the paper would generate a
    /// new one — callers that can afford generation latency should check
    /// [`Self::covers`] and extend the set instead).
    pub fn select(&self, anticipated_qps: f64) -> &WorkerPolicy {
        self.policies
            .iter()
            .find(|p| p.design_load_qps >= anticipated_qps - 1e-9)
            .unwrap_or_else(|| self.policies.last().expect("set is never empty"))
    }

    /// Whether some policy's design load covers the anticipated load.
    pub fn covers(&self, anticipated_qps: f64) -> bool {
        self.policies
            .last()
            .expect("set is never empty")
            .design_load_qps
            >= anticipated_qps - 1e-9
    }

    /// Extends the set with a policy for a new load (e.g. after
    /// [`Self::covers`] returned false — §3.2.2's "a new one is
    /// generated").
    pub fn extend_poisson(
        &mut self,
        profile: &WorkerProfile,
        qps: f64,
        config: &PolicyConfig,
    ) -> Result<(), CoreError> {
        let p = generate_policy(profile, &PoissonProcess::per_second(qps), config)?;
        let at = self
            .policies
            .partition_point(|x| x.design_load_qps < p.design_load_qps);
        self.policies.insert(at, p);
        Ok(())
    }
}

/// Policy sets pre-solved for a range of live-worker counts, for
/// graceful degradation under worker crashes.
///
/// The MDP transitions (§4.4) depend on the worker count `K` behind the
/// round-robin balancer: with `K` workers each one sees every `K`-th
/// arrival. When a worker crashes, a policy solved for `K` workers
/// underestimates each survivor's share of the load, so its batching is
/// too optimistic. The degradable set pre-solves the *same* load grid
/// once per worker count in `[min_workers, workers]`; online, the
/// scheme switches to the set matching the current live count the
/// moment membership changes, with no solver in the critical path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradablePolicySet {
    /// `(worker count, set)`, ascending by worker count.
    sets: Vec<(usize, PolicySet)>,
}

impl DegradablePolicySet {
    /// Generates one [`PolicySet`] per worker count from
    /// `config.workers` down to `min_workers` (inclusive), all over the
    /// same `loads_qps` grid. `config.workers` is the nominal cluster
    /// size; each solve clones the config with its own count.
    ///
    /// # Errors
    ///
    /// Rejects `min_workers == 0` or `min_workers > config.workers`, and
    /// propagates the first generation failure.
    pub fn generate_poisson(
        profile: &WorkerProfile,
        loads_qps: &[f64],
        config: &PolicyConfig,
        min_workers: usize,
    ) -> Result<Self, CoreError> {
        if min_workers == 0 || min_workers > config.workers {
            return Err(CoreError::InvalidConfig(format!(
                "need 1 <= min_workers <= workers, got {min_workers} of {}",
                config.workers
            )));
        }
        let mut sets = Vec::with_capacity(config.workers - min_workers + 1);
        for k in min_workers..=config.workers {
            let mut cfg = config.clone();
            cfg.workers = k;
            sets.push((k, PolicySet::generate_poisson(profile, loads_qps, &cfg)?));
        }
        Ok(Self { sets })
    }

    /// The worker counts with a pre-solved set, ascending.
    pub fn worker_counts(&self) -> Vec<usize> {
        self.sets.iter().map(|&(k, _)| k).collect()
    }

    /// The set solved for the nominal (largest) cluster size.
    pub fn full(&self) -> &PolicySet {
        &self.sets.last().expect("never constructed empty").1
    }

    /// The set for `live` workers: the one solved for the largest
    /// worker count `<= live` (a set solved for fewer workers than are
    /// live is conservative — each worker assumes a larger share of the
    /// load than it gets). `None` when `live` is below the smallest
    /// pre-solved count — callers degrade to a fallback policy.
    pub fn for_workers(&self, live: usize) -> Option<&PolicySet> {
        self.sets
            .iter()
            .rev()
            .find(|&&(k, _)| k <= live)
            .map(|(_, set)| set)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
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

    fn quick_config() -> PolicyConfig {
        PolicyConfig::builder(Duration::from_millis(150))
            .workers(4)
            .discretization(Discretization::fixed_length(8))
            .build()
    }

    #[test]
    fn generate_and_select() {
        let set = PolicySet::generate_poisson(profile(), &[100.0, 400.0, 800.0], &quick_config())
            .unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.loads(), vec![100.0, 400.0, 800.0]);
        // Lowest design load >= anticipated.
        assert_eq!(set.select(50.0).design_load_qps, 100.0);
        assert_eq!(set.select(100.0).design_load_qps, 100.0);
        assert_eq!(set.select(150.0).design_load_qps, 400.0);
        assert_eq!(set.select(401.0).design_load_qps, 800.0);
        // Beyond coverage: highest-load fallback.
        assert_eq!(set.select(5_000.0).design_load_qps, 800.0);
        assert!(set.covers(800.0));
        assert!(!set.covers(900.0));
    }

    #[test]
    fn accuracy_decreases_with_design_load() {
        // All three loads are satisfiable by 4 workers (capacity is
        // ~270 QPS with the fastest model); monotonicity only holds in
        // the satisfiable regime.
        let set =
            PolicySet::generate_poisson(profile(), &[50.0, 150.0, 240.0], &quick_config()).unwrap();
        let accs: Vec<f64> = set
            .policies()
            .iter()
            .map(|p| p.guarantees().expected_accuracy)
            .collect();
        assert!(
            accs[0] >= accs[1] - 0.5 && accs[1] >= accs[2] - 0.5,
            "accuracies should be non-increasing in load: {accs:?}"
        );
    }

    #[test]
    fn adaptive_refinement_closes_gaps() {
        let set = PolicySet::generate_poisson_adaptive(
            profile(),
            50.0,
            1_200.0,
            &quick_config(),
            2.0, // a loose 2% threshold keeps the test fast
            12,
        )
        .unwrap();
        assert!(set.len() >= 2);
        if set.len() < 12 {
            // Converged: every adjacent gap is within the threshold.
            for w in set.policies().windows(2) {
                let gap = (w[0].guarantees().expected_accuracy
                    - w[1].guarantees().expected_accuracy)
                    .abs();
                assert!(gap <= 2.0 + 1e-9, "gap {gap}");
            }
        }
        // Sorted by load.
        for w in set.policies().windows(2) {
            assert!(w[0].design_load_qps < w[1].design_load_qps);
        }
    }

    #[test]
    fn extend_inserts_sorted() {
        let mut set =
            PolicySet::generate_poisson(profile(), &[100.0, 800.0], &quick_config()).unwrap();
        set.extend_poisson(profile(), 400.0, &quick_config())
            .unwrap();
        assert_eq!(set.loads(), vec![100.0, 400.0, 800.0]);
    }

    #[test]
    fn degradable_set_switches_on_membership() {
        let set = DegradablePolicySet::generate_poisson(
            profile(),
            &[100.0, 240.0],
            &quick_config(), // 4 workers
            2,
        )
        .unwrap();
        assert_eq!(set.worker_counts(), vec![2, 3, 4]);
        assert_eq!(set.full().len(), 2);
        // Exact and in-between live counts resolve to the largest
        // pre-solved count at or below them.
        assert!(set.for_workers(4).is_some());
        assert!(set.for_workers(3).is_some());
        assert!(set.for_workers(2).is_some());
        assert!(set.for_workers(9).is_some()); // more live than nominal: full set
        assert!(set.for_workers(1).is_none()); // below min: caller falls back
    }

    #[test]
    fn degradable_set_rejects_bad_ranges() {
        let cfg = quick_config();
        assert!(DegradablePolicySet::generate_poisson(profile(), &[100.0], &cfg, 0).is_err());
        assert!(DegradablePolicySet::generate_poisson(profile(), &[100.0], &cfg, 5).is_err());
    }

    /// `set` with every `generation_seconds` (a wall-clock reading)
    /// zeroed, so two solves compare on content alone.
    pub(crate) fn without_times(set: &PolicySet) -> PolicySet {
        let policies = set
            .policies()
            .iter()
            .map(|p| {
                let mut p = p.clone();
                p.generation_seconds = 0.0;
                p
            })
            .collect();
        PolicySet::from_policies(policies).unwrap()
    }

    #[test]
    fn pooled_generation_is_independent_of_the_thread_count() {
        let loads = [240.0, 50.0, 150.0, 800.0, 100.0];
        let solve = |threads| {
            pool::tests::with_threads(threads, || {
                PolicySet::generate_poisson(profile(), &loads, &quick_config()).unwrap()
            })
        };
        let one = without_times(&solve(1));
        assert_eq!(one, without_times(&solve(4)));
        assert_eq!(one.loads(), vec![50.0, 100.0, 150.0, 240.0, 800.0]);

        let bursty = |threads| {
            pool::tests::with_threads(threads, || {
                PolicySet::generate_negative_binomial(profile(), &loads[..3], 3.0, &quick_config())
                    .unwrap()
            })
        };
        assert_eq!(without_times(&bursty(1)), without_times(&bursty(4)));

        let degradable = |threads| {
            pool::tests::with_threads(threads, || {
                let set = DegradablePolicySet::generate_poisson(
                    profile(),
                    &loads[..3],
                    &quick_config(),
                    3,
                )
                .unwrap();
                set.worker_counts()
                    .into_iter()
                    .map(|k| without_times(set.for_workers(k).unwrap()))
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(degradable(1), degradable(4));
    }

    #[test]
    fn pooled_generation_reports_the_first_bad_load_in_list_order() {
        for threads in [1, 4] {
            let err = pool::tests::with_threads(threads, || {
                PolicySet::generate_poisson(profile(), &[100.0, -1.0, f64::NAN], &quick_config())
            })
            .unwrap_err();
            assert!(
                err.to_string().contains("got -1"),
                "{threads} threads reported {err}"
            );
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(PolicySet::generate_poisson(profile(), &[], &quick_config()).is_err());
        assert!(PolicySet::generate_poisson(profile(), &[-5.0], &quick_config()).is_err());
        assert!(PolicySet::generate_poisson_adaptive(
            profile(),
            100.0,
            50.0,
            &quick_config(),
            1.0,
            8
        )
        .is_err());
        assert!(PolicySet::from_policies(vec![]).is_err());
    }
}
