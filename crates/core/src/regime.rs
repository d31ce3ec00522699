//! Regime-keyed policy libraries and the load-shedding configuration of
//! the adaptive runtime.
//!
//! The drift detector (`ramsis_workload::drift`) classifies observed
//! traffic into regimes — (rate bin, dispersion class) over a
//! [`RegimeGrid`]. The [`PolicyLibrary`] holds one pre-solved
//! [`PolicySet`] per regime the operator chose to pay for offline:
//! Poisson regimes solve against [`ramsis_stats::PoissonProcess`] at the
//! bin's design rate (its upper edge, so the policy covers every load in
//! the bin), bursty regimes against
//! [`ramsis_stats::NegativeBinomialProcess`] at a configured count
//! dispersion. Regimes left out of the library can be solved lazily
//! online ([`PolicyLibrary::solve`]) under a budget the serving scheme
//! enforces; the out-of-grid bin has no design rate and is never
//! solvable — schemes degrade to their [`crate::FallbackPolicy`] there.

use serde::{Deserialize, Serialize};

use ramsis_profiles::WorkerProfile;
use ramsis_workload::drift::{DispersionClass, RegimeGrid, RegimeKey};

use crate::config::PolicyConfig;
use crate::error::CoreError;
use crate::policy_set::PolicySet;
use crate::pool;

/// Deadline-aware admission control: when may the scheme shed a query
/// instead of serving it late?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Never shed — every query is served, however late (the paper's
    /// default serve-everything semantics).
    #[default]
    Never,
    /// Shed queries that are already *hopeless*: their remaining slack
    /// is below the fastest Pareto model's batch-1 latency, so no
    /// serving decision can meet the SLO. Shedding them stops a burst
    /// from poisoning the tail of subsequent traffic.
    Hopeless,
    /// [`Self::Hopeless`], plus cap the visible queue at `n` queries by
    /// shedding the overflow (oldest first — they carry the earliest,
    /// most-endangered deadlines).
    QueueDepth(u32),
}

/// A library of pre-solved policy sets, one per traffic regime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyLibrary {
    grid: RegimeGrid,
    /// Count dispersion bursty regimes are solved against.
    bursty_dispersion: f64,
    /// `(regime, set)`, sorted by regime key.
    entries: Vec<(RegimeKey, PolicySet)>,
}

impl PolicyLibrary {
    /// The default count dispersion bursty regimes solve against.
    pub const DEFAULT_BURSTY_DISPERSION: f64 = 4.0;

    /// Creates an empty library over `grid`; populate it with
    /// [`Self::solve`] or pre-solve via [`Self::generate`].
    ///
    /// # Errors
    ///
    /// Rejects `bursty_dispersion <= 1` (the negative binomial requires
    /// over-dispersion).
    pub fn empty(grid: RegimeGrid, bursty_dispersion: f64) -> Result<Self, CoreError> {
        if !(bursty_dispersion > 1.0 && bursty_dispersion.is_finite()) {
            return Err(CoreError::InvalidConfig(format!(
                "bursty dispersion must be finite and > 1, got {bursty_dispersion}"
            )));
        }
        Ok(Self {
            grid,
            bursty_dispersion,
            entries: Vec::new(),
        })
    }

    /// Pre-solves the given regimes (deduplicated). Use
    /// `grid.all_keys()` for full coverage, or a subset to leave rare
    /// regimes to lazy solving.
    ///
    /// # Errors
    ///
    /// Rejects out-of-grid regimes and a degenerate dispersion, and
    /// propagates the first generation failure.
    pub fn generate(
        profile: &WorkerProfile,
        grid: RegimeGrid,
        bursty_dispersion: f64,
        config: &PolicyConfig,
        regimes: &[RegimeKey],
    ) -> Result<Self, CoreError> {
        let mut library = Self::empty(grid, bursty_dispersion)?;
        let mut keys: Vec<RegimeKey> = Vec::with_capacity(regimes.len());
        for &key in regimes {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        // One set per key on the solve pool; each key's set has a single
        // load, so it solves inline on its pool thread.
        let sets = pool::solve_all(&keys, |&key| library.solve_set(profile, config, key))?;
        library.entries = keys.into_iter().zip(sets).collect();
        library.entries.sort_by_key(|&(key, _)| key);
        Ok(library)
    }

    /// Pre-solves every in-grid Poisson regime (the common case: bursty
    /// regimes are rarer and can be solved lazily on first detection).
    ///
    /// # Errors
    ///
    /// As [`Self::generate`].
    pub fn generate_poisson_bins(
        profile: &WorkerProfile,
        grid: RegimeGrid,
        bursty_dispersion: f64,
        config: &PolicyConfig,
    ) -> Result<Self, CoreError> {
        let keys: Vec<RegimeKey> = (0..grid.n_bins())
            .map(|bin| RegimeKey::new(bin, DispersionClass::Poisson))
            .collect();
        Self::generate(profile, grid, bursty_dispersion, config, &keys)
    }

    /// The grid the library is keyed over.
    pub fn grid(&self) -> &RegimeGrid {
        &self.grid
    }

    /// The count dispersion bursty regimes solve against.
    pub fn bursty_dispersion(&self) -> f64 {
        self.bursty_dispersion
    }

    /// Number of solved regimes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no regime has been solved yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The solved regimes, sorted.
    pub fn regimes(&self) -> Vec<RegimeKey> {
        self.entries.iter().map(|&(k, _)| k).collect()
    }

    /// Whether `key`'s regime has a solved set.
    pub fn contains(&self, key: RegimeKey) -> bool {
        self.entries.binary_search_by(|(k, _)| k.cmp(&key)).is_ok()
    }

    /// The policy set for `key`'s regime, if solved.
    pub fn get(&self, key: RegimeKey) -> Option<&PolicySet> {
        self.entries
            .binary_search_by(|(k, _)| k.cmp(&key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Solves the policy set for an in-grid regime and inserts it:
    /// Poisson or negative binomial (at the library's dispersion) at the
    /// bin's design rate. No-op if already solved.
    ///
    /// # Errors
    ///
    /// Rejects the out-of-grid bin (it has no design rate — that is
    /// what fallback policies are for) and propagates generation
    /// failures.
    pub fn solve(
        &mut self,
        profile: &WorkerProfile,
        config: &PolicyConfig,
        key: RegimeKey,
    ) -> Result<(), CoreError> {
        if self.contains(key) {
            return Ok(());
        }
        let set = self.solve_set(profile, config, key)?;
        let at = self.entries.partition_point(|&(k, _)| k < key);
        self.entries.insert(at, (key, set));
        Ok(())
    }

    /// The policy set for an in-grid regime, solved without touching the
    /// library (see [`Self::solve`]).
    fn solve_set(
        &self,
        profile: &WorkerProfile,
        config: &PolicyConfig,
        key: RegimeKey,
    ) -> Result<PolicySet, CoreError> {
        let Some(design) = self.grid.design_rate_qps(key.rate_bin) else {
            return Err(CoreError::InvalidConfig(format!(
                "regime bin {} is outside the {}-bin grid",
                key.rate_bin,
                self.grid.n_bins()
            )));
        };
        match key.dispersion {
            DispersionClass::Poisson => PolicySet::generate_poisson(profile, &[design], config),
            DispersionClass::Bursty => PolicySet::generate_negative_binomial(
                profile,
                &[design],
                self.bursty_dispersion,
                config,
            ),
        }
    }
}

/// A [`PolicyLibrary`] per live-worker count, for elastic pools.
///
/// Autoscaling changes the worker count `K` behind the balancer, and the
/// MDP transitions depend on `K` (each worker sees every `K`-th
/// arrival). A policy solved for the nominal pool is too optimistic the
/// moment the pool shrinks, and wastefully conservative when it grows.
/// The elastic library keys solved sets on `(live_workers, regime)`:
/// each worker count gets its own [`PolicyLibrary`] over the shared
/// [`RegimeGrid`], solved lazily as the autoscaler first visits that
/// pool size, so membership changes switch policies without a solver in
/// the critical path after the first visit.
///
/// Lookups degrade safely: [`Self::get_conservative`] falls back to the
/// largest solved pool *at most* the live count — a set solved for
/// fewer workers assumes each worker carries a larger share of the
/// load, so serving with it is conservative, never optimistic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticPolicyLibrary {
    grid: RegimeGrid,
    /// Count dispersion bursty regimes are solved against.
    bursty_dispersion: f64,
    /// `(worker count, library)`, ascending by worker count.
    pools: Vec<(usize, PolicyLibrary)>,
}

impl ElasticPolicyLibrary {
    /// Creates an empty elastic library over `grid`; populate it with
    /// [`Self::solve`].
    ///
    /// # Errors
    ///
    /// Rejects `bursty_dispersion <= 1` (as [`PolicyLibrary::empty`]).
    pub fn empty(grid: RegimeGrid, bursty_dispersion: f64) -> Result<Self, CoreError> {
        // Validate the dispersion once, up front, with the same rule
        // every per-pool library will apply.
        PolicyLibrary::empty(grid.clone(), bursty_dispersion)?;
        Ok(Self {
            grid,
            bursty_dispersion,
            pools: Vec::new(),
        })
    }

    /// The grid the library is keyed over.
    pub fn grid(&self) -> &RegimeGrid {
        &self.grid
    }

    /// The worker counts with at least one solved regime, ascending.
    pub fn worker_counts(&self) -> Vec<usize> {
        self.pools.iter().map(|&(k, _)| k).collect()
    }

    /// Total number of solved `(workers, regime)` entries.
    pub fn len(&self) -> usize {
        self.pools.iter().map(|(_, lib)| lib.len()).sum()
    }

    /// Whether no entry has been solved yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `(workers, key)` has a solved set.
    pub fn contains(&self, workers: usize, key: RegimeKey) -> bool {
        self.get(workers, key).is_some()
    }

    /// The policy set solved for exactly `(workers, key)`, if any.
    pub fn get(&self, workers: usize, key: RegimeKey) -> Option<&PolicySet> {
        self.pools
            .binary_search_by(|&(k, _)| k.cmp(&workers))
            .ok()
            .and_then(|i| self.pools[i].1.get(key))
    }

    /// The policy set for `key` solved at the largest worker count
    /// `<= live` — the safe direction when the exact pool size has not
    /// been solved yet (the set assumes each worker carries at least
    /// its real share of the load). Returns the solved count alongside
    /// the set; `None` when nothing at or below `live` is solved.
    pub fn get_conservative(&self, live: usize, key: RegimeKey) -> Option<(usize, &PolicySet)> {
        self.pools
            .iter()
            .rev()
            .filter(|&&(k, _)| k <= live)
            .find_map(|&(k, ref lib)| lib.get(key).map(|set| (k, set)))
    }

    /// Solves the set for `(workers, key)` and inserts it, overriding
    /// `config.workers` with the requested pool size. No-op if already
    /// solved.
    ///
    /// # Errors
    ///
    /// Rejects `workers == 0`, the out-of-grid bin, and propagates
    /// generation failures.
    pub fn solve(
        &mut self,
        profile: &WorkerProfile,
        config: &PolicyConfig,
        workers: usize,
        key: RegimeKey,
    ) -> Result<(), CoreError> {
        if workers == 0 {
            return Err(CoreError::InvalidConfig(
                "cannot solve a policy for an empty pool".into(),
            ));
        }
        let at = match self.pools.binary_search_by(|&(k, _)| k.cmp(&workers)) {
            Ok(i) => i,
            Err(i) => {
                let lib = PolicyLibrary::empty(self.grid.clone(), self.bursty_dispersion)?;
                self.pools.insert(i, (workers, lib));
                i
            }
        };
        let mut cfg = config.clone();
        cfg.workers = workers;
        self.pools[at].1.solve(profile, &cfg, key)
    }
}

#[cfg(test)]
mod tests {
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

    fn grid() -> RegimeGrid {
        RegimeGrid::new(vec![120.0, 280.0])
    }

    #[test]
    fn poisson_bins_cover_the_grid() {
        let lib =
            PolicyLibrary::generate_poisson_bins(profile(), grid(), 4.0, &quick_config()).unwrap();
        assert_eq!(lib.len(), 2);
        for bin in 0..2 {
            let key = RegimeKey::new(bin, DispersionClass::Poisson);
            assert!(lib.contains(key));
            let set = lib.get(key).unwrap();
            assert_eq!(set.loads(), vec![lib.grid().design_rate_qps(bin).unwrap()]);
        }
        assert!(!lib.contains(RegimeKey::new(0, DispersionClass::Bursty)));
    }

    #[test]
    fn pooled_library_is_independent_of_the_thread_count() {
        use crate::policy_set::tests::without_times;
        let keys = [
            RegimeKey::new(1, DispersionClass::Bursty),
            RegimeKey::new(0, DispersionClass::Poisson),
            RegimeKey::new(1, DispersionClass::Poisson),
            RegimeKey::new(0, DispersionClass::Poisson),
        ];
        let solve = |threads| {
            crate::pool::tests::with_threads(threads, || {
                let mut lib =
                    PolicyLibrary::generate(profile(), grid(), 4.0, &quick_config(), &keys)
                        .unwrap();
                for (_, set) in &mut lib.entries {
                    *set = without_times(set);
                }
                lib
            })
        };
        let one = solve(1);
        assert_eq!(one.len(), 3, "duplicate keys solve once");
        assert_eq!(one, solve(4));
        // The sequential, one-key-at-a-time path agrees.
        let mut lazy = PolicyLibrary::empty(grid(), 4.0).unwrap();
        for key in keys {
            lazy.solve(profile(), &quick_config(), key).unwrap();
        }
        for (_, set) in &mut lazy.entries {
            *set = without_times(set);
        }
        assert_eq!(lazy, one);
    }

    #[test]
    fn pooled_library_reports_the_first_bad_key_in_list_order() {
        let keys = [
            RegimeKey::new(0, DispersionClass::Poisson),
            RegimeKey::new(5, DispersionClass::Poisson),
            RegimeKey::new(9, DispersionClass::Bursty),
        ];
        for threads in [1, 4] {
            let err = crate::pool::tests::with_threads(threads, || {
                PolicyLibrary::generate(profile(), grid(), 4.0, &quick_config(), &keys)
            })
            .unwrap_err();
            assert!(
                err.to_string().contains("bin 5"),
                "{threads} threads: {err}"
            );
        }
    }

    #[test]
    fn lazy_solve_adds_bursty_regimes() {
        let mut lib = PolicyLibrary::empty(grid(), 4.0).unwrap();
        assert!(lib.is_empty());
        let key = RegimeKey::new(1, DispersionClass::Bursty);
        lib.solve(profile(), &quick_config(), key).unwrap();
        assert_eq!(lib.regimes(), vec![key]);
        // Solving again is a no-op.
        lib.solve(profile(), &quick_config(), key).unwrap();
        assert_eq!(lib.len(), 1);
        // The bursty set is solved against the NB process at the bin's
        // design rate.
        assert_eq!(lib.get(key).unwrap().loads(), vec![280.0]);
    }

    #[test]
    fn bursty_policies_are_more_conservative() {
        // At the same design load, over-dispersed arrivals mean a
        // higher expected violation rate (the solver anticipates
        // bursts) — the guarantee must not improve with burstiness.
        let cfg = quick_config();
        let poisson = PolicySet::generate_poisson(profile(), &[240.0], &cfg).unwrap();
        let bursty = PolicySet::generate_negative_binomial(profile(), &[240.0], 4.0, &cfg).unwrap();
        let gp = poisson.policies()[0].guarantees();
        let gb = bursty.policies()[0].guarantees();
        assert!(
            gb.expected_violation_rate >= gp.expected_violation_rate - 1e-9,
            "bursty {} vs poisson {}",
            gb.expected_violation_rate,
            gp.expected_violation_rate
        );
    }

    #[test]
    fn out_of_grid_solve_is_rejected() {
        let mut lib = PolicyLibrary::empty(grid(), 4.0).unwrap();
        let err = lib.solve(
            profile(),
            &quick_config(),
            RegimeKey::new(2, DispersionClass::Poisson),
        );
        assert!(err.is_err());
        assert!(lib.is_empty());
    }

    #[test]
    fn rejects_bad_dispersion() {
        assert!(PolicyLibrary::empty(grid(), 1.0).is_err());
        assert!(PolicyLibrary::empty(grid(), f64::NAN).is_err());
        assert!(
            PolicySet::generate_negative_binomial(profile(), &[100.0], 0.5, &quick_config())
                .is_err()
        );
    }

    #[test]
    fn shed_policy_round_trips_serde() {
        for shed in [
            ShedPolicy::Never,
            ShedPolicy::Hopeless,
            ShedPolicy::QueueDepth(32),
        ] {
            let json = serde_json::to_string(&shed).unwrap();
            assert_eq!(serde_json::from_str::<ShedPolicy>(&json).unwrap(), shed);
        }
        assert_eq!(ShedPolicy::default(), ShedPolicy::Never);
    }

    #[test]
    fn elastic_library_keys_on_workers_and_regime() {
        let mut lib = ElasticPolicyLibrary::empty(grid(), 4.0).unwrap();
        assert!(lib.is_empty());
        let key = RegimeKey::new(0, DispersionClass::Poisson);
        lib.solve(profile(), &quick_config(), 2, key).unwrap();
        lib.solve(profile(), &quick_config(), 4, key).unwrap();
        // Re-solving an existing entry is a no-op.
        lib.solve(profile(), &quick_config(), 4, key).unwrap();
        assert_eq!(lib.len(), 2);
        assert_eq!(lib.worker_counts(), vec![2, 4]);
        assert!(lib.contains(2, key));
        assert!(!lib.contains(3, key));
        // Exact lookup misses unsolved pool sizes; the conservative
        // lookup degrades to the largest solved count at most `live`.
        assert!(lib.get(3, key).is_none());
        let (k, _) = lib.get_conservative(3, key).unwrap();
        assert_eq!(k, 2);
        let (k, _) = lib.get_conservative(9, key).unwrap();
        assert_eq!(k, 4);
        assert!(lib.get_conservative(1, key).is_none());
        // Sets are genuinely solved per worker count: the pool size in
        // the policy's config differs.
        let two = lib.get(2, key).unwrap().policies()[0].clone();
        let four = lib.get(4, key).unwrap().policies()[0].clone();
        assert_ne!(two, four);
    }

    #[test]
    fn elastic_library_rejects_bad_shapes() {
        assert!(ElasticPolicyLibrary::empty(grid(), 1.0).is_err());
        let mut lib = ElasticPolicyLibrary::empty(grid(), 4.0).unwrap();
        let key = RegimeKey::new(0, DispersionClass::Poisson);
        assert!(lib.solve(profile(), &quick_config(), 0, key).is_err());
        assert!(lib
            .solve(
                profile(),
                &quick_config(),
                2,
                RegimeKey::new(9, DispersionClass::Poisson)
            )
            .is_err());
        assert!(lib.is_empty());
    }

    #[test]
    fn elastic_library_round_trips_serde() {
        let mut lib = ElasticPolicyLibrary::empty(grid(), 4.0).unwrap();
        lib.solve(
            profile(),
            &quick_config(),
            2,
            RegimeKey::new(0, DispersionClass::Poisson),
        )
        .unwrap();
        let json = serde_json::to_string(&lib).unwrap();
        let back: ElasticPolicyLibrary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, lib);
    }

    #[test]
    fn library_round_trips_serde() {
        let lib = PolicyLibrary::generate(
            profile(),
            grid(),
            4.0,
            &quick_config(),
            &[RegimeKey::new(0, DispersionClass::Poisson)],
        )
        .unwrap();
        let json = serde_json::to_string(&lib).unwrap();
        let back: PolicyLibrary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, lib);
    }
}
