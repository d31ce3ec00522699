//! Shortest-queue-first transition probabilities (paper appendix §I).
//!
//! Only the transition probabilities depend on the load-balancing
//! strategy; everything else in RAMSIS is unchanged (§I). Under
//! shortest-queue-first (join-the-shortest-queue), worker `w`'s arrival
//! process is approximated by a *conditional Poisson* process whose rate
//! depends on the worker's own queue length `n` (Gupta et al. \[18\]):
//!
//! ```text
//! λ_w(n) = (λ / (K·μ))^K · μ     for n ≥ 3
//! λ_w(n) = λ / K                 for 0 ≤ n ≤ 2
//! ```
//!
//! where `μ` is the worker's service *rate* (the paper writes "mean
//! inference latency"; dimensional analysis and the cited JSQ analysis
//! both require the rate `1/latency`, which is what we use — the
//! conservatively chosen latency is that of the slowest Pareto model
//! that can still sustain the per-worker load within half the SLO, per
//! §I's definition of `μ`).
//!
//! Equation 4 then factors the transition probability over the same
//! intervals B, C, D as the round-robin case, but with *worker-level*
//! counts: `k_B^w = 0`, the first arrival in C (`k_C^w ≥ 1` when
//! `n' ≥ 1` — we tighten the appendix's `k_C^w ∈ [0, n']`, which would
//! let the slack-defining arrival land in D), and `k_D^w = n' − k_C^w`.

use ramsis_profiles::WorkerProfile;
use ramsis_stats::counts::{ArrivalProcess, PoissonProcess};

use crate::action::Action;
use crate::discretize::TimeGrid;
use crate::state::{State, StateSpace};
use crate::transitions::TableCache;

/// Computes the JSQ conditional arrival rate pair `(λ_low, λ_high)` for
/// queue lengths `n ≤ 2` and `n ≥ 3` respectively.
///
/// `central_rate` is `λ`, the central-queue rate.
pub fn jsq_rates(
    profile: &WorkerProfile,
    slo: f64,
    central_rate: f64,
    workers: usize,
) -> (f64, f64) {
    let k = workers as f64;
    let per_worker = central_rate / k;
    // μ's latency: the slowest Pareto model that still meets the load
    // within SLO/2 at some batch size (§I). Fall back to the fastest
    // model when none qualifies (overload).
    let mut mu_latency: Option<f64> = None;
    for &m in profile.pareto_models() {
        let l1 = profile.latency(m, 1).expect("batch 1 is always profiled");
        let sustainable = (1..=profile.max_batch()).any(|b| {
            profile
                .latency(m, b)
                .is_some_and(|l| l <= slo / 2.0 && b as f64 / l >= per_worker)
        });
        if sustainable {
            mu_latency = Some(mu_latency.map_or(l1, |cur: f64| cur.max(l1)));
        }
    }
    let mu_latency = mu_latency.unwrap_or_else(|| {
        profile
            .latency(profile.fastest_model(), 1)
            .expect("batch 1 is always profiled")
    });
    let mu_rate = 1.0 / mu_latency;
    let rho = central_rate / (k * mu_rate);
    let high = rho.powf(k) * mu_rate;
    (per_worker, high.min(per_worker))
}

/// Builds transition rows under shortest-queue-first balancing.
pub struct SqfTransitionBuilder<'a> {
    profile: &'a WorkerProfile,
    grid: &'a TimeGrid,
    space: &'a StateSpace,
    /// Tables of the arrival process for short queues (`n ≤ 2`).
    low: TableCache<PoissonProcess>,
    /// Tables of the arrival process for long queues (`n ≥ 3`).
    high: TableCache<PoissonProcess>,
    slo: f64,
    prune_eps: f64,
}

impl<'a> SqfTransitionBuilder<'a> {
    /// Creates a builder for a central-queue rate and worker count.
    // The eight parameters are the §I problem inputs, mirroring the
    // round-robin builder.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        profile: &'a WorkerProfile,
        grid: &'a TimeGrid,
        space: &'a StateSpace,
        central_rate: f64,
        workers: usize,
        slo: f64,
        tail_eps: f64,
        prune_eps: f64,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
        let (low, high) = jsq_rates(profile, slo, central_rate, workers);
        Self {
            profile,
            grid,
            space,
            low: TableCache::new(PoissonProcess::per_second(low), tail_eps),
            high: TableCache::new(PoissonProcess::per_second(high), tail_eps),
            slo,
            prune_eps,
        }
    }

    /// The conditional arrival rate used for queue length `n`.
    pub fn rate_for(&self, n: u32) -> f64 {
        self.tables_for(n).process().rate()
    }

    /// The table cache of queue length `n`'s arrival process.
    fn tables_for(&self, n: u32) -> &TableCache<PoissonProcess> {
        if n <= 2 {
            &self.low
        } else {
            &self.high
        }
    }

    /// The transition row for `(state, action)` under SQF (Eq. 4).
    ///
    /// # Panics
    ///
    /// Panics on contradictory inputs (see
    /// [`crate::transitions::TransitionBuilder::row`]).
    pub fn row(&self, state: State, action: Action) -> Vec<(usize, f64)> {
        match (state, action) {
            (State::Empty, Action::Arrival) => {
                let next = State::Queued {
                    n: 1,
                    slack: self.grid.top() as u32,
                };
                vec![(self.space.index(next), 1.0)]
            }
            (State::Empty, a) => panic!("serve action {a:?} invalid in the empty state"),
            (_, Action::Arrival) => panic!("arrival action invalid in a non-empty state"),
            (_, Action::Shed) => vec![(self.space.index(State::Empty), 1.0)],
            (s, Action::Serve { model, batch }) => {
                let (n, slack) = self
                    .space
                    .effective_queue(s)
                    .expect("non-empty state has a queue");
                assert!(
                    batch >= 1 && batch <= n,
                    "batch {batch} out of range for n={n}"
                );
                self.row_serve(n, slack as usize, model, batch)
            }
        }
    }

    fn row_serve(&self, n: u32, slack: usize, model: u32, batch: u32) -> Vec<(usize, f64)> {
        let cache = self.tables_for(n);
        let l = self.profile.latency_extrapolated(model as usize, batch);
        let table_l = cache.table(l);
        let nw = self.space.max_queue();
        let leftover = n - batch;
        let mut row = Vec::new();
        let mut accounted = 0.0;

        if leftover > 0 {
            // Partial batch: deterministic leftover slack, Poisson
            // arrival counts at the worker.
            let j_next = self.grid.floor_index(self.grid.value(slack) - l) as u32;
            for wa in 0..=(nw - leftover) {
                let p = table_l.pmf(wa as u64);
                accounted += p;
                if p > self.prune_eps {
                    row.push((
                        self.space.index(State::Queued {
                            n: leftover + wa,
                            slack: j_next,
                        }),
                        p,
                    ));
                }
            }
        } else {
            // Full batch. n' = 0: no arrivals during service.
            let p_empty = table_l.pmf(0);
            accounted += p_empty;
            if p_empty > self.prune_eps {
                row.push((self.space.index(State::Empty), p_empty));
            }
            // n' ≥ 1 per slack bin, Eq. 4 with k_B^w = 0, k_C^w ≥ 1.
            for j_next in 0..self.grid.top() {
                let raw_lo = l + self.grid.value(j_next) - self.slo;
                let lo_edge = if j_next == 0 { 0.0 } else { raw_lo.max(0.0) };
                let hi_edge = (l + self.grid.upper_edge(j_next) - self.slo).clamp(0.0, l);
                if hi_edge <= lo_edge + 1e-15 {
                    continue;
                }
                let table_b = cache.window_table(n, lo_edge);
                let table_c = cache.window_table(n, hi_edge - lo_edge);
                let table_d = cache.window_table(n, l - hi_edge);
                let pb0 = table_b.pmf(0);
                if pb0 == 0.0 {
                    continue;
                }
                for n_next in 1..=nw {
                    let mut p = 0.0;
                    for kc in 1..=n_next {
                        p += table_c.pmf(kc as u64) * table_d.pmf((n_next - kc) as u64);
                    }
                    p *= pb0;
                    accounted += p;
                    if p > self.prune_eps {
                        row.push((
                            self.space.index(State::Queued {
                                n: n_next,
                                slack: j_next as u32,
                            }),
                            p,
                        ));
                    }
                }
            }
        }

        let p_full = (1.0 - accounted).max(0.0);
        if p_full > self.prune_eps {
            row.push((self.space.index(State::Full), p_full));
        }
        if row.is_empty() {
            row.push((self.space.index(State::Full), 1.0));
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretize::Discretization;
    use ramsis_profiles::{ModelCatalog, ProfilerConfig};
    use std::time::Duration;

    const SLO: f64 = 0.15;

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

    fn fixture(qps: f64, workers: usize) -> (TimeGrid, StateSpace, f64, usize) {
        let grid = TimeGrid::build(profile(), SLO, Discretization::fixed_length(20));
        let nw = profile().max_batch() + 3;
        let space = StateSpace::new(nw, grid.len() as u32);
        (grid, space, qps, workers)
    }

    #[test]
    fn jsq_rates_are_sane() {
        let (low, high) = jsq_rates(profile(), SLO, 400.0, 10);
        assert!((low - 40.0).abs() < 1e-9);
        // A long queue under JSQ receives less traffic than round-robin
        // would deliver.
        assert!(high <= low);
        assert!(high >= 0.0);
    }

    #[test]
    fn jsq_high_rate_shrinks_with_more_workers() {
        let (_, high_few) = jsq_rates(profile(), SLO, 400.0, 4);
        let (_, high_many) = jsq_rates(profile(), SLO, 400.0, 40);
        // With more workers, the chance that *this* worker is the
        // shortest while already holding 3+ queries vanishes.
        assert!(high_many <= high_few);
    }

    #[test]
    fn rows_sum_to_one() {
        let (grid, space, qps, workers) = fixture(800.0, 8);
        let b = SqfTransitionBuilder::new(profile(), &grid, &space, qps, workers, SLO, 1e-12, 0.0);
        let fast = profile().fastest_model() as u32;
        for n in [1u32, 2, 3, space.max_queue()] {
            for slack in [0usize, grid.top() / 2, grid.top()] {
                let row = b.row(
                    State::Queued {
                        n,
                        slack: slack as u32,
                    },
                    Action::Serve {
                        model: fast,
                        batch: n,
                    },
                );
                let s: f64 = row.iter().map(|&(_, p)| p).sum();
                assert!((s - 1.0).abs() < 1e-6, "n={n} slack={slack}: sum={s}");
            }
        }
    }

    #[test]
    fn long_queue_uses_reduced_rate() {
        let (grid, space, qps, workers) = fixture(2_000.0, 20);
        let b = SqfTransitionBuilder::new(profile(), &grid, &space, qps, workers, SLO, 1e-12, 0.0);
        assert!(b.rate_for(1) >= b.rate_for(3));
        assert_eq!(b.rate_for(0), b.rate_for(2));
        assert_eq!(b.rate_for(3), b.rate_for(30));
    }

    #[test]
    fn empty_probability_higher_under_sqf_for_long_queues() {
        // A worker with a long queue receives almost nothing under JSQ,
        // so serving it all should empty the queue with high probability
        // compared to round-robin at the same nominal load.
        // 600 QPS over 30 workers (20 QPS each) is sustainable within
        // SLO/2, so the JSQ approximation strongly throttles arrivals to
        // a worker already holding 5 queries.
        let (grid, space, qps, workers) = fixture(600.0, 30);
        let b = SqfTransitionBuilder::new(profile(), &grid, &space, qps, workers, SLO, 1e-12, 0.0);
        let fast = profile().fastest_model() as u32;
        let row = b.row(
            State::Queued {
                n: 5,
                slack: grid.top() as u32,
            },
            Action::Serve {
                model: fast,
                batch: 5,
            },
        );
        let p_empty: f64 = row
            .iter()
            .filter(|&&(t, _)| space.state(t) == State::Empty)
            .map(|&(_, p)| p)
            .sum();
        assert!(p_empty > 0.5, "p_empty={p_empty}");
    }

    #[test]
    fn shed_action_empties_the_queue() {
        let (grid, space, qps, workers) = fixture(500.0, 4);
        let b = SqfTransitionBuilder::new(profile(), &grid, &space, qps, workers, SLO, 1e-12, 0.0);
        let row = b.row(State::Queued { n: 5, slack: 0 }, Action::Shed);
        assert_eq!(row, vec![(space.index(State::Empty), 1.0)]);
    }

    #[test]
    fn arrival_action_matches_round_robin() {
        let (grid, space, qps, workers) = fixture(500.0, 4);
        let b = SqfTransitionBuilder::new(profile(), &grid, &space, qps, workers, SLO, 1e-12, 0.0);
        let row = b.row(State::Empty, Action::Arrival);
        assert_eq!(row.len(), 1);
        assert_eq!(row[0].1, 1.0);
    }
}
