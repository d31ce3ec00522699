//! Worker-MDP transition probabilities for round-robin load balancing
//! (paper §4.4).
//!
//! Transition `(n, T_j) --(m, b)--> (n', T_{j'})` probabilities are
//! derived from the central-queue arrival distribution `PF(k, T)` and
//! the round-robin balancer: with `K` workers, a worker receives every
//! K-th central-queue arrival. The paper conditions on four
//! non-overlapping intervals (Fig. 4):
//!
//! - **A** (`T_A = SLO − T_j`): from the earliest queued query's arrival
//!   to the decision. The number of central arrivals `k_A` lies in
//!   `[(n−1)K, nK−1]` (exactly `n − 1` further worker deliveries), and
//!   the round-robin *phase* is `r = k_A mod K`.
//! - **B**: after the decision, before the next worker delivery window —
//!   zero worker arrivals.
//! - **C**: the window during which the first post-decision worker
//!   arrival must land for the next state's slack to fall in bin `j'`.
//! - **D**: the remainder of the service time `l_w(m, b)`, during which
//!   the other `n' − 1` worker arrivals accumulate.
//!
//! ## Implementation notes
//!
//! The quadruple sum of Eq. 2 is reorganized for tractability:
//!
//! 1. The `(r, k_B)` pair only matters through the *residual phase*
//!    `u = K − r − k_B` (central arrivals still needed for the next
//!    worker delivery at the start of interval C), giving weights
//!    `W(u) = Σ_r w(r) · PF(K − r − u, T_B)`.
//! 2. The interval-D mass depends on `(n', v)` only through
//!    `v = k_C − u`, so `H(v) = Σ_u W(u) · PF(u + v, T_C)` is shared by
//!    every `n'`, reducing the per-`(state, action, j')` cost to
//!    `O(c² + N_w · c)` where `c` is the truncated support of the
//!    interval-C count distribution.
//! 3. Slack bins partition the service interval: bin `j'`'s first-arrival
//!    window is `[max(0, L + T_{j'} − SLO), L + T_{j'+1} − SLO]` clamped
//!    to `[0, L]`, with bin 0's window extended to start at 0 so
//!    arrivals whose deadline is already blown (negative slack) land in
//!    the exhausted-slack bin rather than leaking probability mass.
//!    (This realizes the paper's "we set T_B = 0" clamping rule.)
//! 4. Count tables are memoized per interval length ([`TableCache`]);
//!    the Full-state mass is the complement (Eq. 3).
//!
//! Variable batching (`b < n`, §4.3.2) is not derived in the paper
//! ("follows similar reasoning"); we model it as: the earliest remaining
//! query's slack is `T_j − l_w(m, b)` (conservative: the `b+1`-th
//! deadline can only be later), and worker arrivals during the service
//! time follow the same phase-conditioned counting.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ramsis_profiles::WorkerProfile;
use ramsis_stats::counts::{ArrivalProcess, CountTable};

use crate::action::Action;
use crate::discretize::TimeGrid;
use crate::state::{State, StateSpace};

/// Memoized truncated count tables of one arrival process, keyed by
/// interval length.
///
/// The cache owns its process, so every table it returns belongs to
/// that process. It keeps two maps with different lifetimes:
///
/// - [`Self::table`]: tables reused across a whole solve — the
///   interval-A lengths `SLO − T_j` and the service latencies `l`.
/// - [`Self::window_table`]: tables for the intervals B, C and D of a
///   full-batch row, whose lengths derive from `l_w(m, n)`. States are
///   stored `n`-major and a full batch serves `b = n`, so those tables
///   are reused only while one queue length's rows are built; the map
///   is dropped whenever `n` changes, which bounds the cache's memory
///   by one queue length's windows instead of the whole solve's.
///
/// Dropping a table never changes a row: a rebuilt table is
/// bit-identical to the one it replaces.
pub struct TableCache<P> {
    process: P,
    tail_eps: f64,
    tables: RefCell<Tables>,
    /// The queue length the window tables belong to, and the tables.
    windows: RefCell<(Option<u32>, Tables)>,
}

/// Tables by the bit pattern of their interval length.
type Tables = HashMap<u64, Rc<CountTable>>;

impl<P: ArrivalProcess> TableCache<P> {
    /// Creates a cache of `process`'s tables with the given truncation
    /// tolerance.
    pub fn new(process: P, tail_eps: f64) -> Self {
        Self {
            process,
            tail_eps,
            tables: RefCell::new(HashMap::new()),
            windows: RefCell::new((None, HashMap::new())),
        }
    }

    /// The arrival process the tables are built from.
    pub fn process(&self) -> &P {
        &self.process
    }

    /// Returns (building if necessary) the solve-wide table for interval
    /// length `t`.
    ///
    /// The cache key is the exact bit pattern of `t`: the §4.4 interval
    /// lengths must tile the service interval *exactly* or transition
    /// rows drift off 1 (quantizing keys to nanoseconds was measurably
    /// wrong — ~1e-6 of row mass over a 160-window grid). Recurring
    /// interval values are bit-identical because they are derived from
    /// the same grid and latency floats, so the cache still deduplicates.
    pub fn table(&self, t: f64) -> Rc<CountTable> {
        self.lookup(&mut self.tables.borrow_mut(), t)
    }

    /// Returns (building if necessary) the table for interval length
    /// `t` of a full-batch row at queue length `n`, first dropping every
    /// window table of a different queue length. Keyed as
    /// [`Self::table`].
    pub fn window_table(&self, n: u32, t: f64) -> Rc<CountTable> {
        let mut windows = self.windows.borrow_mut();
        let (scope, tables) = &mut *windows;
        if *scope != Some(n) {
            *scope = Some(n);
            tables.clear();
        }
        self.lookup(tables, t)
    }

    fn lookup(&self, tables: &mut Tables, t: f64) -> Rc<CountTable> {
        debug_assert!(t >= 0.0, "interval must be non-negative, got {t}");
        Rc::clone(
            tables
                .entry(t.to_bits())
                .or_insert_with(|| Rc::new(self.process.table(t, self.tail_eps))),
        )
    }

    /// Number of tables held now: the solve-wide ones plus the current
    /// queue length's windows.
    pub fn len(&self) -> usize {
        self.tables.borrow().len() + self.windows.borrow().1.len()
    }

    /// Whether no table is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Builds transition rows of a worker MDP under round-robin balancing.
pub struct TransitionBuilder<'a> {
    profile: &'a WorkerProfile,
    grid: &'a TimeGrid,
    space: &'a StateSpace,
    cache: TableCache<&'a dyn ArrivalProcess>,
    /// Number of workers `K` behind the balancer.
    workers: usize,
    slo: f64,
    prune_eps: f64,
}

impl<'a> TransitionBuilder<'a> {
    /// Creates a builder.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    // The eight parameters are the §4.4 problem inputs; bundling them
    // into a struct would only rename the call site.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        profile: &'a WorkerProfile,
        grid: &'a TimeGrid,
        space: &'a StateSpace,
        process: &'a dyn ArrivalProcess,
        workers: usize,
        slo: f64,
        tail_eps: f64,
        prune_eps: f64,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
        Self {
            profile,
            grid,
            space,
            cache: TableCache::new(process, tail_eps),
            workers,
            slo,
            prune_eps,
        }
    }

    /// The memoized table cache (exposed for diagnostics and benches).
    pub fn cache(&self) -> &TableCache<&'a dyn ArrivalProcess> {
        &self.cache
    }

    /// Round-robin phase weights `w(r) = PF((n−1)K + r, T_A)`,
    /// normalized over `r ∈ [0, K)` (the denominator of Eq. 2).
    ///
    /// Degenerate states whose interval-A constraint has (numerically)
    /// zero probability fall back to phase 0 — they are unreachable
    /// under the arrival process, but the MDP still needs well-formed
    /// rows for them.
    fn phase_weights(&self, n: u32, slack: usize) -> Vec<f64> {
        let k = self.workers;
        let t_a = (self.slo - self.grid.value(slack)).max(0.0);
        let table = self.cache.table(t_a);
        let base = (n as u64 - 1) * k as u64;
        let mut w: Vec<f64> = (0..k).map(|r| table.pmf(base + r as u64)).collect();
        let total: f64 = w.iter().sum();
        if total > 0.0 {
            for x in &mut w {
                *x /= total;
            }
        } else {
            w.iter_mut().for_each(|x| *x = 0.0);
            w[0] = 1.0;
        }
        w
    }

    /// Service latency of an action, extrapolating beyond the profiled
    /// batch range for forced overflow service.
    fn service_latency(&self, model: u32, batch: u32) -> f64 {
        self.profile.latency_extrapolated(model as usize, batch)
    }

    /// The transition row for `(state, action)`: `(target index,
    /// probability)` pairs summing to 1 (up to table truncation, which
    /// the MDP builder renormalizes).
    ///
    /// # Panics
    ///
    /// Panics on contradictory inputs (arrival action in a non-empty
    /// state, serve action in the empty state, or `batch > n`).
    pub fn row(&self, state: State, action: Action) -> Vec<(usize, f64)> {
        match (state, action) {
            (State::Empty, Action::Arrival) => {
                // Case 1 (§4.4.1): the next arrival has full slack.
                let next = State::Queued {
                    n: 1,
                    slack: self.grid.top() as u32,
                };
                vec![(self.space.index(next), 1.0)]
            }
            (State::Empty, a) => panic!("serve action {a:?} invalid in the empty state"),
            (_, Action::Arrival) => panic!("arrival action invalid in a non-empty state"),
            (_, Action::Shed) => {
                // Shedding takes no service time: zero arrivals occur
                // before the next decision epoch, so the queue empties
                // deterministically ("changes to the transition
                // probabilities", §4.3.1).
                vec![(self.space.index(State::Empty), 1.0)]
            }
            (s, Action::Serve { model, batch }) => {
                let (n, slack) = self
                    .space
                    .effective_queue(s)
                    .expect("non-empty state has a queue");
                assert!(
                    batch >= 1 && batch <= n,
                    "batch {batch} out of range for n={n}"
                );
                if batch == n {
                    self.row_full_batch(n, slack as usize, model)
                } else {
                    self.row_partial_batch(n, slack as usize, model, batch)
                }
            }
        }
    }

    /// Case 2/3 (§4.4.2–4.4.3) with `b = n` (maximal batching or a
    /// variable-batching full batch).
    ///
    /// The W(u), H(v) and per-`n'` loops read the count tables' stored
    /// windows as slices and visit only terms inside them. Every term
    /// they skip is exactly `0.0` (a count outside a window has zero
    /// pmf, and a range mass outside D's window is `total − total` or
    /// `0 − 0`), every accumulator is non-negative, and each one still
    /// adds its terms in ascending index order, so a row is bit-identical
    /// to the term-by-term sum of Eq. 2.
    fn row_full_batch(&self, n: u32, slack: usize, model: u32) -> Vec<(usize, f64)> {
        let k = self.workers;
        let l = self.service_latency(model, n);
        let w = self.phase_weights(n, slack);
        let table_l = self.cache.table(l);
        let mut row = Vec::new();
        let mut accounted = 0.0;

        // n' = 0: no worker arrival during the whole service interval —
        // fewer than K − r central arrivals.
        let mut p_empty = 0.0;
        for (r, &wr) in w.iter().enumerate() {
            if wr == 0.0 {
                continue;
            }
            let budget = (k - r - 1) as u64;
            p_empty += wr * table_l.cdf(budget);
        }
        if p_empty > self.prune_eps {
            row.push((self.space.index(State::Empty), p_empty));
        }
        accounted += p_empty;

        // n' >= 1 targets, organized per slack bin j'.
        let nw = self.space.max_queue();
        for j_next in 0..self.grid.top() {
            // First-arrival window for bin j' (see module notes, item 3).
            let raw_lo = l + self.grid.value(j_next) - self.slo;
            let lo_edge = if j_next == 0 { 0.0 } else { raw_lo.max(0.0) };
            let hi_edge = (l + self.grid.upper_edge(j_next) - self.slo).clamp(0.0, l);
            if hi_edge <= lo_edge + 1e-15 {
                continue;
            }
            let t_b = lo_edge;
            let t_c = hi_edge - lo_edge;
            let t_d = l - hi_edge;
            let table_b = self.cache.window_table(n, t_b);
            let table_c = self.cache.window_table(n, t_c);
            let table_d = self.cache.window_table(n, t_d);
            let (b_lo, pmf_b, _) = table_b.window();
            let (c_lo, pmf_c, _) = table_c.window();
            let (d_lo, _, cum_d) = table_d.window();
            let b_hi = table_b.max_count();
            let c_hi = table_c.max_count();

            // W(u): weight of needing exactly u more central arrivals
            // for the next worker delivery at the start of interval C.
            // k_B = K − r − u must lie in B's window [b_lo, b_hi], so
            // u ∈ [K − r − b_hi, K − r − b_lo] ∩ [1, u_cap]; k_B falls
            // as u rises, so B's pmf is read backwards.
            let u_cap = (c_hi + 1).min(k as u64);
            let mut big_w = vec![0.0f64; u_cap as usize + 1];
            for (r, &wr) in w.iter().enumerate() {
                if wr == 0.0 {
                    continue;
                }
                let top = (k - r) as u64;
                if top <= b_lo {
                    continue;
                }
                let u_lo = top.saturating_sub(b_hi).max(1);
                let u_hi = (top - b_lo).min(u_cap);
                if u_lo > u_hi {
                    continue;
                }
                let pb = &pmf_b[(top - u_hi - b_lo) as usize..=(top - u_lo - b_lo) as usize];
                for (wu, &p) in big_w[u_lo as usize..=u_hi as usize]
                    .iter_mut()
                    .zip(pb.iter().rev())
                {
                    *wu += wr * p;
                }
            }

            // H(v) = Σ_u W(u) · PF_C(u + v), as one contiguous
            // multiply-add per u over C's pmf: k_C = u + v runs over
            // [max(c_lo, u), c_hi].
            let mut h = vec![0.0f64; c_hi as usize + 1];
            for (u, &wu) in big_w.iter().enumerate().skip(1) {
                if wu == 0.0 {
                    continue;
                }
                let kc_lo = c_lo.max(u as u64);
                if kc_lo > c_hi {
                    continue;
                }
                let pc = &pmf_c[(kc_lo - c_lo) as usize..];
                for (hv, &p) in h[kc_lo as usize - u..].iter_mut().zip(pc) {
                    *hv += wu * p;
                }
            }

            // Per n': fold H against the interval-D mass on
            // [(n'−1)K − v, n'K − 1 − v], read from D's cumulative
            // sums. v only ranges where that mass can be non-zero: the
            // range's top reaches D's window (v ≤ n'K − 1 − d_lo) and
            // its bottom has not passed it (v ≥ (n'−1)K − d_hi).
            let d_last = cum_d.len() - 1;
            let d_hi = d_lo + d_last as u64;
            let cdf_d = |x: u64| -> f64 {
                if x < d_lo {
                    0.0
                } else {
                    cum_d[((x - d_lo) as usize).min(d_last)]
                }
            };
            for n_next in 1..=nw {
                let mut p = 0.0;
                let lo_base = u64::from(n_next - 1) * k as u64;
                let hi_base = u64::from(n_next) * k as u64 - 1;
                if hi_base >= d_lo {
                    let v_lo = lo_base.saturating_sub(d_hi) as usize;
                    let v_hi = ((hi_base - d_lo) as usize).min(h.len() - 1);
                    if v_lo <= v_hi {
                        for (v, &hv) in h[v_lo..=v_hi].iter().enumerate() {
                            let v = (v_lo + v) as u64;
                            let lo = lo_base.saturating_sub(v);
                            let upper = cdf_d(hi_base - v);
                            let lower = if lo == 0 { 0.0 } else { cdf_d(lo - 1) };
                            p += hv * (upper - lower).max(0.0);
                        }
                    }
                }
                accounted += p;
                if p > self.prune_eps {
                    let target = State::Queued {
                        n: n_next,
                        slack: j_next as u32,
                    };
                    row.push((self.space.index(target), p));
                }
            }
        }

        // Case 3 (§4.4.3): overflow beyond N_w is the complement.
        let p_full = (1.0 - accounted).max(0.0);
        if p_full > self.prune_eps {
            row.push((self.space.index(State::Full), p_full));
        }
        if row.is_empty() {
            // Pathological pruning (should not happen): park in Full.
            row.push((self.space.index(State::Full), 1.0));
        }
        row
    }

    /// Variable batching with `b < n`: `n − b` queries remain queued;
    /// the earliest remaining slack is `T_j − l_w(m, b)` (conservative),
    /// and `wA` new arrivals accumulate during the service time.
    fn row_partial_batch(&self, n: u32, slack: usize, model: u32, batch: u32) -> Vec<(usize, f64)> {
        let k = self.workers;
        let l = self.service_latency(model, batch);
        let w = self.phase_weights(n, slack);
        let table_l = self.cache.table(l);
        let leftover = n - batch;
        let j_next = self.grid.floor_index(self.grid.value(slack) - l) as u32;
        let nw = self.space.max_queue();

        let mut row = Vec::new();
        let mut accounted = 0.0;
        // Worker arrival counts wA = 0, 1, ... until the queue overflows.
        let max_wa = nw - leftover;
        for wa in 0..=max_wa {
            let mut p = 0.0;
            for (r, &wr) in w.iter().enumerate() {
                if wr == 0.0 {
                    continue;
                }
                let lo = (wa as i64 * k as i64 - r as i64).max(0) as u64;
                let hi = ((wa as i64 + 1) * k as i64 - 1 - r as i64).max(-1);
                if hi < 0 {
                    continue;
                }
                p += wr * table_l.mass_in(lo, hi as u64);
            }
            accounted += p;
            if p > self.prune_eps {
                let target = State::Queued {
                    n: leftover + wa,
                    slack: j_next,
                };
                row.push((self.space.index(target), p));
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
    use ramsis_stats::PoissonProcess;
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

    struct Fixture {
        grid: TimeGrid,
        space: StateSpace,
        process: PoissonProcess,
        workers: usize,
    }

    impl Fixture {
        fn new(qps: f64, workers: usize, d: u32) -> Self {
            let grid = TimeGrid::build(profile(), SLO, Discretization::fixed_length(d));
            let nw = profile().max_batch() + 3;
            let space = StateSpace::new(nw, grid.len() as u32);
            Self {
                grid,
                space,
                process: PoissonProcess::per_second(qps),
                workers,
            }
        }

        fn builder(&self) -> TransitionBuilder<'_> {
            TransitionBuilder::new(
                profile(),
                &self.grid,
                &self.space,
                &self.process,
                self.workers,
                SLO,
                1e-12,
                0.0,
            )
        }
    }

    fn row_sum(row: &[(usize, f64)]) -> f64 {
        row.iter().map(|&(_, p)| p).sum()
    }

    #[test]
    fn arrival_action_is_deterministic() {
        let f = Fixture::new(100.0, 4, 20);
        let b = f.builder();
        let row = b.row(State::Empty, Action::Arrival);
        assert_eq!(row.len(), 1);
        let (target, p) = row[0];
        assert_eq!(p, 1.0);
        assert_eq!(
            f.space.state(target),
            State::Queued {
                n: 1,
                slack: f.grid.top() as u32
            }
        );
    }

    #[test]
    fn rows_sum_to_one() {
        let f = Fixture::new(400.0, 4, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        for n in [1u32, 2, 5, f.space.max_queue()] {
            for slack in [0usize, 5, 10, f.grid.top()] {
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
                let s = row_sum(&row);
                assert!(
                    (s - 1.0).abs() < 1e-6,
                    "n={n} slack={slack}: row sums to {s}"
                );
            }
        }
    }

    #[test]
    fn rows_sum_to_one_for_slow_models() {
        let f = Fixture::new(800.0, 8, 20);
        let b = f.builder();
        // The most accurate Pareto model has a long latency.
        let slow = *profile().pareto_models().last().unwrap() as u32;
        let row = b.row(
            State::Queued {
                n: 1,
                slack: f.grid.top() as u32,
            },
            Action::Serve {
                model: slow,
                batch: 1,
            },
        );
        assert!((row_sum(&row) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn low_load_reaches_empty_often() {
        // 10 QPS over 4 workers: 2.5 QPS per worker; the fastest model
        // serves a single query in ~25 ms, so the queue almost always
        // drains.
        let f = Fixture::new(10.0, 4, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let row = b.row(
            State::Queued {
                n: 1,
                slack: f.grid.top() as u32,
            },
            Action::Serve {
                model: fast,
                batch: 1,
            },
        );
        let p_empty: f64 = row
            .iter()
            .filter(|&&(t, _)| f.space.state(t) == State::Empty)
            .map(|&(_, p)| p)
            .sum();
        assert!(p_empty > 0.95, "p_empty={p_empty}");
    }

    #[test]
    fn high_load_reaches_full() {
        // 50,000 QPS over 2 workers is far beyond capacity: serving all
        // 32 queued queries takes long enough that the queue refills
        // past N_w with near certainty.
        let f = Fixture::new(50_000.0, 2, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let nw = f.space.max_queue();
        let row = b.row(
            State::Queued { n: nw, slack: 0 },
            Action::Serve {
                model: fast,
                batch: nw,
            },
        );
        let p_full: f64 = row
            .iter()
            .filter(|&&(t, _)| f.space.state(t) == State::Full)
            .map(|&(_, p)| p)
            .sum();
        assert!(p_full > 0.99, "p_full={p_full}");
    }

    #[test]
    fn full_state_behaves_like_saturated_queue() {
        let f = Fixture::new(1_000.0, 4, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let nw = f.space.max_queue();
        let from_full = b.row(
            State::Full,
            Action::Serve {
                model: fast,
                batch: nw,
            },
        );
        let from_saturated = b.row(
            State::Queued { n: nw, slack: 0 },
            Action::Serve {
                model: fast,
                batch: nw,
            },
        );
        assert_eq!(from_full, from_saturated);
    }

    #[test]
    fn next_state_count_concentrates_near_mean() {
        // 800 QPS over 10 workers = 80 QPS per worker; serving n = 4 on
        // the fastest model takes ~70 ms, so ~5.6 arrivals are expected
        // at the worker during service — well below N_w, so truncation
        // does not bite.
        let f = Fixture::new(800.0, 10, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let l = profile().latency(fast as usize, 4).unwrap();
        let mean_arrivals = 800.0 / 10.0 * l;
        let row = b.row(
            State::Queued {
                n: 4,
                slack: f.grid.top() as u32,
            },
            Action::Serve {
                model: fast,
                batch: 4,
            },
        );
        let mut expect_n = 0.0;
        for &(t, p) in &row {
            if let State::Queued { n, .. } = f.space.state(t) {
                expect_n += n as f64 * p;
            }
        }
        assert!(
            (expect_n - mean_arrivals).abs() < 1.5,
            "E[n'] = {expect_n}, mean arrivals = {mean_arrivals}"
        );
    }

    #[test]
    fn fresh_query_phase_is_deterministic() {
        // State (1, SLO): the query just arrived, so T_A = 0 and the
        // round-robin phase is exactly 0; the first next worker arrival
        // needs a full K more central-queue arrivals.
        let f = Fixture::new(1_000.0, 4, 20);
        let b = f.builder();
        let w = b.phase_weights(1, f.grid.top());
        assert!((w[0] - 1.0).abs() < 1e-12);
        for &x in &w[1..] {
            assert_eq!(x, 0.0);
        }
    }

    #[test]
    fn partial_batch_keeps_leftover() {
        let f = Fixture::new(200.0, 4, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let row = b.row(
            State::Queued {
                n: 6,
                slack: f.grid.top() as u32,
            },
            Action::Serve {
                model: fast,
                batch: 2,
            },
        );
        assert!((row_sum(&row) - 1.0).abs() < 1e-6);
        // Every reachable next state keeps at least the 4 leftovers.
        for &(t, p) in &row {
            match f.space.state(t) {
                State::Queued { n, slack } => {
                    assert!(n >= 4, "n'={n} lost leftover queries (p={p})");
                    // Leftover slack: SLO − l(fast, 2), floored.
                    let l = profile().latency(fast as usize, 2).unwrap();
                    let expect = f.grid.floor_index(SLO - l) as u32;
                    assert_eq!(slack, expect);
                }
                State::Full => {}
                State::Empty => panic!("partial batch cannot empty the queue"),
            }
        }
    }

    #[test]
    fn single_worker_degenerates_to_plain_counting() {
        // K = 1: the worker sees every central arrival; P(n' = j) must
        // equal the plain Poisson pmf of j arrivals over the service
        // time (no phase uncertainty).
        let f = Fixture::new(300.0, 1, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let l = profile().latency(fast as usize, 1).unwrap();
        let row = b.row(
            State::Queued {
                n: 1,
                slack: f.grid.top() as u32,
            },
            Action::Serve {
                model: fast,
                batch: 1,
            },
        );
        let table = f.process.table(l, 1e-12);
        // Aggregate row mass per n'.
        let mut by_n = std::collections::HashMap::new();
        for &(t, p) in &row {
            let key = match f.space.state(t) {
                State::Empty => 0u32,
                State::Queued { n, .. } => n,
                State::Full => u32::MAX,
            };
            *by_n.entry(key).or_insert(0.0) += p;
        }
        for j in 0..5u32 {
            let expect = table.pmf(j as u64);
            let got = by_n.get(&j).copied().unwrap_or(0.0);
            assert!(
                (got - expect).abs() < 1e-7,
                "n'={j}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn slack_distribution_shifts_with_latency() {
        // Serving with a slower model leaves later first-arrivals less
        // slack at the next epoch: expected next-slack must be smaller.
        let f = Fixture::new(2_000.0, 10, 50);
        let b = f.builder();
        let pareto = profile().pareto_models();
        let fast = pareto[0] as u32;
        let slower = pareto[3] as u32;
        let expected_slack = |model: u32| {
            let row = b.row(
                State::Queued {
                    n: 1,
                    slack: f.grid.top() as u32,
                },
                Action::Serve { model, batch: 1 },
            );
            let mut num = 0.0;
            let mut den = 0.0;
            for &(t, p) in &row {
                if let State::Queued { slack, .. } = f.space.state(t) {
                    num += f.grid.value(slack as usize) * p;
                    den += p;
                }
            }
            num / den
        };
        let s_fast = expected_slack(fast);
        let s_slow = expected_slack(slower);
        assert!(
            s_fast > s_slow,
            "fast model should leave more slack: {s_fast} vs {s_slow}"
        );
    }

    #[test]
    fn table_cache_deduplicates() {
        let f = Fixture::new(500.0, 4, 10);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let _ = b.row(
            State::Queued { n: 1, slack: 5 },
            Action::Serve {
                model: fast,
                batch: 1,
            },
        );
        let count_once = b.cache().len();
        let _ = b.row(
            State::Queued { n: 1, slack: 5 },
            Action::Serve {
                model: fast,
                batch: 1,
            },
        );
        assert_eq!(
            b.cache().len(),
            count_once,
            "repeat rows must hit the cache"
        );
        assert!(!b.cache().is_empty());
    }

    #[test]
    fn table_cache_drops_windows_when_the_queue_length_changes() {
        let cache = TableCache::new(PoissonProcess::per_second(500.0), 1e-12);
        let kept = cache.window_table(1, 0.01);
        let _ = cache.window_table(1, 0.02);
        let _ = cache.table(0.05);
        assert_eq!(cache.len(), 3);
        // A new queue length drops both n = 1 windows, never the
        // solve-wide table.
        let _ = cache.window_table(2, 0.01);
        assert_eq!(cache.len(), 2);
        // A rebuilt window equals the dropped one.
        let rebuilt = cache.window_table(1, 0.01);
        assert_eq!(*rebuilt, *kept);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.process().rate(), 500.0);
    }

    #[test]
    fn window_tables_are_scoped_to_one_queue_length() {
        let f = Fixture::new(2_000.0, 10, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let serve = |n: u32| {
            b.row(
                State::Queued {
                    n,
                    slack: f.grid.top() as u32,
                },
                Action::Serve {
                    model: fast,
                    batch: n,
                },
            )
        };
        let first = serve(4);
        let held_at_4 = b.cache().len();
        let _ = serve(9);
        let held_at_9 = b.cache().len();
        // Back at n = 4 the windows are rebuilt from scratch: the cache
        // holds what it held the first time plus n = 9's solve-wide
        // service-latency table, and the row is identical to the bit.
        let again = serve(4);
        assert_eq!(b.cache().len(), held_at_4 + 1);
        assert!(held_at_9 > 1);
        let bits = |row: &[(usize, f64)]| -> Vec<(usize, u64)> {
            row.iter().map(|&(t, p)| (t, p.to_bits())).collect()
        };
        assert_eq!(bits(&first), bits(&again));
    }

    #[test]
    fn sliced_kernel_matches_term_by_term_eq2() {
        // A direct, unoptimized evaluation of Eq. 2 through the table
        // accessors, in the same summation order as the kernel: the
        // kernel's rows must equal it to the bit.
        for (qps, workers, d) in [(300.0, 4, 20), (2_500.0, 12, 25), (40.0, 1, 10)] {
            let f = Fixture::new(qps, workers, d);
            let b = f.builder();
            for &model in profile().pareto_models().iter().take(3) {
                for n in [1u32, 3, 7] {
                    for slack in [0usize, f.grid.top() / 2, f.grid.top()] {
                        let row = b.row(
                            State::Queued {
                                n,
                                slack: slack as u32,
                            },
                            Action::Serve {
                                model: model as u32,
                                batch: n,
                            },
                        );
                        let naive = naive_full_batch(&f, n, slack, model as u32);
                        assert_eq!(row.len(), naive.len(), "qps={qps} n={n} slack={slack}");
                        for (&(t, p), &(nt, np)) in row.iter().zip(&naive) {
                            assert_eq!(t, nt);
                            assert_eq!(p.to_bits(), np.to_bits(), "qps={qps} n={n} slack={slack}");
                        }
                    }
                }
            }
        }
    }

    /// Eq. 2 term by term through the table accessors, with every
    /// accumulator in the kernel's summation order: the reference the
    /// sliced kernel is checked against.
    fn naive_full_batch(f: &Fixture, n: u32, slack: usize, model: u32) -> Vec<(usize, f64)> {
        let process: &dyn ArrivalProcess = &f.process;
        let table = |t: f64| process.table(t, 1e-12);
        let k = f.workers;
        let l = profile().latency_extrapolated(model as usize, n);
        let w = f.builder().phase_weights(n, slack);
        let table_l = table(l);
        let mut row = Vec::new();
        let mut accounted = 0.0;
        let mut p_empty = 0.0;
        for (r, &wr) in w.iter().enumerate() {
            if wr != 0.0 {
                p_empty += wr * table_l.cdf((k - r - 1) as u64);
            }
        }
        if p_empty > 0.0 {
            row.push((f.space.index(State::Empty), p_empty));
        }
        accounted += p_empty;
        for j_next in 0..f.grid.top() {
            let raw_lo = l + f.grid.value(j_next) - SLO;
            let lo_edge = if j_next == 0 { 0.0 } else { raw_lo.max(0.0) };
            let hi_edge = (l + f.grid.upper_edge(j_next) - SLO).clamp(0.0, l);
            if hi_edge <= lo_edge + 1e-15 {
                continue;
            }
            let (tb, tc, td) = (table(lo_edge), table(hi_edge - lo_edge), table(l - hi_edge));
            let c_hi = tc.max_count();
            let u_cap = (c_hi + 1).min(k as u64) as usize;
            let mut big_w = vec![0.0f64; u_cap + 1];
            for (r, &wr) in w.iter().enumerate() {
                if wr == 0.0 {
                    continue;
                }
                let terms = (k - r).min(u_cap);
                for (u, bw) in big_w.iter_mut().enumerate().skip(1).take(terms) {
                    let pb = tb.pmf((k - r - u) as u64);
                    if pb > 0.0 {
                        *bw += wr * pb;
                    }
                }
            }
            let mut h = vec![0.0f64; c_hi as usize + 1];
            for (u, &wu) in big_w.iter().enumerate().skip(1) {
                let terms = (c_hi as usize).saturating_sub(u) + 1;
                for (v, hv) in h.iter_mut().enumerate().take(terms) {
                    let pc = tc.pmf((u + v) as u64);
                    if wu != 0.0 && pc > 0.0 {
                        *hv += wu * pc;
                    }
                }
            }
            for n_next in 1..=f.space.max_queue() {
                let mut p = 0.0;
                for (v, &hv) in h.iter().enumerate() {
                    let lo = ((n_next as i64 - 1) * k as i64 - v as i64).max(0);
                    let hi = n_next as i64 * k as i64 - 1 - v as i64;
                    if hv != 0.0 && hi >= 0 {
                        p += hv * td.mass_in(lo as u64, hi as u64);
                    }
                }
                accounted += p;
                if p > 0.0 {
                    let target = State::Queued {
                        n: n_next,
                        slack: j_next as u32,
                    };
                    row.push((f.space.index(target), p));
                }
            }
        }
        let p_full = (1.0 - accounted).max(0.0);
        if p_full > 0.0 {
            row.push((f.space.index(State::Full), p_full));
        }
        row
    }

    #[test]
    fn shed_action_empties_the_queue() {
        let f = Fixture::new(500.0, 4, 10);
        let b = f.builder();
        let row = b.row(State::Queued { n: 5, slack: 0 }, Action::Shed);
        assert_eq!(row, vec![(f.space.index(State::Empty), 1.0)]);
        // From the overflow state too.
        let row = b.row(State::Full, Action::Shed);
        assert_eq!(row, vec![(f.space.index(State::Empty), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "invalid in the empty state")]
    fn serve_in_empty_state_panics() {
        let f = Fixture::new(100.0, 2, 10);
        let b = f.builder();
        let _ = b.row(State::Empty, Action::Serve { model: 0, batch: 1 });
    }

    #[test]
    #[should_panic(expected = "arrival action invalid")]
    fn arrival_in_queued_state_panics() {
        let f = Fixture::new(100.0, 2, 10);
        let b = f.builder();
        let _ = b.row(State::Queued { n: 1, slack: 0 }, Action::Arrival);
    }
}
