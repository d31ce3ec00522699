//! Numerical substrate for the RAMSIS workspace.
//!
//! The RAMSIS MDP (paper §4.4) is built from an arrival-count distribution
//! `PF(k, T)` — the probability that `k` queries arrive at the central
//! queue during an interval of length `T`. Evaluating transition
//! probabilities requires `PF` at large counts (thousands of arrivals per
//! interval at 4,000 QPS), so every distribution here is computed in the
//! log domain via [`special::ln_gamma`] and exposed through truncated
//! [`counts::CountTable`]s with cumulative sums.
//!
//! The crate also provides the sampling primitives used by the workload
//! generator and simulator (exponential, gamma, truncated normal) and the
//! summary statistics (percentiles, Welford accumulators, windowed moving
//! averages) used by the metrics pipeline and the 500 ms load monitor.
//!
//! Everything is `std`-only, deterministic given a seeded RNG, and free of
//! `unsafe`.

pub mod counts;
pub mod sampling;
pub mod special;
pub mod streaming;
pub mod summary;

pub use counts::{ArrivalProcess, CountTable, NegativeBinomialProcess, PoissonProcess};
pub use sampling::{sample_exponential, sample_gamma, sample_truncated_normal};
pub use streaming::LogHistogram;
pub use summary::{MovingAverage, OnlineStats, Percentiles};
