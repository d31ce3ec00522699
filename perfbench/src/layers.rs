//! Timing from outside the program: wrappers around the public traits
//! the engine calls per query, and spans around whole calls into a
//! layer. Nothing here changes what the wrapped value does; a wrapped
//! run is byte-identical to an unwrapped one (see the tests).

use std::io::{self, Write};
use std::time::Instant;

use ramsis_sim::scheme::SelectionContext;
use ramsis_sim::{AdaptiveStats, Selection, ServingScheme};
use ramsis_telemetry::{DecisionRecord, DecisionSink, Event, ShedCause, TelemetrySink};
use ramsis_workload::LoadEstimator;

/// Count, total and a log-bucketed histogram of call durations.
///
/// Buckets hold 16 linear steps per power of two of nanoseconds, so a
/// quantile is read to within 1/16 of its value.
#[derive(Debug, Clone)]
pub struct CallStats {
    pub calls: u64,
    pub total_ns: u64,
    buckets: Vec<u64>,
}

const SUB_BUCKETS: u64 = 16;

impl Default for CallStats {
    fn default() -> Self {
        Self {
            calls: 0,
            total_ns: 0,
            buckets: vec![0; 64 * SUB_BUCKETS as usize],
        }
    }
}

impl CallStats {
    fn bucket(ns: u64) -> usize {
        if ns < SUB_BUCKETS {
            return ns as usize;
        }
        let msb = 63 - u64::from(ns.leading_zeros());
        let step = msb - 4;
        ((step + 1) * SUB_BUCKETS + ((ns >> step) & (SUB_BUCKETS - 1))) as usize
    }

    fn bucket_floor(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB_BUCKETS {
            return idx;
        }
        let step = idx / SUB_BUCKETS - 1;
        (SUB_BUCKETS + idx % SUB_BUCKETS) << step
    }

    pub fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns += ns;
        self.buckets[Self::bucket(ns)] += 1;
    }

    /// Times `f` and books its duration.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(t0.elapsed().as_nanos() as u64);
        out
    }

    pub fn merge(&mut self, other: &CallStats) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// The call time at quantile `q`, in microseconds (0 with no calls).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        let rank = ((q * self.calls as f64).ceil() as u64).clamp(1, self.calls);
        let mut seen = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_floor(idx) as f64 * 1e-3;
            }
        }
        unreachable!("rank is at most the number of calls")
    }
}

/// One timed interval: name, start and end (ns since the tracer's
/// origin) and the index of the span that contains it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans kept in memory and printed when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].seconds()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Total seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// One JSON line per span.
    pub fn dump(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            )?;
        }
        Ok(())
    }
}

/// A [`ServingScheme`] whose `select` and `on_arrival` calls are timed.
/// An `on_arrival` call during which the scheme's lazy-solve count rose
/// is kept as an interval (ns since `origin`) for its own span.
pub struct TimedScheme<'a> {
    inner: &'a mut dyn ServingScheme,
    origin: Instant,
    pub select: CallStats,
    pub on_arrival: CallStats,
    pub lazy_spans: Vec<(u64, u64)>,
    regime: Option<String>,
    lazy_solves: u64,
}

impl<'a> TimedScheme<'a> {
    pub fn new(inner: &'a mut dyn ServingScheme, origin: Instant) -> Self {
        let regime = inner.regime().map(str::to_owned);
        let lazy_solves = inner.adaptive_stats().map_or(0, |s| s.lazy_solves);
        Self {
            inner,
            origin,
            select: CallStats::default(),
            on_arrival: CallStats::default(),
            lazy_spans: Vec::new(),
            regime,
            lazy_solves,
        }
    }
}

impl ServingScheme for TimedScheme<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn routing(&self) -> ramsis_sim::Routing {
        self.inner.routing()
    }

    fn select(&mut self, ctx: &SelectionContext) -> Selection {
        let inner = &mut self.inner;
        self.select.time(|| inner.select(ctx))
    }

    fn on_membership_change(&mut self, live_workers: usize) {
        self.inner.on_membership_change(live_workers);
    }

    fn on_arrival(&mut self, now_s: f64) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.inner.on_arrival(now_s);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.on_arrival.add(end_ns - start_ns);
        // A lazy solve only happens on a regime swap, and every swap
        // changes the active regime's label: only then is the (cloning)
        // stats call worth making.
        if self.inner.regime() != self.regime.as_deref() {
            self.regime = self.inner.regime().map(str::to_owned);
            let solves = self.inner.adaptive_stats().map_or(0, |s| s.lazy_solves);
            if solves > self.lazy_solves {
                self.lazy_solves = solves;
                self.lazy_spans.push((start_ns, end_ns));
            }
        }
    }

    fn regime(&self) -> Option<&str> {
        self.inner.regime()
    }

    fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        self.inner.adaptive_stats()
    }

    fn set_audit(&mut self, enabled: bool) {
        self.inner.set_audit(enabled);
    }

    fn drain_audit(&mut self, out: &mut Vec<Event>) {
        self.inner.drain_audit(out);
    }

    fn shed_cause(&self) -> ShedCause {
        self.inner.shed_cause()
    }

    fn last_select_was_fallback(&self) -> bool {
        self.inner.last_select_was_fallback()
    }

    fn checkpoint_state(&self) -> Option<serde::Value> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// A [`LoadEstimator`] with every call timed into one [`CallStats`].
pub struct TimedEstimator<'a> {
    inner: &'a mut dyn LoadEstimator,
    pub calls: CallStats,
}

impl<'a> TimedEstimator<'a> {
    pub fn new(inner: &'a mut dyn LoadEstimator) -> Self {
        Self {
            inner,
            calls: CallStats::default(),
        }
    }
}

impl LoadEstimator for TimedEstimator<'_> {
    fn record_arrival(&mut self, now: f64) {
        let inner = &mut self.inner;
        self.calls.time(|| inner.record_arrival(now));
    }

    fn estimate(&mut self, now: f64) -> f64 {
        let inner = &mut self.inner;
        self.calls.time(|| inner.estimate(now))
    }

    fn divergence(&mut self, now: f64) -> Option<f64> {
        let inner = &mut self.inner;
        self.calls.time(|| inner.divergence(now))
    }

    fn trend_qps_per_s(&mut self, now: f64) -> Option<f64> {
        let inner = &mut self.inner;
        self.calls.time(|| inner.trend_qps_per_s(now))
    }

    fn checkpoint_state(&self) -> Option<serde::Value> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// A [`TelemetrySink`] with every `record` call timed.
pub struct TimedSink<'a> {
    inner: &'a mut dyn TelemetrySink,
    pub calls: CallStats,
}

impl<'a> TimedSink<'a> {
    pub fn new(inner: &'a mut dyn TelemetrySink) -> Self {
        Self {
            inner,
            calls: CallStats::default(),
        }
    }
}

impl TelemetrySink for TimedSink<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, event: &Event) {
        let inner = &mut self.inner;
        self.calls.time(|| inner.record(event));
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// A [`DecisionSink`] with every `record` call timed.
pub struct TimedDecisions<'a> {
    inner: &'a mut dyn DecisionSink,
    pub calls: CallStats,
}

impl<'a> TimedDecisions<'a> {
    pub fn new(inner: &'a mut dyn DecisionSink) -> Self {
        Self {
            inner,
            calls: CallStats::default(),
        }
    }
}

impl DecisionSink for TimedDecisions<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, record: &DecisionRecord) {
        let inner = &mut self.inner;
        self.calls.time(|| inner.record(record));
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// A writer that counts the bytes it is given and discards them, or
/// keeps them when asked to, so a run measures encoding and not a disk.
#[derive(Debug, Default)]
pub struct ByteCounter {
    pub bytes: u64,
    pub kept: Option<Vec<u8>>,
}

impl ByteCounter {
    pub fn keeping() -> Self {
        Self {
            bytes: 0,
            kept: Some(Vec::new()),
        }
    }
}

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        if let Some(kept) = &mut self.kept {
            kept.extend_from_slice(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_read_within_a_sixteenth() {
        let mut s = CallStats::default();
        for ns in 1..=10_000u64 {
            s.add(ns * 7);
        }
        for q in [0.5, 0.99] {
            let exact = (q * 10_000.0) * 7.0 * 1e-3;
            let read = s.quantile_us(q);
            assert!(
                read <= exact && read >= exact * (1.0 - 1.0 / 16.0),
                "{q}: {read} vs {exact}"
            );
        }
        assert_eq!(CallStats::default().quantile_us(0.5), 0.0);
    }

    #[test]
    fn bucket_floors_are_monotone_lower_bounds() {
        let mut last = 0;
        for ns in (0..1u64 << 40).step_by(9_999_991) {
            let idx = CallStats::bucket(ns);
            assert!(CallStats::bucket_floor(idx) <= ns);
            assert!(idx >= last);
            last = idx;
        }
    }
}
