//! Crash-consistent checkpoint/resume for the simulation engine
//! (DESIGN.md §12).
//!
//! A [`CheckpointPolicy`], attached with its recorder through
//! [`crate::RunSpec::checkpoints`], asks the engine to capture its complete mid-run state — event heap, per-worker queues
//! and lifecycle, in-flight dispatches and hedge epochs, retry budgets,
//! RNG streams, metrics, autoscaler controller state, and the telemetry
//! sequence counter — at a configurable event-count or sim-time cadence.
//! Each [`EngineSnapshot`] is handed to a [`CheckpointRecorder`]:
//! [`FileRecorder`] persists it crash-consistently (temp file + atomic
//! rename), [`MemoryRecorder`] keeps snapshots in memory for tests and
//! the chaos harness's kill–resume dimension.
//!
//! The durability invariant: resuming from *any* snapshot
//! ([`crate::RunSpec::resume_from`]) continues to a final report and
//! telemetry event stream byte-identical to the uninterrupted run's
//! suffix. Without a recorder the engine takes one predictable branch
//! per event and is bit-identical to the pre-checkpoint engine.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use ramsis_stats::LogHistogram;

use crate::autoscale::{AutoscaleStats, BrownoutLadder, HysteresisController, WorkerState};
use crate::health::HealthState;
use crate::metrics::MetricsCollector;
use crate::query::{Nanos, Query};
use crate::resilience::{splitmix64, CoDelAdmission, RetryBudget};
use crate::SimError;

/// Snapshot format version; bumped on any incompatible layout change.
/// v2 added the optional failure-detector state.
pub const SNAPSHOT_VERSION: u32 = 2;

/// When a durable run takes checkpoints: the cadence that rides with
/// the recorder on [`crate::RunSpec::checkpoints`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Snapshot after every `n` processed events (0 disables the
    /// event-count cadence).
    pub every_events: u64,
    /// Snapshot when simulated time crosses each multiple of this many
    /// seconds (0 disables the sim-time cadence).
    pub every_sim_s: f64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self::every_events(100_000)
    }
}

impl CheckpointPolicy {
    /// A policy snapshotting every `n` processed events.
    pub fn every_events(n: u64) -> Self {
        Self {
            every_events: n,
            every_sim_s: 0.0,
        }
    }

    /// A policy snapshotting every `s` seconds of simulated time.
    pub fn every_sim_s(s: f64) -> Self {
        Self {
            every_events: 0,
            every_sim_s: s,
        }
    }

    /// Checks the policy is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when there is no cadence, or
    /// the sim-time cadence is negative or non-finite.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.every_sim_s.is_finite() || self.every_sim_s < 0.0 {
            return Err(SimError::InvalidConfig(format!(
                "checkpoint sim-time cadence must be finite and non-negative, got {}",
                self.every_sim_s
            )));
        }
        if self.every_events == 0 && self.every_sim_s == 0.0 {
            return Err(SimError::InvalidConfig(
                "checkpoint policy has no cadence: set every_events or every_sim_s".to_string(),
            ));
        }
        Ok(())
    }
}

/// Identity and position of a snapshot: enough to refuse a resume
/// against the wrong run and to heal a telemetry log's torn tail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotMeta {
    /// Snapshot format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Configured (initial) worker-pool size.
    pub workers: usize,
    /// Response-latency SLO the run was configured with (seconds).
    pub slo_s: f64,
    /// Arrival-sampling seed.
    pub arrival_seed: u64,
    /// Service-time sampling seed.
    pub latency_seed: u64,
    /// Name of the serving scheme driving the run.
    pub scheme: String,
    /// Heap events processed so far.
    pub events_done: u64,
    /// Simulated time of the last processed event (nanoseconds).
    pub sim_time_ns: Nanos,
    /// Telemetry events emitted so far; a resumed run's JSONL log is
    /// truncated to exactly this many lines before appending.
    pub events_emitted: u64,
    /// Length of the pre-sampled arrival array.
    pub arrivals_len: usize,
    /// Order-sensitive fingerprint of the arrival times
    /// ([`arrivals_fingerprint`]); a resume against different arrivals
    /// is refused.
    pub arrivals_hash: u64,
}

/// One pending event, heap-externalized: `(time, sequence)` plus the
/// engine's private event kind flattened to `(tag, a, b)`. Entries are
/// stored sorted by `(t, seq)` so equal snapshots serialize to equal
/// bytes regardless of the heap's internal arrangement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeapEntry {
    /// Scheduled simulation time.
    pub t: Nanos,
    /// Tie-breaking sequence number (unique per run).
    pub seq: u64,
    /// Event-kind discriminant (engine-internal encoding).
    pub tag: u8,
    /// First payload word (worker/index).
    pub a: u64,
    /// Second payload word (epoch; 0 when unused).
    pub b: u64,
}

/// One in-flight dispatch: the batch a worker is currently serving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InFlightState {
    /// Catalog index of the model being run.
    pub model: usize,
    /// The batch, in queue order.
    pub queries: Vec<Query>,
    /// Dispatch time of *this* side (a hedge's own issue time, not the
    /// primary's).
    pub started: Nanos,
    /// The other side of a hedged pair, while both are running.
    pub twin: Option<usize>,
    /// True for the duplicate side of a hedged pair (first-wins
    /// accounting credits a hedge win only when this side finishes
    /// first).
    pub is_hedge: bool,
}

/// Per-worker cluster state, indexed by worker slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterState {
    /// Serving an in-flight batch right now.
    pub busy: Vec<bool>,
    /// Routable (live) workers.
    pub alive: Vec<bool>,
    /// Service-time multiplier applied at dispatch (1.0 = nominal).
    pub slow: Vec<f64>,
    /// Bumped whenever a dispatch ends (completion, timeout, crash,
    /// hedge cancel); end events carrying an older epoch are stale.
    pub epochs: Vec<u64>,
    /// In-flight dispatch per worker.
    pub in_flight: Vec<Option<InFlightState>>,
    /// Crash time of each currently-dead worker.
    pub down_since: Vec<Option<Nanos>>,
    /// Live worker count (invariant: `alive.iter().filter(|a| **a).count()`).
    pub live: usize,
    /// Autoscale lifecycle per worker slot. Without autoscaling every
    /// slot stays `Live` forever and `alive` alone tells the story;
    /// with it, `alive[w]` is exactly `lifecycle[w] == Live`, except for
    /// crashed workers (lifecycle `Down` with `down_since` set).
    pub lifecycle: Vec<WorkerState>,
}

/// Resilience-layer run state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceState {
    /// Token bucket shared by all retries in the run.
    pub budget: RetryBudget,
    /// CoDel admission state per queue: index `w` for worker `w`'s
    /// queue, index `n_workers` for the central queue.
    pub admission: Vec<CoDelAdmission>,
    /// Observed service times (hedged dispatches included) feeding the
    /// hedge-quantile estimate.
    pub service_hist: LogHistogram,
    /// Queries waiting out their backoff; `EventKind::Retry` carries an
    /// index into this append-only buffer.
    pub retry_buf: Vec<Query>,
}

/// Autoscaler and brownout run state; absent when the subsystem is
/// disabled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleState {
    /// Hysteresis controller (pending direction/ticks, cooldown clock).
    pub controller: HysteresisController,
    /// Brownout ladder (active rung, dwell counters).
    pub ladder: BrownoutLadder,
    /// Accumulated autoscale statistics.
    pub stats: AutoscaleStats,
    /// Live-count integral bookkeeping: time of the last change.
    pub last_live_change: Nanos,
    /// Live-count integral bookkeeping: value at the last change.
    pub live_at_change: usize,
    /// When rung 0 was last left (open brownout episode).
    pub brownout_since: Option<Nanos>,
    /// The ladder's rung as of the last controller tick, applied on the
    /// dispatch hot path; 0 remaps nothing.
    pub brown_rung: u32,
    /// `Serve` selections degraded by the ladder so far.
    pub brown_degraded: u64,
}

/// Complete mid-run engine state: everything needed to continue the run
/// to a byte-identical report and telemetry suffix. The section types
/// are the engine's own run state, not copies of it, so a field added to
/// the engine is in the snapshot by construction. Serializes to
/// canonical JSON (fixed field order, sorted heap), so equal states
/// give equal bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Identity and position of the snapshot.
    pub meta: SnapshotMeta,
    /// Pending events, sorted by `(t, seq)`.
    pub heap: Vec<HeapEntry>,
    /// Next event sequence number.
    pub next_seq: u64,
    /// Latest simulated time observed so far.
    pub horizon: Nanos,
    /// Per-worker queues (per-worker routing).
    pub worker_queues: Vec<VecDeque<Query>>,
    /// The central queue (central routing).
    pub central_queue: VecDeque<Query>,
    /// Queries stranded with no live worker.
    pub limbo: VecDeque<Query>,
    /// Round-robin routing cursor.
    pub rr_next: usize,
    /// Per-worker cluster state.
    pub cluster: ClusterState,
    /// Resilience-layer state.
    pub resilience: ResilienceState,
    /// The full metrics accumulator.
    pub metrics: MetricsCollector,
    /// Service-time RNG position as `(block counter, word index)`.
    pub latency_rng: (u64, usize),
    /// Autoscaler state; `None` when the subsystem is disabled.
    pub autoscale: Option<AutoscaleState>,
    /// Failure-detector state (phi estimators, breakers, health
    /// accounting); `None` when the subsystem is disabled.
    pub health: Option<HealthState>,
    /// Scheme-private state ([`crate::ServingScheme::checkpoint_state`]);
    /// `Null` for stateless schemes.
    pub scheme_state: serde::Value,
    /// Estimator-private state
    /// ([`ramsis_workload::LoadEstimator::checkpoint_state`]).
    pub estimator_state: serde::Value,
}

impl EngineSnapshot {
    /// Canonical JSON encoding; equal snapshots give equal bytes.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization is infallible")
    }

    /// Parses a snapshot from its JSON encoding.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on malformed JSON, a layout
    /// mismatch, or a version newer than this build understands.
    pub fn from_json(json: &str) -> Result<Self, SimError> {
        let snap: Self = serde_json::from_str(json)
            .map_err(|e| SimError::InvalidConfig(format!("malformed snapshot: {e}")))?;
        if snap.meta.version > SNAPSHOT_VERSION {
            return Err(SimError::InvalidConfig(format!(
                "snapshot version {} is newer than supported {}",
                snap.meta.version, SNAPSHOT_VERSION
            )));
        }
        Ok(snap)
    }

    /// Writes the snapshot crash-consistently: serialize to
    /// `<path>.tmp`, fsync, then atomically rename over `path`. A crash
    /// at any point leaves either the previous snapshot or the new one,
    /// never a torn file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the write, sync, or rename.
    pub fn write_atomic(&self, path: &Path) -> std::io::Result<()> {
        let tmp = tmp_path(path);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_json().as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Reads a snapshot previously written with
    /// [`Self::write_atomic`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the file is unreadable
    /// or malformed.
    pub fn read(path: &Path) -> Result<Self, SimError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            SimError::InvalidConfig(format!("cannot read snapshot {}: {e}", path.display()))
        })?;
        Self::from_json(text.trim_end())
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("snapshot"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".tmp");
    path.with_file_name(name)
}

/// Order-sensitive fingerprint of an arrival array: a splitmix64 fold
/// over the raw bit patterns. Used to refuse resuming a snapshot
/// against different arrivals (wrong trace, seed, or surge plan).
pub fn arrivals_fingerprint(arrivals: &[f64]) -> u64 {
    let mut h = 0xA5A5_5A5A_0C1A_0505u64;
    for &t in arrivals {
        h = splitmix64(h ^ t.to_bits());
    }
    h
}

/// Where checkpoints go. The engine calls [`Self::record`] at each
/// cadence point; returning `false` stops the run on the spot (the
/// chaos harness's simulated kill — the run ends with
/// [`crate::SimError::Interrupted`]).
pub trait CheckpointRecorder {
    /// Persists one snapshot; `false` asks the engine to halt the run
    /// immediately after this checkpoint.
    fn record(&mut self, snapshot: &EngineSnapshot) -> bool;
}

/// Keeps every snapshot in memory; optionally stops the run after the
/// n-th one (the kill–resume harness's crash point).
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    /// Recorded snapshots, in cadence order.
    pub snapshots: Vec<EngineSnapshot>,
    /// Stop the run once this many snapshots are recorded.
    pub stop_after: Option<usize>,
}

impl MemoryRecorder {
    /// A recorder that never stops the run.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder that halts the run right after snapshot `n` (1-based)
    /// is recorded — a deterministic simulated kill.
    pub fn stop_after(n: usize) -> Self {
        Self {
            snapshots: Vec::new(),
            stop_after: Some(n),
        }
    }
}

impl CheckpointRecorder for MemoryRecorder {
    fn record(&mut self, snapshot: &EngineSnapshot) -> bool {
        self.snapshots.push(snapshot.clone());
        match self.stop_after {
            Some(n) => self.snapshots.len() < n,
            None => true,
        }
    }
}

/// Persists the latest snapshot to one path, crash-consistently
/// ([`EngineSnapshot::write_atomic`]). A failed write stops the run;
/// the error is surfaced through [`Self::take_error`].
#[derive(Debug)]
pub struct FileRecorder {
    path: PathBuf,
    written: u64,
    error: Option<String>,
}

impl FileRecorder {
    /// A recorder writing the latest snapshot to `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            written: 0,
            error: None,
        }
    }

    /// Snapshots successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first write error, if any (taking it resets the slot).
    pub fn take_error(&mut self) -> Option<String> {
        self.error.take()
    }
}

impl CheckpointRecorder for FileRecorder {
    fn record(&mut self, snapshot: &EngineSnapshot) -> bool {
        match snapshot.write_atomic(&self.path) {
            Ok(()) => {
                self.written += 1;
                true
            }
            Err(e) => {
                self.error = Some(format!(
                    "checkpoint write to {} failed: {e}",
                    self.path.display()
                ));
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_default_is_valid() {
        CheckpointPolicy::default().validate().unwrap();
    }

    #[test]
    fn policy_rejects_no_cadence() {
        let p = CheckpointPolicy {
            every_events: 0,
            every_sim_s: 0.0,
        };
        assert!(p.validate().is_err());
        assert!(CheckpointPolicy::every_events(1_000).validate().is_ok());
        assert!(CheckpointPolicy::every_sim_s(0.5).validate().is_ok());
        let neg = CheckpointPolicy {
            every_sim_s: -1.0,
            ..CheckpointPolicy::default()
        };
        assert!(neg.validate().is_err());
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let a = arrivals_fingerprint(&[0.1, 0.2, 0.3]);
        let b = arrivals_fingerprint(&[0.2, 0.1, 0.3]);
        let c = arrivals_fingerprint(&[0.1, 0.2, 0.3]);
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_ne!(arrivals_fingerprint(&[]), arrivals_fingerprint(&[0.0]));
    }

    #[test]
    fn tmp_path_appends_suffix() {
        assert_eq!(
            tmp_path(Path::new("/x/y/snap.json")),
            PathBuf::from("/x/y/snap.json.tmp")
        );
    }

    #[test]
    fn memory_recorder_stop_after_halts() {
        let snap_json = |r: &MemoryRecorder| r.snapshots.len();
        let mut r = MemoryRecorder::stop_after(2);
        let s = dummy_snapshot();
        assert!(r.record(&s));
        assert!(!r.record(&s));
        assert_eq!(snap_json(&r), 2);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let s = dummy_snapshot();
        let json = s.to_json();
        let back = EngineSnapshot::from_json(&json).unwrap();
        assert_eq!(s, back);
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn snapshot_rejects_future_version() {
        let mut s = dummy_snapshot();
        s.meta.version = SNAPSHOT_VERSION + 1;
        assert!(EngineSnapshot::from_json(&s.to_json()).is_err());
    }

    #[test]
    fn atomic_write_then_read_round_trips() {
        let dir = std::env::temp_dir().join("ramsis-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let s = dummy_snapshot();
        s.write_atomic(&path).unwrap();
        assert!(!tmp_path(&path).exists(), "tmp file must be renamed away");
        let back = EngineSnapshot::read(&path).unwrap();
        assert_eq!(s, back);
        std::fs::remove_file(&path).ok();
    }

    fn dummy_snapshot() -> EngineSnapshot {
        EngineSnapshot {
            meta: SnapshotMeta {
                version: SNAPSHOT_VERSION,
                workers: 2,
                slo_s: 0.15,
                arrival_seed: 1,
                latency_seed: 2,
                scheme: "test".to_string(),
                events_done: 10,
                sim_time_ns: 1_000,
                events_emitted: 0,
                arrivals_len: 3,
                arrivals_hash: arrivals_fingerprint(&[0.1, 0.2, 0.3]),
            },
            heap: vec![HeapEntry {
                t: 2_000,
                seq: 11,
                tag: 0,
                a: 1,
                b: 0,
            }],
            next_seq: 12,
            horizon: 1_000,
            worker_queues: vec![VecDeque::new(), VecDeque::from([Query::new(7, 900, 100)])],
            central_queue: VecDeque::new(),
            limbo: VecDeque::new(),
            rr_next: 1,
            cluster: ClusterState {
                busy: vec![true, false],
                alive: vec![true, true],
                slow: vec![1.0, 1.0],
                epochs: vec![3, 0],
                in_flight: vec![
                    Some(InFlightState {
                        model: 0,
                        queries: vec![Query::new(6, 800, 100)],
                        started: 950,
                        twin: None,
                        is_hedge: false,
                    }),
                    None,
                ],
                down_since: vec![None, None],
                live: 2,
                lifecycle: vec![WorkerState::Live, WorkerState::Live],
            },
            resilience: ResilienceState {
                budget: RetryBudget::new(0.0, 1.0),
                admission: vec![CoDelAdmission::default(); 3],
                service_hist: LogHistogram::new(),
                retry_buf: Vec::new(),
            },
            metrics: MetricsCollector::new(),
            latency_rng: (4, 9),
            autoscale: None,
            health: None,
            scheme_state: serde::Value::Null,
            estimator_state: serde::Value::Null,
        }
    }
}
