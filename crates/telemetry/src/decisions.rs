//! Decision provenance: one [`DecisionRecord`] per routing /
//! model-selection decision the engine makes.
//!
//! The lifecycle stream ([`crate::event`]) records a decision's
//! *consequences* — dispatches, completions, sheds. This module records
//! the decision *itself*: the MDP state coordinates the policy saw, the
//! candidate actions it could have taken (with each one's expected
//! slack and value), the action it chose, and a [`ReasonCode`] saying
//! which path produced it. Records carry the engine's processed-event
//! count at emission ([`DecisionRecord::event`]) so a record can be
//! joined against a checkpoint's `events_done` and the run branched
//! cheaply for counterfactual replay.
//!
//! The recording contract mirrors the tracer/profiler pattern: the
//! engine reads [`DecisionSink::enabled`] once per run, and with the
//! default [`NullDecisionSink`] every emission site costs one
//! predictable branch — a run with recording off is bit-identical
//! (report and telemetry stream) to one on an engine without the
//! subsystem. Decision indices (`k`) are counted *unconditionally*, so
//! a replay can force an alternative action at decision `k` whether or
//! not the original run recorded anything.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::event::Nanos;
use crate::sink::{json_line, LatchedWriter, StreamHeader, JSONL_SCHEMA_VERSION};

/// The stream tag decision logs carry in their schema header.
pub const DECISION_STREAM: &str = "decisions";

/// Which engine path produced a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReasonCode {
    /// A plain policy-set lookup answered the decision.
    PolicyLookup,
    /// The scheme's fallback policy answered (no pre-solved policy
    /// covered the live-worker count or anticipated load).
    Fallback,
    /// The brownout ladder remapped the policy's model choice; the
    /// record's `chosen` keeps the policy's raw pick and
    /// [`DecisionRecord::effective`] carries the degraded action
    /// actually dispatched.
    DegradedRung,
    /// The resilience layer duplicated a slow in-flight batch to a
    /// second worker.
    Hedge,
    /// The resilience layer scheduled a timed-out query for
    /// re-dispatch after backoff.
    Retry,
    /// The query (or batch prefix) was shed: a policy `Drop` decision,
    /// or retry exhaustion.
    Shed,
}

impl ReasonCode {
    /// Stable snake-case label (tables and aggregation keys).
    pub fn name(self) -> &'static str {
        match self {
            ReasonCode::PolicyLookup => "policy_lookup",
            ReasonCode::Fallback => "fallback",
            ReasonCode::DegradedRung => "degraded_rung",
            ReasonCode::Hedge => "hedge",
            ReasonCode::Retry => "retry",
            ReasonCode::Shed => "shed",
        }
    }
}

/// One action the policy could have taken, with its expected outcome
/// under the worker profile's deterministic (p95) latency model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateAction {
    /// Catalog index of the candidate model.
    pub model: u32,
    /// Batch size the expectation was computed at.
    pub batch: u32,
    /// Expected slack at completion: the earliest queued deadline's
    /// slack minus the profiled batch latency (negative = this action
    /// is expected to violate).
    pub expected_slack_ns: i64,
    /// The action's value: the model's profiled accuracy (the paper's
    /// per-query objective).
    pub value: f64,
}

/// The MDP state coordinates a selection-site decision was made under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionState {
    /// Anticipated load from the configured monitor, QPS.
    pub load_qps: f64,
    /// Queries visible to the deciding worker.
    pub queued: u32,
    /// Slack of the earliest deadline among them, nanoseconds
    /// (negative when already blown).
    pub slack_ns: i64,
    /// Live (non-crashed) workers at the decision.
    pub live_workers: u32,
}

/// The action a decision committed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChosenAction {
    /// Serve `batch` queries on `model` — the scheme's raw pick (the
    /// action counterfactual replay forces to reproduce a decision);
    /// when an active brownout rung degraded it,
    /// [`DecisionRecord::effective`] carries what actually dispatched.
    Serve {
        /// Catalog index of the dispatched model.
        model: u32,
        /// Batch size dispatched.
        batch: u32,
    },
    /// Shed `count` earliest-deadline queries.
    Shed {
        /// Queries shed.
        count: u32,
    },
    /// Leave the worker idle until the next event.
    Idle,
    /// Duplicate the in-flight batch to `target`.
    Hedge {
        /// Catalog index of the duplicated model.
        model: u32,
        /// Batch size duplicated.
        batch: u32,
        /// Worker the duplicate was issued to.
        target: u32,
    },
    /// Re-dispatch a timed-out query after `delay_ns` backoff.
    Retry {
        /// Which retry this is (1 = first re-dispatch).
        attempt: u32,
        /// Backoff before the query re-enters routing.
        delay_ns: u64,
    },
}

/// One recorded decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Decision index within the run (0-based, counted across every
    /// emission site whether or not recording is on). The key
    /// counterfactual replay forces on.
    pub k: u64,
    /// Simulation time of the decision.
    pub at: Nanos,
    /// Engine heap events fully processed before this decision — the
    /// join key against a checkpoint's `events_done` (a snapshot taken
    /// at `events_done = N` precedes every record with `event >= N`).
    pub event: u64,
    /// The earliest affected query id (queue head for selection-site
    /// decisions, the timed-out or hedged query otherwise); `None`
    /// when no single query anchors the decision.
    pub query: Option<u64>,
    /// Worker the decision was made for (the hedge *target* for
    /// [`ChosenAction::Hedge`]).
    pub worker: u32,
    /// State coordinates at selection sites; `None` for hedge/retry
    /// sites, which fire outside a selection context.
    pub state: Option<DecisionState>,
    /// The traffic-regime label the scheme operated under, if any.
    pub regime: Option<String>,
    /// The candidate set weighed at selection sites (one entry per
    /// catalog model), empty elsewhere.
    pub candidates: Vec<CandidateAction>,
    /// The action committed — the scheme's raw pick, before any
    /// brownout degradation. Forcing this exact action at decision `k`
    /// in a counterfactual replay reproduces the original run.
    pub chosen: ChosenAction,
    /// The action actually dispatched when it differs from `chosen`
    /// (an active brownout rung degraded the model); `None` otherwise.
    pub effective: Option<ChosenAction>,
    /// Which engine path produced it.
    pub reason: ReasonCode,
}

/// A consumer of decision records (mirror of
/// [`crate::sink::TelemetrySink`]).
pub trait DecisionSink {
    /// Whether the sink wants records at all. The engine reads this
    /// once per run and skips record construction when `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one record.
    fn record(&mut self, record: &DecisionRecord);

    /// Flushes any buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}
}

/// The default sink: drops everything, reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullDecisionSink;

impl DecisionSink for NullDecisionSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _record: &DecisionRecord) {}
}

/// An unbounded in-memory sink (tests, replay harnesses, `why`).
#[derive(Debug, Clone, Default)]
pub struct VecDecisionSink {
    records: Vec<DecisionRecord>,
}

impl VecDecisionSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded decisions, in emission order.
    pub fn records(&self) -> &[DecisionRecord] {
        &self.records
    }

    /// Consumes the sink, returning its records.
    pub fn into_records(self) -> Vec<DecisionRecord> {
        self.records
    }
}

impl DecisionSink for VecDecisionSink {
    fn record(&mut self, record: &DecisionRecord) {
        self.records.push(record.clone());
    }
}

/// A sink writing one decision per line (JSONL), deterministic bytes,
/// I/O errors latched (mirror of [`crate::sink::JsonlSink`]). Files
/// opened with [`JsonlDecisionSink::create`] start with a
/// `{"Schema":{"stream":"decisions",...}}` header record.
#[derive(Debug)]
pub struct JsonlDecisionSink<W: Write> {
    out: LatchedWriter<W>,
}

impl JsonlDecisionSink<BufWriter<File>> {
    /// Opens (truncating) `path` and writes the schema header.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let mut sink = Self::new(BufWriter::new(File::create(path)?));
        sink.out
            .header(json_line(&StreamHeader::decisions()).as_bytes());
        Ok(sink)
    }
}

impl<W: Write> JsonlDecisionSink<W> {
    /// Wraps an arbitrary writer (no header written).
    pub fn new(out: W) -> Self {
        Self {
            out: LatchedWriter::new(out, 0),
        }
    }

    /// Records successfully written so far (the header not counted).
    pub fn lines(&self) -> u64 {
        self.out.records()
    }

    /// True once any write or flush has failed; further records are
    /// dropped.
    pub fn write_failed(&self) -> bool {
        self.out.failed()
    }

    /// Takes the latched I/O error, if any; the sink stays failed.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.out.take_error()
    }

    /// Flushes and returns the writer, or the first latched I/O error.
    ///
    /// # Errors
    ///
    /// Returns the first write or flush error encountered.
    pub fn finish(self) -> io::Result<W> {
        self.out.finish()
    }
}

impl<W: Write> DecisionSink for JsonlDecisionSink<W> {
    fn record(&mut self, record: &DecisionRecord) {
        self.out.record(json_line(record).as_bytes());
    }

    fn flush(&mut self) {
        self.out.flush();
    }
}

/// A decision log parsed tolerantly (mirror of
/// [`crate::sink::ParsedLog`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedDecisions {
    /// Every successfully parsed record, in log order.
    pub records: Vec<DecisionRecord>,
    /// The unparseable final line of a truncated log, verbatim.
    pub torn_tail: Option<String>,
    /// Well-formed JSON lines that are not known decision records
    /// (logs from a newer engine); skipped, not fatal.
    pub unknown_records: u64,
    /// The schema header's version; `None` for headerless v0 logs.
    pub schema_version: Option<u32>,
}

/// Parses a decision JSONL log, tolerating a torn final record, a
/// missing (v0) schema header, and unknown record shapes from newer
/// engines.
///
/// # Errors
///
/// Returns a message naming the offending line when a non-final line
/// is not valid JSON — mid-log corruption is never silently skipped.
pub fn parse_decisions_tolerant(text: &str) -> Result<ParsedDecisions, String> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut records = Vec::with_capacity(lines.len());
    let mut torn_tail = None;
    let mut unknown_records = 0;
    let mut schema_version = None;
    let last = lines.len().saturating_sub(1);
    for (k, (i, l)) in lines.iter().enumerate() {
        if let Ok(StreamHeader::Schema { stream, version }) = serde_json::from_str(l) {
            if schema_version.is_none() && stream == DECISION_STREAM {
                schema_version = Some(version);
            } else {
                unknown_records += 1;
            }
            continue;
        }
        match serde_json::from_str(l) {
            Ok(r) => records.push(r),
            Err(_) if serde_json::from_str::<serde::Value>(l).is_ok() => unknown_records += 1,
            Err(_) if k == last => torn_tail = Some((*l).to_string()),
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok(ParsedDecisions {
        records,
        torn_tail,
        unknown_records,
        schema_version,
    })
}

impl StreamHeader {
    /// The header a decision log starts with.
    pub fn decisions() -> Self {
        StreamHeader::Schema {
            stream: DECISION_STREAM.to_string(),
            version: JSONL_SCHEMA_VERSION,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: u64) -> DecisionRecord {
        DecisionRecord {
            k,
            at: 1_000 * k,
            event: 3 * k,
            query: Some(k),
            worker: 0,
            state: Some(DecisionState {
                load_qps: 120.5,
                queued: 4,
                slack_ns: -2_000,
                live_workers: 3,
            }),
            regime: Some("gt120qps".to_string()),
            candidates: vec![CandidateAction {
                model: 2,
                batch: 4,
                expected_slack_ns: 7_500_000,
                value: 0.761,
            }],
            chosen: ChosenAction::Serve { model: 2, batch: 4 },
            effective: None,
            reason: ReasonCode::PolicyLookup,
        }
    }

    #[test]
    fn records_round_trip_deterministically() {
        let variants = vec![
            rec(0),
            DecisionRecord {
                query: None,
                state: None,
                regime: None,
                candidates: Vec::new(),
                chosen: ChosenAction::Idle,
                reason: ReasonCode::Fallback,
                ..rec(1)
            },
            DecisionRecord {
                chosen: ChosenAction::Shed { count: 2 },
                reason: ReasonCode::Shed,
                ..rec(2)
            },
            DecisionRecord {
                chosen: ChosenAction::Hedge {
                    model: 1,
                    batch: 2,
                    target: 5,
                },
                reason: ReasonCode::Hedge,
                ..rec(3)
            },
            DecisionRecord {
                chosen: ChosenAction::Retry {
                    attempt: 2,
                    delay_ns: 5_000_000,
                },
                reason: ReasonCode::Retry,
                ..rec(4)
            },
            DecisionRecord {
                chosen: ChosenAction::Serve { model: 3, batch: 1 },
                effective: Some(ChosenAction::Serve { model: 0, batch: 1 }),
                reason: ReasonCode::DegradedRung,
                ..rec(5)
            },
        ];
        for r in &variants {
            let json = serde_json::to_string(r).unwrap();
            let back: DecisionRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, r, "{json}");
            assert_eq!(json, serde_json::to_string(&back).unwrap());
        }
    }

    #[test]
    fn reason_names_are_unique_and_stable() {
        let all = [
            ReasonCode::PolicyLookup,
            ReasonCode::Fallback,
            ReasonCode::DegradedRung,
            ReasonCode::Hedge,
            ReasonCode::Retry,
            ReasonCode::Shed,
        ];
        let names: Vec<&str> = all.iter().map(|r| r.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(names[0], "policy_lookup");
    }

    #[test]
    fn null_sink_is_disabled_and_vec_sink_keeps_order() {
        let mut null = NullDecisionSink;
        assert!(!null.enabled());
        null.record(&rec(0));
        let mut v = VecDecisionSink::new();
        assert!(v.enabled());
        for k in 0..4 {
            v.record(&rec(k));
        }
        let ks: Vec<u64> = v.records().iter().map(|r| r.k).collect();
        assert_eq!(ks, [0, 1, 2, 3]);
        assert_eq!(v.into_records().len(), 4);
    }

    #[test]
    fn jsonl_writes_header_and_round_trips() {
        let mut sink = JsonlDecisionSink::new(Vec::new());
        sink.record(&rec(0));
        sink.record(&rec(1));
        assert_eq!(sink.lines(), 2);
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        // Headerless (v0) text parses with no version.
        let parsed = parse_decisions_tolerant(&text).unwrap();
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.schema_version, None);
        // With the header prepended, the version is surfaced.
        let header = serde_json::to_string(&StreamHeader::decisions()).unwrap();
        let v1 = format!("{header}\n{text}");
        let parsed = parse_decisions_tolerant(&v1).unwrap();
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.schema_version, Some(JSONL_SCHEMA_VERSION));
        assert_eq!(parsed.unknown_records, 0);
        assert_eq!(parsed.torn_tail, None);
    }

    #[test]
    fn tolerant_parse_reports_tears_and_unknowns() {
        let good = serde_json::to_string(&rec(7)).unwrap();
        let text = format!("{good}\n{{\"FutureDecisionKind\":1}}\n{{\"k\":9,\"at");
        let parsed = parse_decisions_tolerant(&text).unwrap();
        assert_eq!(parsed.records, vec![rec(7)]);
        assert_eq!(parsed.unknown_records, 1);
        assert!(parsed.torn_tail.is_some());
        // Mid-log garbage is real corruption.
        let bad = format!("{good}\nnot json\n{good}\n");
        assert!(parse_decisions_tolerant(&bad)
            .unwrap_err()
            .contains("line 2"));
    }

    #[test]
    fn create_writes_schema_header_first() {
        let dir = std::env::temp_dir().join(format!("ramsis-dec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("decisions.jsonl");
        let mut sink = JsonlDecisionSink::create(&path).unwrap();
        sink.record(&rec(0));
        assert_eq!(sink.lines(), 1, "header is not a record");
        drop(sink.finish().unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"Schema\":"), "{text}");
        let parsed = parse_decisions_tolerant(&text).unwrap();
        assert_eq!(parsed.schema_version, Some(JSONL_SCHEMA_VERSION));
        assert_eq!(parsed.records, vec![rec(0)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
