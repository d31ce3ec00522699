//! Telemetry scalability baseline: the repo's `BENCH_telemetry.json`
//! artifact (DESIGN.md §15, EXPERIMENTS.md "telemetry_scale").
//!
//! Replays a canonical seeded event stream through the JSONL, binary,
//! and 1%-sampled-binary sinks, measures whole-engine overhead of
//! sampled tracing vs tracing-off, checks the sampling identity
//! invariants, and gates the two scalability contracts:
//!
//! - binary sink events/sec ≥ 3x the JSONL sink's
//! - 1% sampling ≤ 1% engine overhead vs tracing-off, measured in the
//!   serving-time frame (extra wall clock over the simulated serving
//!   duration) with a per-event nanosecond ceiling as the absolute
//!   regression guard; the raw DES-wall ratio is recorded ungated —
//!   the simulator retires events in under 100 ns, so a fractional
//!   gate against its wall clock would measure the simulator's speed,
//!   not the telemetry's cost (see `observer_overhead` for the same
//!   argument)
//!
//! ```text
//! telemetry_scale [--smoke] [--out DIR]    # run + write BENCH_telemetry.json
//! telemetry_scale --validate PATH          # schema-check an existing file
//! ```

use std::path::PathBuf;
use std::process::exit;

use ramsis_bench::{
    render_table, run_telemetry_scale, write_json, BenchTelemetry, TelemetryScaleConfig,
    BIN_SPEEDUP_GATE, SAMPLED_NS_GATE, SAMPLED_OVERHEAD_GATE,
};

/// Per-event ceiling multiplier in smoke mode: a CI smoke rep lasts
/// milliseconds, where one scheduler preemption skews the per-event
/// attribution. The full run uses the strict gate.
const SMOKE_NS_MARGIN: f64 = 2.0;

fn validate_file(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: read {path}: {e}");
            return 1;
        }
    };
    let bench: BenchTelemetry = match serde_json::from_str(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {path} does not parse as BENCH_telemetry schema: {e}");
            return 1;
        }
    };
    if let Err(e) = bench.validate() {
        eprintln!("error: {path} violates the BENCH_telemetry schema: {e}");
        return 1;
    }
    println!(
        "{path}: valid (schema v{}, {} stream events, bin {:.1}x jsonl, \
         sampled overhead {:+.2}%{})",
        bench.schema_version,
        bench.stream_events,
        bench.bin_speedup_vs_jsonl,
        bench.sampled_engine_overhead * 100.0,
        if bench.smoke { ", smoke" } else { "" }
    );
    0
}

fn main() {
    let mut smoke = false;
    let mut out_dir = PathBuf::from("results");
    let mut validate: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_dir = PathBuf::from(args.next().expect("--out requires a directory")),
            "--validate" => {
                validate = Some(args.next().expect("--validate requires a file path"));
            }
            other => {
                eprintln!("error: unknown flag {other:?}");
                eprintln!("usage: telemetry_scale [--smoke] [--out DIR] | --validate PATH");
                exit(2);
            }
        }
    }
    if let Some(path) = validate {
        exit(validate_file(&path));
    }

    let cfg = if smoke {
        TelemetryScaleConfig::default().smoke()
    } else {
        TelemetryScaleConfig::default()
    };
    println!(
        "=== telemetry_scale — {} workers, {:.0} QPS x {:.0} s, rate {}, seed {:#x}{} ===",
        cfg.workers,
        cfg.load_qps,
        cfg.duration_s,
        cfg.sample_rate,
        cfg.seed,
        if smoke { " (smoke)" } else { "" }
    );

    let bench = run_telemetry_scale(&cfg, smoke);
    bench.validate().expect("fresh document validates");

    let rows: Vec<Vec<String>> = bench
        .sink_tiers
        .iter()
        .map(|t| {
            vec![
                t.tier.clone(),
                format!("{:.4}", t.wall_min_s),
                t.events_out.to_string(),
                format!("{:.2}", t.bytes as f64 / 1e6),
                format!("{:.2}", t.events_per_sec / 1e6),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["sink", "min_s", "events out", "MB", "M events/s"], &rows)
    );
    let rows: Vec<Vec<String>> = bench
        .engine_tiers
        .iter()
        .map(|t| {
            vec![
                t.tier.clone(),
                format!("{:.4}", t.wall_min_s),
                format!("{:+.2}%", t.overhead_vs_off * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["engine", "min_s", "overhead vs off"], &rows)
    );

    write_json(&out_dir, "BENCH_telemetry", &bench);

    assert!(
        bench.bin_speedup_vs_jsonl >= BIN_SPEEDUP_GATE,
        "binary sink only {:.2}x the JSONL sink's events/sec (gate ≥ {BIN_SPEEDUP_GATE}x)",
        bench.bin_speedup_vs_jsonl
    );
    assert!(
        bench.sampled_engine_overhead <= SAMPLED_OVERHEAD_GATE,
        "1% sampling costs {:.3}% of serving time vs tracing-off (budget {:.1}%)",
        bench.sampled_engine_overhead * 100.0,
        SAMPLED_OVERHEAD_GATE * 100.0
    );
    let ns_gate = SAMPLED_NS_GATE * if smoke { SMOKE_NS_MARGIN } else { 1.0 };
    assert!(
        bench.sampled_ns_per_event <= ns_gate,
        "sampled tracing costs {:.0} ns per event (gate ≤ {ns_gate:.0} ns)",
        bench.sampled_ns_per_event
    );
    println!(
        "OK: bin {:.1}x jsonl (gate {BIN_SPEEDUP_GATE}x); sampled overhead {:.3}% of \
         serving time (budget {:.1}%), {:.0} ns/event (gate {ns_gate:.0}), DES wall \
         {:+.1}% recorded ungated; report + sampling-off identity held",
        bench.bin_speedup_vs_jsonl,
        bench.sampled_engine_overhead * 100.0,
        SAMPLED_OVERHEAD_GATE * 100.0,
        bench.sampled_ns_per_event,
        bench.sampled_des_overhead * 100.0
    );
}
