//! Benchmark of both RAMSIS pipelines: the offline policy generator and
//! the online serving simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <policy_ladder|trace_replay|chaos_observed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The program is a batch job in one process and one thread. Each run
//! sets up (profile, and the policies the online workloads serve from)
//! several times, then repeats its timed unit (one policy ladder, or one
//! replay of the trace) for about `--seconds`. With `--trace 0` it
//! reports the end-to-end metrics; with `--trace 1` it alternates
//! untimed-layer and timed-layer units and reports per-layer metrics.
//! Readable lines come first; the last line of standard output is the
//! JSON result. Exit code 1 means an operation or output check failed,
//! 2 a bad argument.

mod layers;
mod offline;
mod workloads;

use std::process::{Command, ExitCode};

use workloads::{Ledger, Measured, Workload};

/// Metrics the `--trace 0` result carries, for every workload.
const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy_pct", "%"),
];

/// Metrics the `--trace 1` result carries; a layer a workload does not
/// exercise reads 0. Every time here is non-zero on every workload: the
/// online layers' costs are carried as shares of the traced replay wall
/// (their seconds and per-call p50/p99 are on the readable lines).
const PER_LAYER: [(&str, &str); 37] = [
    ("profiles.build_s", "s"),
    ("generator.assemble_s", "s"),
    ("mdp.states", "count"),
    ("mdp.actions", "count"),
    ("mdp.transitions", "count"),
    ("mdp.solve_s", "s"),
    ("mdp.solve_sweeps", "count"),
    ("mdp.backups", "count"),
    ("mdp.stationary_s", "s"),
    ("guarantees.compute_s", "s"),
    ("share.assemble", "ratio"),
    ("share.solve", "ratio"),
    ("scheme.select_calls", "count"),
    ("scheme.select_share", "ratio"),
    ("scheme.on_arrival_self_share", "ratio"),
    ("adaptive.lazy_solves", "count"),
    ("adaptive.lazy_solve_share", "ratio"),
    ("adaptive.swaps", "count"),
    ("adaptive.fallback_decisions", "count"),
    ("monitor.calls", "count"),
    ("monitor.share", "ratio"),
    ("engine.self_share", "ratio"),
    ("engine.events", "count"),
    ("engine.dispatches", "count"),
    ("resilience.timeouts", "count"),
    ("resilience.retries", "count"),
    ("resilience.hedge_win_ratio", "ratio"),
    ("health.probes", "count"),
    ("health.false_suspicions", "count"),
    ("telemetry.events", "count"),
    ("telemetry.record_share", "ratio"),
    ("telemetry.bytes", "B"),
    ("decisions.records", "count"),
    ("decisions.record_share", "ratio"),
    ("decisions.bytes", "B"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <policy_ladder|trace_replay|chaos_observed> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The first line a command prints, or `unknown`. Only the current
/// directory's own repository is asked for its commit: a checkout
/// without `.git` must not report an enclosing repository's.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ledger = Ledger::default();
    let mut tracer = layers::Tracer::default();
    let measured: Measured = match args.workload {
        Workload::PolicyLadder => {
            workloads::policy_ladder(args.seconds, args.trace, &mut ledger, &mut tracer)
        }
        w => workloads::online(
            w,
            args.seed,
            args.seconds,
            args.trace,
            &mut ledger,
            &mut tracer,
        ),
    };
    if args.trace {
        let mut err = std::io::stderr().lock();
        tracer.dump(&mut err).expect("stderr is writable");
    }

    let provenance = format!(
        "{{\"git_sha\":{},\"nproc\":{},\"rustc\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}{}}}",
        json_str(&if std::path::Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".to_string()
        }),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&command_line("rustc", &["--version"])),
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        measured
            .counts
            .iter()
            .map(|(k, v)| format!(",\"{k}\":{v}"))
            .collect::<String>()
    );
    println!("provenance {provenance}");
    println!("walls_s {:?}", measured.walls);
    for (name, value, unit) in &measured.metrics {
        println!("metric {} {name} {value} {unit}", args.workload.name());
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = match measured.metrics.iter().find(|(n, _, _)| *n == name) {
            Some(&(_, value, _)) => value,
            // A layer this workload never calls.
            None if args.trace => 0.0,
            None => {
                ledger.check(false, || format!("metric {name} was not measured"));
                continue;
            }
        };
        if !value.is_finite() {
            ledger.check(false, || format!("metric {name} is not finite"));
            continue;
        }
        fields.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "metric {} error_rate {} ratio",
        args.workload.name(),
        ledger.failed as f64 / ledger.attempted.max(1) as f64
    );
    for f in &ledger.failures {
        println!("FAILED {f}");
    }
    let correct = ledger.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ledger.attempted,
        ledger.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
