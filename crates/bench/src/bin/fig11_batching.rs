//! Fig. 11 (appendix §D): maximal versus variable batching.
//!
//! Expected shape: near-identical accuracy and violation rates (§4.3.2:
//! variable-batching policies select the maximum batch in 80% of
//! decisions anyway), with variable batching costing far more policy-
//! generation time (also visible in Table 2).
//!
//! Generation time is reported two ways: the wall time of the set's
//! `generate_poisson` call, and the per-policy solve times summed. The
//! set's policies solve in parallel, so the sum overlaps and exceeds
//! the wall time on a multi-core machine.

use ramsis_bench::harness::{
    build_profile, constant_load_workers, pct, ramsis_policy_set_timed, run_scheme, MonitorKind,
};
use ramsis_bench::{render_table, write_csv, write_json, ExperimentArgs};
use ramsis_core::{Batching, Discretization, PolicyConfig};
use ramsis_profiles::Task;
use ramsis_sim::{LatencyMode, RamsisScheme};
use ramsis_workload::Trace;
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct Row {
    batching: String,
    load_qps: f64,
    accuracy: f64,
    violation_rate: f64,
    mean_batch: f64,
    /// Wall time of the set's `generate_poisson` call; `None` when the
    /// set was loaded from the on-disk policy cache.
    set_wall_seconds: Option<f64>,
    /// Per-policy solve times summed over the set.
    summed_solve_seconds: f64,
}

fn main() {
    let args = ExperimentArgs::parse();
    let task = args.task.unwrap_or(Task::ImageClassification);
    let slo_s = args.slos_for(task)[0];
    let workers = args.workers.unwrap_or_else(|| constant_load_workers(task));
    let d = if args.full { 100 } else { 20 };
    let load_step = if args.full { 400 } else { 800 };
    let loads: Vec<f64> = (1..)
        .map(|i| (400 + (i - 1) * load_step) as f64)
        .take_while(|&l| l <= 4_000.0)
        .collect();
    let profile = build_profile(task, slo_s);

    let mut rows: Vec<Row> = Vec::new();
    for (label, batching) in [
        ("maximal", Batching::Maximal),
        ("variable", Batching::Variable),
    ] {
        let config = PolicyConfig::builder(Duration::from_secs_f64(slo_s))
            .workers(workers)
            .discretization(Discretization::fixed_length(d))
            .batching(batching)
            .build();
        let (set, set_wall) = ramsis_policy_set_timed(&args.out_dir, &profile, &loads, &config);
        let summed_solve: f64 = set.policies().iter().map(|p| p.generation_seconds).sum();
        for &load in &loads {
            let trace = Trace::constant(load, 30.0);
            let mut scheme = RamsisScheme::new(set.clone());
            let r = run_scheme(
                &profile,
                workers,
                &trace,
                &mut scheme,
                MonitorKind::Oracle,
                LatencyMode::DeterministicP95,
                0xF11 ^ load as u64,
            );
            rows.push(Row {
                batching: label.to_string(),
                load_qps: load,
                accuracy: r.accuracy_per_satisfied_query,
                violation_rate: r.violation_rate,
                mean_batch: r.mean_batch,
                set_wall_seconds: set_wall,
                summed_solve_seconds: summed_solve,
            });
        }
    }

    println!(
        "\n=== Fig. 11 — batching strategies, {} task, SLO {:.0} ms, {workers} workers ===",
        task.name(),
        slo_s * 1e3
    );
    let mut table = Vec::new();
    for &load in &loads {
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.batching == label && r.load_qps == load)
                .expect("all combinations ran")
        };
        let m = get("maximal");
        let v = get("variable");
        table.push(vec![
            format!("{load}"),
            format!("{:.2}", m.accuracy),
            format!("{:.2}", v.accuracy),
            pct(m.violation_rate),
            pct(v.violation_rate),
            format!("{:.2}", m.mean_batch),
            format!("{:.2}", v.mean_batch),
        ]);
    }
    let header = [
        "load_qps",
        "max_acc",
        "var_acc",
        "max_viol",
        "var_viol",
        "max_meanbatch",
        "var_meanbatch",
    ];
    println!("{}", render_table(&header, &table));

    let first = |label: &str| {
        rows.iter()
            .find(|r| r.batching == label)
            .expect("both strategies ran")
    };
    let (max_row, var_row) = (first("maximal"), first("variable"));
    match (max_row.set_wall_seconds, var_row.set_wall_seconds) {
        (Some(m), Some(v)) => println!(
            "policy-set generation wall time: maximal {m:.2}s, variable {v:.2}s ({:.1}x)",
            v / m.max(1e-9)
        ),
        _ => println!("policy-set generation wall time: n/a (a set came from the policy cache)"),
    }
    let (m, v) = (max_row.summed_solve_seconds, var_row.summed_solve_seconds);
    println!(
        "summed per-policy solve time: maximal {m:.2}s, variable {v:.2}s ({:.1}x)",
        v / m.max(1e-9)
    );
    let max_gap = loads
        .iter()
        .filter_map(|&l| {
            let m = rows
                .iter()
                .find(|r| r.batching == "maximal" && r.load_qps == l)?;
            let v = rows
                .iter()
                .find(|r| r.batching == "variable" && r.load_qps == l)?;
            (m.violation_rate < 0.05 && v.violation_rate < 0.05)
                .then(|| (m.accuracy - v.accuracy).abs())
        })
        .fold(0.0f64, f64::max);
    println!("largest satisfiable accuracy gap: {max_gap:.2}% (paper: negligible)");

    write_json(&args.out_dir, "fig11_batching", &rows);
    write_csv(
        &args.out_dir,
        "fig11_batching",
        &[
            "batching",
            "load_qps",
            "accuracy",
            "violation_rate",
            "mean_batch",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.batching.clone(),
                    format!("{}", r.load_qps),
                    format!("{:.4}", r.accuracy),
                    format!("{:.6}", r.violation_rate),
                    format!("{:.3}", r.mean_batch),
                ]
            })
            .collect::<Vec<_>>(),
    );
}
