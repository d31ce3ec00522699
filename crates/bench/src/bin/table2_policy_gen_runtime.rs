//! Table 2: policy-generation runtimes for the time-discretization and
//! batching strategies (§4.2.2).
//!
//! Rows: {MD, FLD D=100} × {variable, max} plus FLD D=10 × max, for the
//! low (9 Pareto models) and high (dense synthetic) model counts.
//!
//! Expected shape: FLD D=10 max << FLD D=100 max < MD max << the
//! variable-batching variants, and the dense model set blowing up MD
//! (the paper's 24-hour timeouts). Absolute numbers will differ from
//! the paper's Python/numba implementation — ours are much faster —
//! but the ordering is the reproducible claim.
//!
//! Quick mode uses the 150 ms SLO and a soft time budget; `--full` uses
//! the paper's 500 ms SLO setting (where `B_w ≈ 29`) and runs every
//! combination.

use ramsis_bench::harness::ramsis_config;
use ramsis_bench::{render_table, write_csv, write_json, ExperimentArgs};
use ramsis_core::{generate_policy, mdp_dimensions, Batching, Discretization, PoissonArrivals};
use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct Row {
    discretization: String,
    batching: String,
    models: usize,
    states: usize,
    actions: usize,
    runtime_s: Option<f64>,
}

fn main() {
    let args = ExperimentArgs::parse();
    let slo_s = args
        .slo_ms
        .map(|ms| ms as f64 / 1e3)
        .unwrap_or(if args.full { 0.5 } else { 0.15 });
    let workers = args.workers.unwrap_or(60);
    let load = args.load.unwrap_or(2_000.0);
    let process = PoissonArrivals::per_second(load);

    let base = ModelCatalog::torchvision_image();
    let dense = ModelCatalog::synthetic_interpolated(&base, 0.5);
    let catalogs = [("9 (Pareto of 26)", base), ("59 (dense)", dense)];

    // (discretization label, strategy, batching label, batching). Paper
    // Table 2 ordering.
    let combos: Vec<(&str, Discretization, &str, Batching)> = vec![
        (
            "MD",
            Discretization::ModelBased,
            "variable",
            Batching::Variable,
        ),
        (
            "FLD D=100",
            Discretization::fixed_length(100),
            "variable",
            Batching::Variable,
        ),
        ("MD", Discretization::ModelBased, "max", Batching::Maximal),
        (
            "FLD D=100",
            Discretization::fixed_length(100),
            "max",
            Batching::Maximal,
        ),
        (
            "FLD D=10",
            Discretization::fixed_length(10),
            "max",
            Batching::Maximal,
        ),
    ];
    // Quick-mode budget: skip combos whose state-action product predicts
    // multi-minute solves (the paper's "timeout" rows).
    let budget_state_actions: usize = if args.full { usize::MAX } else { 3_000_000 };

    let mut rows: Vec<Row> = Vec::new();
    let mut table = Vec::new();
    for (cat_label, catalog) in &catalogs {
        let profile = WorkerProfile::build(
            catalog,
            Duration::from_secs_f64(slo_s),
            ProfilerConfig::default(),
        );
        println!(
            "\ncatalog {cat_label}: B_w = {}, {} Pareto models",
            profile.max_batch(),
            profile.pareto_models().len()
        );
        for &(d_label, disc, b_label, batching) in &combos {
            let mut config = ramsis_config(slo_s, workers, 10);
            config.discretization = disc;
            config.batching = batching;
            let (states, actions) = mdp_dimensions(&profile, &config).expect("valid config");
            let runtime = if states.saturating_mul(actions / states.max(1)).max(actions)
                > budget_state_actions
            {
                None
            } else {
                let t0 = std::time::Instant::now();
                let policy = generate_policy(&profile, &process, &config).expect("generation");
                let dt = t0.elapsed().as_secs_f64();
                // Sanity: the policy is usable.
                assert!(policy.guarantees().expected_accuracy > 0.0);
                Some(dt)
            };
            let cell = match runtime {
                Some(t) => format!("{t:.2}"),
                None => "skipped (quick-mode budget; use --full)".to_string(),
            };
            table.push(vec![
                d_label.to_string(),
                b_label.to_string(),
                cat_label.to_string(),
                states.to_string(),
                actions.to_string(),
                cell,
            ]);
            rows.push(Row {
                discretization: d_label.to_string(),
                batching: b_label.to_string(),
                models: profile.pareto_models().len(),
                states,
                actions,
                runtime_s: runtime,
            });
        }
    }

    println!(
        "\n=== Table 2 — policy generation runtimes (SLO {:.0} ms, {workers} workers, \
         {load} QPS) ===",
        slo_s * 1e3
    );
    let header = ["TD", "batch", "models", "states", "actions", "runtime_s"];
    println!("{}", render_table(&header, &table));

    // Ordering checks on the rows that ran.
    let get = |d: &str, b: &str, m: usize| {
        rows.iter()
            .find(|r| r.discretization == d && r.batching == b && r.models == m)
            .and_then(|r| r.runtime_s)
    };
    // Check orderings on the largest model count that ran (sub-second
    // small-catalog runs are dominated by timing noise).
    let m_big = rows
        .iter()
        .filter(|r| r.runtime_s.is_some())
        .map(|r| r.models)
        .max()
        .unwrap_or(9);
    if let (Some(fld10), Some(fld100)) = (
        get("FLD D=10", "max", m_big),
        get("FLD D=100", "max", m_big),
    ) {
        println!("paper check: FLD D=10 max ({fld10:.2}s) < FLD D=100 max ({fld100:.2}s)");
        assert!(
            fld10 < fld100,
            "paper check failed: FLD D=10 max ({fld10:.2}s) is not faster than FLD D=100 max \
             ({fld100:.2}s)"
        );
    }
    if let (Some(maxb), Some(varb)) = (get("MD", "max", m_big), get("MD", "variable", m_big)) {
        println!(
            "note: MD max {maxb:.2}s vs MD variable {varb:.2}s — near-equal here, unlike \
             the paper's ~30x gap: our reorganized Eq. 2 sums make the extra partial-batch \
             rows cheap (see docs/transition_derivation.md), so variable batching's cost \
             is dominated by the shared full-batch rows."
        );
    }

    write_json(&args.out_dir, "table2_policy_gen_runtime", &rows);
    write_csv(&args.out_dir, "table2_policy_gen_runtime", &header, &table);
}
