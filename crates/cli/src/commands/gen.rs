//! `ramsis-cli gen` — the artifact's `RAMSIS_gen.py`.
//!
//! Generates RAMSIS model-selection policies. With `--load`, generates
//! one policy; without, sweeps the artifact's default grid "query load
//! ranging from 200 to 4,000 QPS in intervals of 200" (§A.4.2); with
//! `--adaptive LO:HI`, refines the grid until adjacent policies'
//! expected accuracies differ by less than 1% (§6's rule). Each policy
//! lands at `policy_gen/RAMSIS_WORKERS_SLO/LOAD.json`.

use ramsis_core::{Discretization, PolicyConfig, PolicySet, WorkerPolicy};

use crate::cli_args::CommonArgs;
use crate::commands::{build_profile, policy_dir, write_json_file};

pub fn run(args: &[String]) -> Result<(), String> {
    let args = CommonArgs::parse(args, &["--adaptive", "--gap"])?;
    let profile = build_profile(&args);
    let config = PolicyConfig::builder(std::time::Duration::from_secs_f64(args.slo_s()))
        .workers(args.workers)
        .discretization(Discretization::fixed_length(args.d))
        .build();
    let dir = policy_dir(&args.out, "RAMSIS", args.workers, args.slo_ms);

    let policies: Vec<WorkerPolicy> = if let Some(range) = args.extra("--adaptive") {
        // §6: refine until adjacent expected accuracies differ < 1%.
        let (lo, hi) = range
            .split_once(':')
            .ok_or("--adaptive expects LO:HI, e.g. 200:4000")?;
        let lo: f64 = lo.parse().map_err(|e| format!("bad --adaptive low: {e}"))?;
        let hi: f64 = hi
            .parse()
            .map_err(|e| format!("bad --adaptive high: {e}"))?;
        let gap: f64 = args
            .extra("--gap")
            .unwrap_or("1.0")
            .parse()
            .map_err(|e| format!("bad --gap: {e}"))?;
        let set = PolicySet::generate_poisson_adaptive(&profile, lo, hi, &config, gap, 64)
            .map_err(|e| e.to_string())?;
        println!(
            "adaptive refinement produced {} policies at loads {:?}",
            set.len(),
            set.loads().iter().map(|l| l.round()).collect::<Vec<_>>()
        );
        set.policies().to_vec()
    } else {
        let loads: Vec<f64> = match args.load {
            Some(l) => vec![l],
            None => (1..=20).map(|i| 200.0 * i as f64).collect(),
        };
        PolicySet::generate_poisson(&profile, &loads, &config)
            .map_err(|e| e.to_string())?
            .policies()
            .to_vec()
    };

    for policy in &policies {
        let g = policy.guarantees();
        println!(
            "load {:>6.0}: E[accuracy] {:.2}%  E[violations] {:.4}%  ({:.2}s, {} sweeps)",
            policy.design_load_qps,
            g.expected_accuracy,
            g.expected_violation_rate * 100.0,
            policy.generation_seconds,
            policy.solve_iterations
        );
        write_json_file(
            &dir.join(format!("{}.json", policy.design_load_qps)),
            policy,
        )?;
    }
    println!("script complete!");
    Ok(())
}
