//! Criterion micro-benchmarks for the performance-critical kernels:
//! arrival-count table construction, §4.4 transition-row computation,
//! value iteration, the online policy lookup, Pareto pruning, and raw
//! simulator throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::time::Duration;

use ramsis_core::action::Action;
use ramsis_core::transitions::TransitionBuilder;
use ramsis_core::{
    assemble_mdp_for_bench, generate_policy, Discretization, PoissonArrivals, PolicyConfig, State,
    StateSpace, TimeGrid,
};
use ramsis_mdp::{value_iteration, SolveOptions, StopRule};
use ramsis_profiles::{pareto_front, ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_sim::{Routing, Selection, ServingScheme, Simulation, SimulationConfig};
use ramsis_stats::counts::ArrivalProcess;
use ramsis_workload::{LoadMonitor, Trace};

fn profile() -> WorkerProfile {
    WorkerProfile::build(
        &ModelCatalog::torchvision_image(),
        Duration::from_millis(150),
        ProfilerConfig::default(),
    )
}

fn bench_count_table(c: &mut Criterion) {
    let process = PoissonArrivals::per_second(4_000.0);
    c.bench_function("count_table_build_500ms", |b| {
        b.iter(|| black_box(&process).table(black_box(0.5), 1e-12))
    });
    let table = process.table(0.5, 1e-12);
    c.bench_function("count_table_mass_in", |b| {
        b.iter(|| black_box(&table).mass_in(black_box(1_900), black_box(2_100)))
    });
}

fn bench_transition_row(c: &mut Criterion) {
    let profile = profile();
    let slo = 0.15;
    let grid = TimeGrid::build(&profile, slo, Discretization::fixed_length(100));
    let space = StateSpace::new(profile.max_batch() + 3, grid.len() as u32);
    let process = PoissonArrivals::per_second(2_000.0);
    let builder = TransitionBuilder::new(&profile, &grid, &space, &process, 60, slo, 1e-12, 1e-12);
    let state = State::Queued {
        n: 4,
        slack: grid.top() as u32 / 2,
    };
    let action = Action::Serve {
        model: profile.fastest_model() as u32,
        batch: 4,
    };
    // Warm the table cache so the bench measures the hot path.
    let _ = builder.row(state, action);
    c.bench_function("transition_row_warm_d100", |b| {
        b.iter(|| black_box(&builder).row(black_box(state), black_box(action)))
    });
}

fn bench_value_iteration(c: &mut Criterion) {
    let profile = profile();
    let config = PolicyConfig::builder(Duration::from_millis(150))
        .workers(60)
        .discretization(Discretization::fixed_length(25))
        .build();
    let process = PoissonArrivals::per_second(2_000.0);
    let mdp = assemble_mdp_for_bench(&profile, &process, &config).expect("assembles");
    c.bench_function("value_iteration_d25", |b| {
        b.iter(|| {
            value_iteration(
                black_box(&mdp),
                &SolveOptions {
                    discount: 0.99,
                    tolerance: 1e-6,
                    max_iterations: 100_000,
                    stop: StopRule::ValueTolerance,
                },
            )
        })
    });
}

fn bench_policy_generation(c: &mut Criterion) {
    let profile = profile();
    let config = PolicyConfig::builder(Duration::from_millis(150))
        .workers(60)
        .discretization(Discretization::fixed_length(10))
        .build();
    let process = PoissonArrivals::per_second(2_000.0);
    c.bench_function("generate_policy_end_to_end_d10", |b| {
        b.iter(|| generate_policy(black_box(&profile), black_box(&process), black_box(&config)))
    });
}

fn bench_simulator(c: &mut Criterion) {
    let profile = profile();
    struct Fastest(usize);
    impl ServingScheme for Fastest {
        fn name(&self) -> &str {
            "fastest"
        }
        fn routing(&self) -> Routing {
            Routing::Central
        }
        fn select(&mut self, ctx: &ramsis_sim::scheme::SelectionContext) -> Selection {
            Selection::Serve {
                model: self.0,
                batch: (ctx.queued as u32).min(8),
            }
        }
    }
    let trace = Trace::constant(2_000.0, 5.0);
    let sim = Simulation::new(&profile, SimulationConfig::new(60, 0.15))
        .expect("valid simulation config");
    c.bench_function("simulate_10k_queries", |b| {
        b.iter_batched(
            || (Fastest(profile.fastest_model()), LoadMonitor::new()),
            |(mut scheme, mut monitor)| sim.run(black_box(&trace), &mut scheme, &mut monitor),
            BatchSize::PerIteration,
        )
    });
}

fn bench_pareto(c: &mut Criterion) {
    let points: Vec<(f64, f64)> = (0..1_000)
        .map(|i| {
            let x = (i as f64 * 0.7901).fract();
            let y = (i as f64 * 0.3571).fract();
            (x, y * 100.0)
        })
        .collect();
    c.bench_function("pareto_front_1000", |b| {
        b.iter(|| pareto_front(black_box(&points)))
    });
}

fn bench_policy_decide(c: &mut Criterion) {
    let profile = profile();
    let config = PolicyConfig::builder(Duration::from_millis(150))
        .workers(60)
        .discretization(Discretization::fixed_length(100))
        .build();
    let policy = generate_policy(&profile, &PoissonArrivals::per_second(2_000.0), &config)
        .expect("generates");
    c.bench_function("policy_decide_lookup", |b| {
        b.iter(|| black_box(&policy).decide(black_box(5), black_box(0.087)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_count_table,
    bench_transition_row,
    bench_value_iteration,
    bench_policy_generation,
    bench_simulator,
    bench_pareto,
    bench_policy_decide
);
criterion_main!(benches);
