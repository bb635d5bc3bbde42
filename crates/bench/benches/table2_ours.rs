//! Bench target regenerating Table II (our approximate MLPs at ≤5%
//! loss) at the quick budget, plus Criterion timing of the GA fitness
//! kernel — the inner loop of the whole framework.
//!
//! Full-budget reproduction: `cargo run -p pe-bench --release --bin table2`.

use criterion::{criterion_group, criterion_main, Criterion};

use pe_bench::study::run_studies;
use pe_bench::{table2, BudgetPreset, Knobs};
use pe_datasets::{generate, quantize, stratified_split, Dataset};
use pe_mlp::{FixedMlp, QuantConfig, Topology, TrainConfig};
use pe_nsga::{random_genome, IntProblem};
use printed_axc::{AxTrainProblem, HwAwareTrainer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let knobs = Knobs::from_env_or_exit();
    let studies = run_studies(&knobs, knobs.budget.unwrap_or(BudgetPreset::Quick), 0);
    let rows = table2::rows(&studies);
    println!("{}", table2::render(&rows));
    let (ga, gp) = table2::geomean_reductions(&rows);
    println!(
        "Geomean reductions (quick budget): area {}  power {}",
        ga.map_or("-".into(), |v| format!("{v:.1}x")),
        gp.map_or("-".into(), |v| format!("{v:.1}x")),
    );
    pe_bench::format::write_json("table2_bench", &rows);

    // Criterion kernel: one chromosome evaluation on Breast Cancer.
    let spec = Dataset::BreastCancer.spec();
    let data = generate(Dataset::BreastCancer, 0);
    let split = stratified_split(&data, 0.7, 0).expect("valid fraction");
    let sgd = TrainConfig {
        epochs: 20,
        seed: 0,
        ..TrainConfig::default()
    };
    let (mlp, _) = pe_mlp::train::train_best_of(
        &Topology::new(spec.topology()),
        &split.train.features,
        &split.train.labels,
        &sgd,
        1,
    );
    let fixed = FixedMlp::quantize(&mlp, QuantConfig::default(), &split.train.features);
    let train_q = quantize(&split.train, 4);
    let trainer = HwAwareTrainer::new(printed_axc::AxTrainConfig::default());
    let genome = trainer.genome_spec_for(&fixed);
    let problem = AxTrainProblem::new(
        genome.clone(),
        train_q.features.clone(),
        train_q.labels.clone(),
        0.95,
        0.10,
    );
    let mut rng = StdRng::seed_from_u64(1);
    let genes = random_genome(genome.bounds(), &mut rng);

    c.bench_function("ga_fitness_eval_bc", |b| {
        b.iter(|| problem.evaluate(&genes))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
