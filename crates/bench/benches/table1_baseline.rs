//! Bench target regenerating Table I (baseline evaluation) at the
//! quick budget, plus Criterion timing of the baseline-construction
//! kernel (train → quantize → elaborate).
//!
//! Full-budget reproduction: `cargo run -p pe-bench --release --bin table1`.

use criterion::{criterion_group, criterion_main, Criterion};

use pe_bench::study::run_studies;
use pe_bench::{table1, BudgetPreset, Knobs};
use pe_datasets::{generate, stratified_split, Dataset};
use pe_hw::{Elaborator, TechLibrary};
use pe_mlp::{fixed_to_hardware, FixedMlp, QuantConfig, Topology, TrainConfig};

fn bench(c: &mut Criterion) {
    // Print the table once, from a quick run.
    let knobs = Knobs::from_env_or_exit();
    let studies = run_studies(&knobs, knobs.budget.unwrap_or(BudgetPreset::Quick), 0);
    let rows = table1::rows(&studies);
    println!("{}", table1::render(&rows));
    pe_bench::format::write_json("table1_bench", &rows);

    // Criterion kernel: quantize + elaborate the BC baseline.
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
    let elab = Elaborator::new(TechLibrary::egfet());

    c.bench_function("quantize_bc_baseline", |b| {
        b.iter(|| FixedMlp::quantize(&mlp, QuantConfig::default(), &split.train.features))
    });
    let fixed = FixedMlp::quantize(&mlp, QuantConfig::default(), &split.train.features);
    c.bench_function("elaborate_bc_baseline", |b| {
        b.iter(|| {
            elab.elaborate(&fixed_to_hardware(&fixed, "bc"))
                .report
                .area_cm2
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
