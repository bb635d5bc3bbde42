//! Bench target regenerating Table III (training execution times):
//! measures the three trainers at the quick budget and prints the
//! paper-format rows; Criterion additionally times one plain-GA
//! generation.
//!
//! Full-budget reproduction: `cargo run -p pe-bench --release --bin table3`.

use criterion::{criterion_group, criterion_main, Criterion};

use pe_bench::table3::{self, Table3Budget};
use pe_bench::Knobs;
use pe_datasets::{generate, quantize, stratified_split, Dataset};
use pe_mlp::{FixedMlp, QuantConfig, Topology, TrainConfig};
use pe_nsga::{Nsga2, NsgaConfig};
use printed_axc::PlainGaProblem;

fn bench(c: &mut Criterion) {
    let threads = Knobs::from_env_or_exit().thread_budget();
    let rows: Vec<_> = Dataset::ALL
        .iter()
        .map(|&d| table3::measure(d, &Table3Budget::quick(), 0, threads))
        .collect();
    println!("{}", table3::render(&rows));
    pe_bench::format::write_json("table3_bench", &rows);

    // Criterion kernel: a small plain-GA run on Breast Cancer.
    let spec = Dataset::BreastCancer.spec();
    let data = generate(Dataset::BreastCancer, 0);
    let split = stratified_split(&data, 0.7, 0).expect("valid fraction");
    let sgd = TrainConfig {
        epochs: 10,
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
    let problem = PlainGaProblem::new(&fixed, &train_q, Some(200), 8, 12);

    c.bench_function("plain_ga_generation_bc", |b| {
        b.iter(|| {
            Nsga2::new(NsgaConfig {
                population: 16,
                generations: 1,
                seed: 0,
                ..NsgaConfig::default()
            })
            .run(&problem)
            .evaluations
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
