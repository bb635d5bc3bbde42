//! Bench target regenerating Fig. 4 (normalized area/power vs the
//! state of the art) at the quick budget; Criterion times the TC'23
//! post-training search kernel.
//!
//! Full-budget reproduction: `cargo run -p pe-bench --release --bin fig4`.

use criterion::{criterion_group, criterion_main, Criterion};

use pe_baselines::{approximate_tc23, Tc23Config};
use pe_bench::study::run_selected;
use pe_bench::{fig4, BudgetPreset, Knobs};

fn bench(c: &mut Criterion) {
    let knobs = Knobs::from_env_or_exit();
    let selected = run_selected(&knobs, knobs.budget.unwrap_or(BudgetPreset::Quick), 0);
    let engines = fig4::paper_engines();
    let tech = pe_hw::TechLibrary::egfet();
    let rows: Vec<_> = selected
        .iter()
        .map(|s| fig4::row(s, &engines, &tech, knobs.thread_budget()))
        .collect();
    println!("{}", fig4::render(&rows));
    pe_bench::format::write_json("fig4_bench", &rows);

    // Criterion kernel: the TC'23 coefficient-replacement search on the
    // Breast Cancer baseline from the study's stage artifacts.
    let bc = &selected[0].searched.costed;
    let train = &bc.float.prepared.train;
    let n = 200.min(train.features.len());
    let tuning_rows = train.features.head(n);
    c.bench_function("tc23_search_bc", |b| {
        b.iter(|| {
            approximate_tc23(
                &bc.baseline,
                &tuning_rows,
                &train.labels[..n],
                &Tc23Config::default(),
            )
            .trunc_bits
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
