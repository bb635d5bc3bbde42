//! Bench target regenerating Fig. 5 (printed-power-source feasibility
//! zones) at the quick budget; Criterion times the voltage-rescaling
//! and classification kernel.
//!
//! Full-budget reproduction: `cargo run -p pe-bench --release --bin fig5`.

use criterion::{criterion_group, criterion_main, Criterion};

use pe_bench::study::run_studies;
use pe_bench::{fig5, BudgetPreset, Knobs};
use pe_hw::{FeasibilityZones, VddModel};

fn bench(c: &mut Criterion) {
    let knobs = Knobs::from_env_or_exit();
    let studies = run_studies(&knobs, knobs.budget.unwrap_or(BudgetPreset::Quick), 0);
    let rows: Vec<_> = studies.iter().map(fig5::row).collect();
    println!("{}", fig5::render(&rows));
    if let Some(avg) = fig5::avg_power_reduction_0v6(&studies) {
        println!("Average power reduction at 0.6 V vs 1 V baseline: {avg:.0}x (paper: 912x)");
    }
    pe_bench::format::write_json("fig5_bench", &rows);

    let report = studies[0].baseline_report.clone();
    let vdd = VddModel::egfet();
    let zones = FeasibilityZones::paper();
    c.bench_function("vdd_rescale_and_classify", |b| {
        b.iter(|| {
            let low = report.at_vdd(&vdd, 0.6);
            zones.classify(low.area_cm2, low.power_mw)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
