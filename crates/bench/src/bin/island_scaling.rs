//! Island-model search scaling sweep, emitting `BENCH_islands.json`.
//!
//! Usage: `cargo run -p pe-bench --release --bin island_scaling` (set
//! `PE_BUDGET=quick` for a fast pass). Sweeps island count × evaluator
//! worker threads on one dataset at a fixed evaluation budget,
//! recording wall-clock speedup and merged-front size/hypervolume vs
//! the single-population engine — and asserting the merged front is
//! byte-identical at every worker count before writing the report.

use pe_bench::format::write_json;
use pe_bench::{island, BudgetPreset, Knobs};

fn main() {
    let budget = Knobs::from_env_or_exit()
        .budget
        .unwrap_or(BudgetPreset::Full);
    let report = island::sweep(budget, 0);
    println!("{}", island::render(&report));
    println!("note: {}", report.note);
    write_json("BENCH_islands", &report);
}
