//! Nominal vs variation-robust search comparison, emitting
//! `BENCH_robust.json`.
//!
//! Usage: `cargo run -p pe-bench --release --bin fig_robust` (set
//! `PE_BUDGET=quick` for a fast pass). Each dataset is searched twice
//! at one master seed — nominal, and robust over Monte-Carlo
//! process-variation trials — and both fronts are judged by the same
//! held-out Monte-Carlo evaluation on the test split.

use pe_bench::format::write_json;
use pe_bench::{robust, BudgetPreset, Knobs};

fn main() {
    let knobs = Knobs::from_env_or_exit();
    let rows = robust::compare(&knobs, knobs.budget.unwrap_or(BudgetPreset::Full), 0);
    println!("{}", robust::render(&rows));
    println!("{}", robust::summary(&rows));
    write_json("BENCH_robust", &rows);
}
