//! Regenerate Table III: training execution times.
//!
//! Usage: `cargo run -p pe-bench --release --bin table3` (set
//! `PE_BUDGET=quick` for a fast pass).

use pe_bench::format::write_json;
use pe_bench::table3::{self, Table3Budget};
use pe_bench::{BudgetPreset, Knobs};
use pe_datasets::Dataset;

fn main() {
    let knobs = Knobs::from_env_or_exit();
    let budget = match knobs.budget.unwrap_or(BudgetPreset::Full) {
        BudgetPreset::Quick => Table3Budget::quick(),
        BudgetPreset::Full => Table3Budget::full(),
    };
    let rows: Vec<_> = Dataset::ALL
        .iter()
        .map(|&d| table3::measure(d, &budget, 0, knobs.thread_budget()))
        .collect();
    println!("{}", table3::render(&rows));
    println!("Reproduction target: grad << GA ~ GA-AxC (the paper's ratios, not minutes).");
    write_json("table3", &rows);
}
