//! Regenerate Fig. 5: printed-power-source feasibility zones.
//!
//! Usage: `cargo run -p pe-bench --release --bin fig5` (set
//! `PE_BUDGET=quick` for a fast pass).

use pe_bench::format::write_json;
use pe_bench::study::run_studies;
use pe_bench::{fig5, BudgetPreset, Knobs};

fn main() {
    let knobs = Knobs::from_env_or_exit();
    let studies = run_studies(&knobs, knobs.budget.unwrap_or(BudgetPreset::Full), 0);
    let rows: Vec<_> = studies.iter().map(fig5::row).collect();
    println!("{}", fig5::render(&rows));
    if let Some(avg) = fig5::avg_power_reduction_0v6(&studies) {
        println!("Average power reduction at 0.6 V vs 1 V baseline: {avg:.0}x (paper: 912x)");
    }
    write_json("fig5", &rows);
}
