//! Regenerate Table I: exact bespoke baseline evaluation.
//!
//! Usage: `cargo run -p pe-bench --release --bin table1` (set
//! `PE_BUDGET=quick` for a fast pass). Studies run in parallel through
//! `Pipeline::run_many`; the JSON artifact is byte-identical to a
//! single-threaded run.

use pe_bench::format::write_json;
use pe_bench::study::run_studies;
use pe_bench::{table1, BudgetPreset, Knobs};

fn main() {
    let knobs = Knobs::from_env_or_exit();
    let studies = run_studies(&knobs, knobs.budget.unwrap_or(BudgetPreset::Full), 0);
    let rows = table1::rows(&studies);
    println!("{}", table1::render(&rows));
    write_json("table1", &rows);
}
