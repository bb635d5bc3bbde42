//! Design-store ingest/query benchmark, emitting `BENCH_store.json`.
//!
//! Usage: `cargo run -p pe-bench --release --bin store_query` (set
//! `PE_BUDGET=quick` for a fast pass). Runs the study suite twice —
//! storeless and store-attached — to measure ingest overhead and dedup
//! ratio, asserts that store queries under each study's own scenario
//! reproduce the live selections exactly, then times a scenario-grid
//! of "best design within budget" queries against the populated store.

use pe_bench::format::write_json;
use pe_bench::{store_query, BudgetPreset, Knobs};

fn main() {
    let knobs = Knobs::from_env_or_exit();
    let report = store_query::run(&knobs, knobs.budget.unwrap_or(BudgetPreset::Full), 0);
    println!("{}", store_query::render(&report));
    println!("{}", store_query::summary(&report));
    write_json("BENCH_store", &report);
}
