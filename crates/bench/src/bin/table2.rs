//! Regenerate Table II: our approximate MLPs at ≤5% accuracy loss.
//!
//! Usage: `cargo run -p pe-bench --release --bin table2` (set
//! `PE_BUDGET=quick` for a fast pass). Studies run in parallel through
//! `Pipeline::run_many`; the JSON artifact is byte-identical to a
//! single-threaded run.

use pe_bench::format::write_json;
use pe_bench::study::run_studies;
use pe_bench::{study_config, table2, BudgetPreset, Knobs};

fn main() {
    let knobs = Knobs::from_env_or_exit();
    let budget = knobs.budget.unwrap_or(BudgetPreset::Full);
    let studies = run_studies(&knobs, budget, 0);
    let rows = table2::rows(&studies);
    println!("{}", table2::render(&rows));
    let (ga, gp) = table2::geomean_reductions(&rows);
    let (pa, pp) = table2::paper_geomean_reductions(&rows);
    let fmt = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.1}x"));
    println!(
        "Geomean reductions: area {}  power {}   (paper geomean over the same rows: {} / {})",
        fmt(ga),
        fmt(gp),
        fmt(pa),
        fmt(pp),
    );
    for note in table2::notes(&studies, study_config(budget, 0).accuracy_loss_budget) {
        println!("{note}");
    }
    write_json("table2", &rows);
}
