//! Regenerate Fig. 4: normalized area/power vs the state of the art.
//!
//! Usage: `cargo run -p pe-bench --release --bin fig4` (set
//! `PE_BUDGET=quick` for a fast pass). Ours runs through the staged
//! pipeline; the prior-work methods run as `SearchEngine`s against the
//! same baseline-costed stage.

use pe_bench::format::write_json;
use pe_bench::study::run_selected;
use pe_bench::{fig4, BudgetPreset, Knobs};

fn main() {
    let knobs = Knobs::from_env_or_exit();
    let selected = run_selected(&knobs, knobs.budget.unwrap_or(BudgetPreset::Full), 0);
    let engines = fig4::paper_engines();
    let tech = pe_hw::TechLibrary::egfet();
    let rows: Vec<_> = selected
        .iter()
        .map(|s| fig4::row(s, &engines, &tech, knobs.thread_budget()))
        .collect();
    println!("{}", fig4::render(&rows));
    write_json("fig4", &rows);
}
