//! Multi-technology / multi-voltage cost sweep over the studies'
//! designs, emitting `BENCH_cost.json`.
//!
//! Usage: `cargo run -p pe-bench --release --bin cost_sweep` (set
//! `PE_BUDGET=quick` for a fast pass). Every point is costed once,
//! through the cost model of its (technology, supply) scenario.
//!
//! With `PE_STORE=<path>` pointing at a saved design store, the sweep
//! re-costs each dataset's stored selected design instead of
//! re-training — `BENCH_cost.json`'s "ours" rows then reproduce from
//! the store alone in milliseconds (exact baselines are not stored, so
//! the store-driven sweep has no "baseline" rows).

use pe_bench::format::write_json;
use pe_bench::study::run_studies;
use pe_bench::{sweep, BudgetPreset, Knobs};
use pe_store::DesignStore;

fn main() {
    let knobs = Knobs::from_env_or_exit();
    let points = match &knobs.store {
        Some(path) => {
            let store = match DesignStore::load(path) {
                Ok(store) => store,
                Err(err) => {
                    eprintln!("error: cannot load design store {}: {err}", path.display());
                    std::process::exit(1);
                }
            };
            let designs = sweep::designs_from_store(&store);
            println!(
                "re-costing {} stored selected design(s) from {} (no re-training)",
                designs.len(),
                path.display()
            );
            sweep::sweep_designs(&designs)
        }
        None => {
            let studies = run_studies(&knobs, knobs.budget.unwrap_or(BudgetPreset::Full), 0);
            sweep::sweep(&studies)
        }
    };
    println!("{}", sweep::render(&points));
    println!("{}", sweep::deployable_summary(&points));
    write_json("BENCH_cost", &points);
}
