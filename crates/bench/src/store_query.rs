//! Design-store ingest/query benchmark (`BENCH_store.json`).
//!
//! Quantifies what the persistent design store buys:
//!
//! 1. **Ingest overhead** — the same study suite runs storeless and
//!    store-attached (ingest-only, so both produce identical
//!    artifacts); the wall-clock delta is the cost of recording every
//!    unique design.
//! 2. **Dedup ratio** — how many evaluations collapsed onto already
//!    stored designs (GA populations revisit genomes constantly).
//! 3. **Query latency** — answering "best design within budget under
//!    scenario X" from the store is a pure re-costing read
//!    ([`printed_axc::select_from_store`]); a scenario grid over the
//!    built-in technologies and the supply grid is timed per query and
//!    compared against the GA wall-clock that produced the designs.
//!
//! The run also asserts **parity**: under each study's own scenario
//! and budgets, the store query returns exactly the design the live
//! pipeline selected.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use pe_datasets::Dataset;
use pe_hw::{CostScenario, TechLibrary};
use pe_store::{DesignStore, StoreWriter};
use printed_axc::{
    select_from_store, store_front, Pipeline, RunManyOptions, Selected, StudyConfig,
};

use crate::format::render_table;
use crate::knobs::Knobs;
use crate::study::{study_config, BudgetPreset};
use crate::sweep::SUPPLY_GRID;

/// One timed store query of the scenario grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioQueryRow {
    /// Dataset display name (the store's dataset key).
    pub dataset: String,
    /// Technology library name.
    pub tech: String,
    /// Operating supply in volts.
    pub supply_v: f64,
    /// Accuracy-loss budget the query selected under.
    pub max_loss: f64,
    /// Size of the store-side Pareto front at this scenario.
    pub front_size: usize,
    /// Selected design's area in cm² (`None` when nothing fit).
    pub selected_area_cm2: Option<f64>,
    /// Selected design's test accuracy (`None` when nothing fit).
    pub selected_test_accuracy: Option<f64>,
    /// Wall-clock of the query in microseconds.
    pub query_micros: u64,
}

/// The full `BENCH_store.json` report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreBenchReport {
    /// The store file the benchmark wrote and queried.
    pub store_path: String,
    /// Unique designs the store holds.
    pub records: usize,
    /// Ingest counter: unique designs written.
    pub ingested: u64,
    /// Ingest counter: evaluations collapsed onto stored designs.
    pub deduplicated: u64,
    /// `deduplicated / (ingested + deduplicated)`.
    pub dedup_ratio: f64,
    /// Bytes appended to the store file.
    pub bytes_written: u64,
    /// Wall-clock of the storeless study suite, in milliseconds.
    pub storeless_wall_ms: f64,
    /// Wall-clock of the identical store-attached suite.
    pub store_wall_ms: f64,
    /// `(store_wall - storeless_wall) / storeless_wall`, in percent.
    pub ingest_overhead_pct: f64,
    /// Every timed query of the scenario grid.
    pub scenario_queries: Vec<ScenarioQueryRow>,
    /// Mean query latency over the grid, in microseconds.
    pub mean_query_micros: f64,
    /// GA wall-clock over mean query latency — how much faster a store
    /// query answers a scenario question than re-running the search.
    pub query_speedup_vs_ga: f64,
}

/// The (technology, supply) grid the queries sweep — the same clamped,
/// deduplicated grid as the cost sweep.
#[must_use]
pub fn scenario_grid() -> Vec<CostScenario> {
    let mut grid = Vec::new();
    for tech in TechLibrary::builtin() {
        let mut supplies: Vec<f64> = SUPPLY_GRID
            .iter()
            .map(|v| v.clamp(tech.min_vdd, tech.nominal_vdd))
            .collect();
        supplies.dedup();
        for supply in supplies {
            grid.push(CostScenario::nominal(tech.clone()).at_supply(supply));
        }
    }
    grid
}

fn run_suite(config: &StudyConfig, opts: &RunManyOptions) -> (Vec<Selected>, f64) {
    let start = Instant::now();
    let selected = Pipeline::run_many_selected(&Dataset::ALL, config, opts)
        .expect("bench presets are valid and uncancelled");
    (selected, start.elapsed().as_secs_f64() * 1e3)
}

/// Run the full benchmark: storeless suite, store-attached suite,
/// parity check, scenario-grid queries.
///
/// # Panics
///
/// Panics when a study fails, when the store cannot be written, or
/// when a store query under a study's own scenario disagrees with the
/// live pipeline's selection — all three are bugs, not conditions.
#[must_use]
pub fn run(knobs: &Knobs, budget: BudgetPreset, seed: u64) -> StoreBenchReport {
    let config = study_config(budget, seed);
    // Deliberately NOT `knobs.run_many_options()`: a `PE_STORE` knob
    // must not contaminate the storeless baseline timing.
    let opts = RunManyOptions::with_threads(knobs.thread_budget());
    let (_, storeless_wall_ms) = run_suite(&config, &opts);

    let store_path = PathBuf::from("target/experiments/store_query.jsonl");
    if let Some(dir) = store_path.parent() {
        std::fs::create_dir_all(dir).expect("can create target/experiments");
    }
    let _ = std::fs::remove_file(&store_path);
    let writer = Arc::new(StoreWriter::open(&store_path).expect("can open a fresh store"));
    let mut store_opts = RunManyOptions::with_threads(knobs.thread_budget());
    store_opts.store = Some(Arc::clone(&writer));
    let (selected, store_wall_ms) = run_suite(&config, &store_opts);
    let stats = writer.stats();
    drop(writer);

    let store = DesignStore::load(&store_path).expect("the store just written loads");
    assert_selection_parity(&store, &selected, &config.scenario);

    let mut scenario_queries = Vec::new();
    for sel in &selected {
        let dataset = sel.searched.costed.float.prepared.dataset.spec().name;
        let baseline = sel.searched.costed.baseline_test_accuracy;
        for scenario in scenario_grid() {
            let model = pe_hw::ExactCostModel::new(scenario.clone());
            let front_size = store_front(&store, dataset, &model).len();
            let start = Instant::now();
            let picked = select_from_store(
                &store,
                dataset,
                scenario.clone(),
                baseline,
                sel.loss_budget,
                scenario.power_budget_mw,
            );
            let query_micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            scenario_queries.push(ScenarioQueryRow {
                dataset: dataset.to_owned(),
                tech: scenario.tech.name.clone(),
                supply_v: scenario.supply_v,
                max_loss: sel.loss_budget,
                front_size,
                selected_area_cm2: picked.as_ref().map(|p| p.report.area_cm2),
                selected_test_accuracy: picked.as_ref().map(|p| p.test_accuracy),
                query_micros,
            });
        }
    }

    let mean_query_micros = if scenario_queries.is_empty() {
        0.0
    } else {
        scenario_queries
            .iter()
            .map(|r| r.query_micros as f64)
            .sum::<f64>()
            / scenario_queries.len() as f64
    };
    let evaluations = stats.ingested + stats.deduplicated;
    StoreBenchReport {
        store_path: store_path.display().to_string(),
        records: store.records().len(),
        ingested: stats.ingested,
        deduplicated: stats.deduplicated,
        dedup_ratio: if evaluations == 0 {
            0.0
        } else {
            stats.deduplicated as f64 / evaluations as f64
        },
        bytes_written: stats.bytes_written,
        storeless_wall_ms,
        store_wall_ms,
        ingest_overhead_pct: if storeless_wall_ms > 0.0 {
            100.0 * (store_wall_ms - storeless_wall_ms) / storeless_wall_ms
        } else {
            0.0
        },
        mean_query_micros,
        query_speedup_vs_ga: if mean_query_micros > 0.0 {
            storeless_wall_ms * 1e3 / mean_query_micros
        } else {
            f64::INFINITY
        },
        scenario_queries,
    }
}

/// Assert that, under each study's own scenario and budgets, the store
/// returns exactly the design the live pipeline selected.
fn assert_selection_parity(store: &DesignStore, selected: &[Selected], scenario: &CostScenario) {
    for sel in selected {
        let dataset = sel.searched.costed.float.prepared.dataset.spec().name;
        let from_store = select_from_store(
            store,
            dataset,
            scenario.clone(),
            sel.searched.costed.baseline_test_accuracy,
            sel.loss_budget,
            scenario.power_budget_mw,
        );
        match (&sel.selected, &from_store) {
            (None, None) => {}
            (Some(live), Some(stored)) => {
                assert!(
                    live.report.area_cm2 == stored.report.area_cm2
                        && live.test_accuracy == stored.test_accuracy,
                    "store query disagrees with live selection for {dataset}: \
                     live ({}, {}) vs store ({}, {})",
                    live.report.area_cm2,
                    live.test_accuracy,
                    stored.report.area_cm2,
                    stored.test_accuracy
                );
            }
            (live, stored) => panic!(
                "store query disagrees with live selection for {dataset}: \
                 live selected {} vs store selected {}",
                live.is_some(),
                stored.is_some()
            ),
        }
    }
}

/// Render the scenario-grid queries as a table.
#[must_use]
pub fn render(report: &StoreBenchReport) -> String {
    render_table(
        "Design-store scenario queries (pure re-costing reads; parity-checked vs live selection)",
        &[
            "Dataset",
            "Tech",
            "Vdd",
            "Front",
            "Area(cm2)",
            "Test acc",
            "Query(us)",
        ],
        &report
            .scenario_queries
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.tech.clone(),
                    format!("{:.1}", r.supply_v),
                    format!("{}", r.front_size),
                    r.selected_area_cm2
                        .map_or_else(|| "-".to_owned(), |a| format!("{a:.3}")),
                    r.selected_test_accuracy
                        .map_or_else(|| "-".to_owned(), |a| format!("{:.2}%", a * 100.0)),
                    format!("{}", r.query_micros),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// One-line benchmark headline.
#[must_use]
pub fn summary(report: &StoreBenchReport) -> String {
    format!(
        "store: {} unique designs ({} KiB), {:.1}% of evaluations deduplicated, \
         ingest overhead {:+.1}%, mean query {:.0} us ({:.0}x faster than the GA run)",
        report.records,
        report.bytes_written / 1024,
        100.0 * report.dedup_ratio,
        report.ingest_overhead_pct,
        report.mean_query_micros,
        report.query_speedup_vs_ga
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_grid_is_nonempty_and_within_range() {
        let grid = scenario_grid();
        assert!(!grid.is_empty());
        for scenario in &grid {
            assert!(scenario.supply_v >= scenario.tech.min_vdd);
            assert!(scenario.supply_v <= scenario.tech.nominal_vdd);
        }
    }

    #[test]
    fn render_and_summary_handle_empty_reports() {
        let report = StoreBenchReport {
            store_path: String::new(),
            records: 0,
            ingested: 0,
            deduplicated: 0,
            dedup_ratio: 0.0,
            bytes_written: 0,
            storeless_wall_ms: 0.0,
            store_wall_ms: 0.0,
            ingest_overhead_pct: 0.0,
            scenario_queries: Vec::new(),
            mean_query_micros: 0.0,
            query_speedup_vs_ga: f64::INFINITY,
        };
        assert!(render(&report).contains("Design-store"));
        assert!(summary(&report).contains("0 unique designs"));
    }
}
