//! Shared study execution and budget presets.
//!
//! All experiments run through the staged pipeline API
//! ([`printed_axc::Pipeline`]): [`run_studies`] executes every dataset
//! on a worker pool with deterministic per-dataset seeds
//! ([`printed_axc::derive_seed`]), so the resulting JSON artifacts are
//! byte-identical whether one thread or many executed them.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use pe_datasets::Dataset;

use pe_nsga::NsgaConfig;
use printed_axc::{
    AxTrainConfig, DatasetStudy, Pipeline, ProgressEvent, RunManyOptions, Selected, StudyConfig,
};

use crate::knobs::Knobs;

/// How much compute an experiment run may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetPreset {
    /// Seconds per dataset: for smoke runs and CI.
    Quick,
    /// A couple of minutes per dataset, the default for `--bin` runs:
    /// population 150 × 700 generations on a 2000-row fitness
    /// subsample. Whether the Pareto fronts saturate at this budget is
    /// not measured.
    Full,
}

/// The study configuration used by every experiment at the given
/// budget — a pure function of its arguments. One master seed governs
/// the whole flow (each dataset runs at a seed derived from it), so
/// tables regenerate bit-identically.
#[must_use]
pub fn study_config(budget: BudgetPreset, seed: u64) -> StudyConfig {
    match budget {
        BudgetPreset::Quick => StudyConfig {
            seed,
            ga: AxTrainConfig {
                fitness_subsample: Some(500),
                nsga: NsgaConfig {
                    population: 32,
                    generations: 24,
                    mutation_prob: 0.03,
                    seed,
                    ..NsgaConfig::default()
                },
                ..AxTrainConfig::default()
            },
            sgd_epochs_scale: 0.3,
            ..StudyConfig::default()
        },
        BudgetPreset::Full => StudyConfig {
            seed,
            ga: AxTrainConfig {
                fitness_subsample: Some(2000),
                nsga: NsgaConfig {
                    population: 150,
                    generations: 700,
                    mutation_prob: 0.015,
                    creep_fraction: 0.6,
                    seed,
                    ..NsgaConfig::default()
                },
                ..AxTrainConfig::default()
            },
            sgd_epochs_scale: 1.0,
            ..StudyConfig::default()
        },
    }
}

/// Accumulates the per-generation
/// [`ProgressEvent::EvalCache`] streams of every study into one
/// run-wide tally, so the bench bins can print how many genomes the
/// batch evaluator computed and how many gate counts the area
/// objective computed — plus the design-store ingest counters when a
/// store is attached. Robust to several GA runs
/// per dataset (each search's cumulative counters restart at zero; a
/// decrease folds the finished run into the total).
#[derive(Debug, Default)]
pub struct EvalCacheSummary {
    tallies: Mutex<HashMap<Dataset, CacheTally>>,
}

#[derive(Debug, Default, Clone, Copy)]
struct CacheTally {
    genomes: u64,
    cost_misses: u64,
    store_ingested: u64,
    store_deduplicated: u64,
    store_bytes: u64,
    /// Cumulative counters of the GA run currently streaming.
    last: [u64; 5],
}

impl CacheTally {
    fn fold_last(&mut self) {
        self.genomes += self.last[0];
        self.cost_misses += self.last[1];
        self.store_ingested += self.last[2];
        self.store_deduplicated += self.last[3];
        self.store_bytes += self.last[4];
        self.last = [0; 5];
    }
}

impl EvalCacheSummary {
    /// Feed one tagged progress event. A `GaGeneration` with
    /// `generation == 0` marks the start of a new GA run (its
    /// cumulative counters restart), so the previous run's totals are
    /// folded deterministically; a component-wise decrease is kept as
    /// a backstop for engines that skip the marker.
    pub fn observe(&self, dataset: Dataset, event: &ProgressEvent) {
        let current = match *event {
            ProgressEvent::GaGeneration { generation: 0, .. } => {
                let mut tallies = self.tallies.lock().unwrap_or_else(|e| e.into_inner());
                tallies.entry(dataset).or_default().fold_last();
                return;
            }
            ProgressEvent::EvalCache {
                misses,
                cost_misses,
                store_ingested,
                store_deduplicated,
                store_bytes,
                ..
            } => [
                misses,
                cost_misses,
                store_ingested,
                store_deduplicated,
                store_bytes,
            ],
            _ => return,
        };
        let mut tallies = self.tallies.lock().unwrap_or_else(|e| e.into_inner());
        let tally = tallies.entry(dataset).or_default();
        if current.iter().zip(&tally.last).any(|(c, l)| c < l) {
            tally.fold_last(); // backstop: counters restarted unannounced
        }
        tally.last = current;
    }

    /// One summary line over every dataset seen so far.
    #[must_use]
    pub fn render(&self) -> String {
        let tallies = self.tallies.lock().unwrap_or_else(|e| e.into_inner());
        let mut total = CacheTally::default();
        for tally in tallies.values() {
            let mut t = *tally;
            t.fold_last();
            total.genomes += t.genomes;
            total.cost_misses += t.cost_misses;
            total.store_ingested += t.store_ingested;
            total.store_deduplicated += t.store_deduplicated;
            total.store_bytes += t.store_bytes;
        }
        let mut line = format!(
            "eval: {} genomes computed | {} gate counts computed",
            total.genomes, total.cost_misses,
        );
        if total.store_ingested + total.store_deduplicated > 0 {
            line.push_str(&format!(
                " | design store {} ingested / {} deduplicated ({} KiB written)",
                total.store_ingested,
                total.store_deduplicated,
                total.store_bytes / 1024,
            ));
        }
        line
    }
}

/// Run studies for all five datasets at the given budget on the
/// knobs' worker pool (capped at the dataset count), printing the
/// run-wide evaluation-cache summary when done.
///
/// # Panics
///
/// Panics if a study fails — the bench presets are valid and nothing
/// cancels them, so a failure here is a bug.
#[must_use]
pub fn run_studies(knobs: &Knobs, budget: BudgetPreset, master_seed: u64) -> Vec<DatasetStudy> {
    run_selected(knobs, budget, master_seed)
        .into_iter()
        .map(Selected::into_study)
        .collect()
}

/// [`Knobs::run_many_options`] plus an attached [`EvalCacheSummary`]
/// observer (the summary is shared with the returned handle for
/// rendering).
#[must_use]
pub fn observed_options(knobs: &Knobs) -> (RunManyOptions, Arc<EvalCacheSummary>) {
    let summary = Arc::new(EvalCacheSummary::default());
    let mut opts = knobs.run_many_options();
    let observer = Arc::clone(&summary);
    opts.progress = Some(Arc::new(move |dataset, event| {
        observer.observe(dataset, event);
    }));
    (opts, summary)
}

/// [`run_studies`], returning the full [`Selected`] stage artifacts
/// (needed by experiments that reuse the float-model lineage, e.g.
/// Fig. 4's engine comparison).
///
/// # Panics
///
/// Panics if a study fails (see [`run_studies`]).
#[must_use]
pub fn run_selected(knobs: &Knobs, budget: BudgetPreset, master_seed: u64) -> Vec<Selected> {
    let (opts, summary) = observed_options(knobs);
    let config = study_config(budget, master_seed);
    let selected = Pipeline::run_many_selected(&Dataset::ALL, &config, &opts)
        .expect("bench presets are valid and uncancelled");
    println!("{}", summary.render());
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_budget() {
        let q = study_config(BudgetPreset::Quick, 0);
        let f = study_config(BudgetPreset::Full, 0);
        assert!(q.ga.nsga.generations < f.ga.nsga.generations);
        assert!(q.sgd_epochs_scale < f.sgd_epochs_scale);
    }

    #[test]
    fn counters_fold_per_dataset_and_per_run() {
        let summary = EvalCacheSummary::default();
        let eval = |misses| ProgressEvent::EvalCache {
            hits: 0,
            misses,
            entries: 0,
            column_hits: 0,
            column_misses: 0,
            column_entries: 0,
            column_contended: 0,
            column_shards: 0,
            cost_hits: 0,
            cost_misses: 2,
            store_ingested: 0,
            store_deduplicated: 0,
            store_bytes: 0,
        };
        let restart = ProgressEvent::GaGeneration {
            generation: 0,
            generations: 2,
            evaluations: 0,
        };
        // Two datasets stream cumulative counters concurrently (Breast
        // Cancer reports twice — only its latest value may count), then
        // Breast Cancer starts a second GA run, whose counters restart
        // and add to the first run's. Totals are 12 + 7 + 5.
        summary.observe(Dataset::BreastCancer, &eval(10));
        summary.observe(Dataset::Cardio, &eval(7));
        summary.observe(Dataset::BreastCancer, &eval(12));
        summary.observe(Dataset::BreastCancer, &restart);
        summary.observe(Dataset::BreastCancer, &eval(5));
        let line = summary.render();
        assert_eq!(line, "eval: 24 genomes computed | 6 gate counts computed");
    }
}
