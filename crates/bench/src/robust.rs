//! Nominal vs variation-robust search comparison
//! (`BENCH_robust.json`).
//!
//! Runs every dataset's study twice at the same master seed — once
//! nominal, once with the GA optimizing the worst-case accuracy over
//! Monte-Carlo process-variation trials
//! ([`printed_axc::Study::variation`]) — then subjects **both** fronts
//! to the same held-out Monte-Carlo evaluation: fresh trial seeds
//! (distinct from the ones the robust search trained on), the test
//! split, and the uncached [`printed_axc::mc_accuracy`] oracle. The
//! headline is whether the robust search's best worst-case accuracy
//! beats the nominal search's on each dataset.

use serde::{Deserialize, Serialize};

use pe_datasets::Dataset;
use pe_hw::{VariationConfig, VariationModel};
use printed_axc::{derive_seed, mc_accuracy, Pipeline, Selected};

use crate::format::render_table;
use crate::knobs::Knobs;
use crate::study::{observed_options, study_config, BudgetPreset};

/// Monte-Carlo trials the *search* optimizes over (kept small — it
/// multiplies the fitness cost of every robust evaluation).
pub const SEARCH_TRIALS: usize = 8;

/// Monte-Carlo trials the *evaluation* judges both fronts with (held
/// out: more trials, different seeds than the search saw).
pub const EVAL_TRIALS: usize = 32;

/// Salt decorrelating the evaluation's trial seeds from the search's
/// (which derive from the per-dataset study seed itself).
const EVAL_SEED_SALT: u64 = 0xe7a1_5eed_0f0c_0de5;

/// One front design under held-out Monte-Carlo evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustPoint {
    /// Area in cm² at the study's scenario.
    pub area_cm2: f64,
    /// Power in mW at the study's scenario.
    pub power_mw: f64,
    /// Nominal (variation-free) test accuracy.
    pub test_accuracy: f64,
    /// Worst per-trial test accuracy over the evaluation trials.
    pub mc_worst: f64,
    /// 5th-percentile (P95-robust) per-trial test accuracy.
    pub mc_p95: f64,
    /// Mean per-trial test accuracy.
    pub mc_mean: f64,
}

/// One dataset's nominal-vs-robust comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustRow {
    /// Two-letter dataset code.
    pub dataset: String,
    /// The variation corner both searches were judged under.
    pub model: VariationModel,
    /// The nominal search's front under Monte-Carlo evaluation.
    pub nominal_front: Vec<RobustPoint>,
    /// The robust search's front under the same evaluation.
    pub robust_front: Vec<RobustPoint>,
    /// Best (maximum) `mc_worst` over the nominal front.
    pub nominal_best_worst: f64,
    /// Best (maximum) `mc_worst` over the robust front.
    pub robust_best_worst: f64,
    /// Whether the robust search held up at least as well as the
    /// nominal one under variation.
    pub robust_wins: bool,
}

/// Run the comparison for all datasets at the given budget.
///
/// # Panics
///
/// Panics if a study fails (the bench presets are valid and nothing
/// cancels them) or a front is empty.
#[must_use]
pub fn compare(knobs: &Knobs, budget: BudgetPreset, master_seed: u64) -> Vec<RobustRow> {
    let model = VariationModel::printed_egfet();
    let nominal_cfg = study_config(budget, master_seed);
    let mut robust_cfg = nominal_cfg.clone();
    robust_cfg.variation = Some(VariationConfig::new(model, SEARCH_TRIALS));

    let (nominal_opts, nominal_summary) = observed_options(knobs);
    let nominal = Pipeline::run_many_selected(&Dataset::ALL, &nominal_cfg, &nominal_opts)
        .expect("bench presets are valid and uncancelled");
    println!("nominal {}", nominal_summary.render());
    let (robust_opts, robust_summary) = observed_options(knobs);
    let robust = Pipeline::run_many_selected(&Dataset::ALL, &robust_cfg, &robust_opts)
        .expect("bench presets are valid and uncancelled");
    println!("robust {}", robust_summary.render());

    nominal
        .iter()
        .zip(&robust)
        .zip(Dataset::ALL)
        .map(|((n, r), dataset)| {
            let eval_seed = derive_seed(master_seed ^ EVAL_SEED_SALT, dataset);
            row(dataset, n, r, &model, eval_seed)
        })
        .collect()
}

fn row(
    dataset: Dataset,
    nominal: &Selected,
    robust: &Selected,
    model: &VariationModel,
    eval_seed: u64,
) -> RobustRow {
    let nominal_front = evaluated_front(nominal, model, eval_seed);
    let robust_front = evaluated_front(robust, model, eval_seed);
    let best_worst = |front: &[RobustPoint]| {
        front
            .iter()
            .map(|p| p.mc_worst)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let nominal_best_worst = best_worst(&nominal_front);
    let robust_best_worst = best_worst(&robust_front);
    RobustRow {
        dataset: dataset.spec().short_name.to_owned(),
        model: *model,
        nominal_front,
        robust_front,
        nominal_best_worst,
        robust_best_worst,
        robust_wins: robust_best_worst >= nominal_best_worst,
    }
}

/// Monte-Carlo-evaluate every approximate design on a study's front
/// against the held-out test split.
fn evaluated_front(
    selected: &Selected,
    model: &VariationModel,
    eval_seed: u64,
) -> Vec<RobustPoint> {
    let test = &selected.searched.costed.float.prepared.test;
    selected
        .searched
        .outcome
        .front
        .iter()
        .filter_map(|point| {
            let mlp = point.network.ax()?;
            let mc = mc_accuracy(
                mlp,
                &test.features,
                &test.labels,
                model,
                EVAL_TRIALS,
                eval_seed,
            );
            Some(RobustPoint {
                area_cm2: point.report.area_cm2,
                power_mw: point.report.power_mw,
                test_accuracy: point.test_accuracy,
                mc_worst: mc.worst,
                mc_p95: mc.p95,
                mc_mean: mc.mean,
            })
        })
        .collect()
}

/// Render the comparison as a table (one row per dataset).
#[must_use]
pub fn render(rows: &[RobustRow]) -> String {
    render_table(
        "Robust search: nominal vs variation-aware fronts under held-out Monte-Carlo evaluation",
        &[
            "Dataset",
            "Front(nom)",
            "Front(rob)",
            "BestWorst(nom)",
            "BestWorst(rob)",
            "Winner",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    format!("{}", r.nominal_front.len()),
                    format!("{}", r.robust_front.len()),
                    format!("{:.3}", r.nominal_best_worst),
                    format!("{:.3}", r.robust_best_worst),
                    if r.robust_wins { "robust" } else { "nominal" }.to_owned(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// One headline line: on how many datasets the robust search held up
/// at least as well as the nominal one under variation.
#[must_use]
pub fn summary(rows: &[RobustRow]) -> String {
    let wins = rows.iter().filter(|r| r.robust_wins).count();
    format!(
        "robust search matches or beats nominal worst-case accuracy on {}/{} datasets",
        wins,
        rows.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_summary_handle_empty_runs() {
        assert!(render(&[]).contains("Robust search"));
        assert!(summary(&[]).contains("0/0"));
    }
}
