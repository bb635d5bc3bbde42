//! The record types of a complete one-dataset study: its configuration
//! ([`StudyConfig`]) and its flattened artifacts ([`DatasetStudy`]).
//!
//! The study itself runs through the staged API in [`crate::pipeline`]
//! — generate/load the dataset → stratified 70/30 split →
//! backprop-train the float MLP at the paper's topology → quantize to
//! the exact bespoke baseline (8-bit weights, 4-bit inputs) → cost the
//! baseline circuit (the Table I row) → run the hardware-aware GA →
//! hardware-analyse the front → select the smallest design within the
//! 5% accuracy-loss budget (the Table II row) — each step a
//! serializable, cacheable, resumable stage artifact with progress
//! reporting and cooperative cancellation.
//! [`Pipeline::run_study`](crate::Pipeline::run_study) flattens the
//! final stage into a [`DatasetStudy`].

use serde::{Deserialize, Serialize};

use pe_datasets::{Dataset, DatasetSpec, QuantizedData};
use pe_hw::{CostScenario, HardwareReport};
use pe_mlp::{FixedMlp, TrainConfig};

use crate::config::AxTrainConfig;
use crate::pareto::DesignPoint;
use crate::train::TrainingOutcome;

/// Configuration of a full study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Master seed (data generation, split, SGD, GA).
    pub seed: u64,
    /// GA training configuration.
    pub ga: AxTrainConfig,
    /// Scale on each dataset's recommended SGD epoch budget
    /// ([`pe_datasets::SgdHint`]); 1.0 = full, smaller = quicker.
    pub sgd_epochs_scale: f64,
    /// Reporting accuracy-loss budget (5% in Tables II / Fig. 4-5).
    pub accuracy_loss_budget: f64,
    /// The cost scenario the whole study runs under — technology
    /// library, Vdd model, operating supply, optional power budget. A
    /// first-class serializable input: it keys the stage caches, drives
    /// the GA's objectives and constraints, costs the baseline, and
    /// sets the voltage every report lands at. Defaults to nominal
    /// EGFET with no budget (the paper's conditions).
    #[serde(default)]
    pub scenario: CostScenario,
    /// Monte-Carlo variation request of a robust study: the search
    /// optimizes the configured robust statistic over M perturbed
    /// trials instead of nominal accuracy (see
    /// [`pe_hw::VariationConfig`] and the
    /// [`Study::variation`](crate::pipeline::Study::variation)
    /// builder). `None` (the default, and what any pre-variation cached
    /// config deserializes to) reproduces the nominal pipeline bit for
    /// bit. Keys the stage caches.
    #[serde(default)]
    pub variation: Option<pe_hw::VariationConfig>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            ga: AxTrainConfig::default(),
            sgd_epochs_scale: 1.0,
            accuracy_loss_budget: 0.05,
            scenario: CostScenario::default(),
            variation: None,
        }
    }
}

impl StudyConfig {
    /// A scaled-down configuration for tests and smoke benches.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            ga: AxTrainConfig::quick(seed),
            sgd_epochs_scale: 0.3,
            ..Self::default()
        }
    }

    /// The SGD configuration this study uses for a given dataset.
    #[must_use]
    pub fn sgd_for(&self, spec: &DatasetSpec) -> TrainConfig {
        TrainConfig {
            learning_rate: spec.sgd.learning_rate,
            epochs: ((spec.sgd.epochs as f64 * self.sgd_epochs_scale).round() as usize).max(10),
            seed: self.seed,
            ..TrainConfig::default()
        }
    }
}

/// All artifacts of one dataset's evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetStudy {
    /// Which dataset.
    pub dataset: Dataset,
    /// Float baseline accuracy on the test split.
    pub float_test_accuracy: f64,
    /// The exact bespoke baseline network.
    pub baseline: FixedMlp,
    /// Baseline accuracy on the (full) training split.
    pub baseline_train_accuracy: f64,
    /// Baseline accuracy on the test split (the Table I "Acc" column).
    pub baseline_test_accuracy: f64,
    /// Baseline circuit evaluation (the Table I area/power columns).
    pub baseline_report: HardwareReport,
    /// GA outcome: fronts, history, timings.
    pub outcome: TrainingOutcome,
    /// The Table II design: smallest area within the loss budget.
    pub selected: Option<DesignPoint>,
    /// The quantized training split (kept for follow-up experiments).
    pub train: QuantizedData,
    /// The quantized test split.
    pub test: QuantizedData,
}

impl DatasetStudy {
    /// Area reduction factor of the selected design vs the baseline
    /// (the Table II "Area Reduction" column).
    #[must_use]
    pub fn area_reduction(&self) -> Option<f64> {
        self.selected
            .as_ref()
            .map(|d| self.baseline_report.area_cm2 / d.report.area_cm2.max(f64::MIN_POSITIVE))
    }

    /// Power reduction factor of the selected design vs the baseline.
    #[must_use]
    pub fn power_reduction(&self) -> Option<f64> {
        self.selected
            .as_ref()
            .map(|d| self.baseline_report.power_mw / d.report.power_mw.max(f64::MIN_POSITIVE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_hw::TechLibrary;

    #[test]
    fn quick_study_on_breast_cancer_end_to_end() {
        let study = crate::pipeline::Study::for_dataset(Dataset::BreastCancer)
            .config(StudyConfig::quick(1))
            .tech(TechLibrary::egfet())
            .finish()
            .expect("quick config is valid")
            .run_study()
            .expect("uncancelled study succeeds");
        // The synthetic BC dataset is easy: the float baseline should be
        // strong even with a quick budget.
        assert!(
            study.float_test_accuracy > 0.85,
            "float {}",
            study.float_test_accuracy
        );
        assert!(
            study.baseline_test_accuracy > 0.80,
            "baseline {}",
            study.baseline_test_accuracy
        );
        assert!(
            study.baseline_report.area_cm2 > 1.0,
            "baseline should be cm2-scale"
        );
        assert!(!study.outcome.front.is_empty());
        if let Some(sel) = &study.selected {
            assert!(sel.test_accuracy >= study.baseline_test_accuracy - 0.05 - 1e-9);
            let reduction = study.area_reduction().expect("selected exists");
            assert!(reduction > 1.0, "area reduction {reduction}");
        }
    }
}
