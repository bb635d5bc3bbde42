//! Monte-Carlo robustness evaluation: one per-trial forward pass for
//! the variation-aware fitness and for [`mc_accuracy`].
//!
//! Each of the M trials gets its own input-perturbed copy of the
//! dataset, built once with [`pe_hw::VariationModel`]'s stateless keyed
//! sampler (so the same seeds always produce the same bytes) and
//! transposed once. Scoring a network runs `pe-mlp`'s columnar forward
//! pass ([`columnar::hits_columns`]) once per trial, with the trial's
//! per-device gain/offset draws applied to every accumulator. The
//! robust fitness ([`crate::fitness::AxTrainProblem::with_variation`])
//! builds its trials once per search; [`mc_accuracy`] builds them per
//! call and summarizes a design's nominal, worst, p95 and mean accuracy
//! (the `fig_robust` bench judges nominal and robust fronts with it).
//! Both share this code, so the tests check it against a per-row
//! Monte-Carlo oracle of their own.

use pe_hw::variation::{trial_seed, RobustStat, VariationModel};
use pe_mlp::columnar::{self, ColumnLabels, ColumnMatrix, ColumnarScratch, QuantMatrix};
use pe_mlp::AxMlp;

/// Per-trial seeds `trial_seed(master, 0..trials)` — the single
/// derivation every Monte-Carlo evaluation uses.
#[must_use]
pub fn trial_seeds(master: u64, trials: usize) -> Vec<u64> {
    (0..trials).map(|t| trial_seed(master, t)).collect()
}

/// The Monte-Carlo trials of one dataset: each trial's seed and its
/// input-perturbed columns, built once.
#[derive(Debug, Clone)]
pub(crate) struct Trials {
    model: VariationModel,
    /// `(trial_seed(master, t), trial t's columns)` for `t = 0..M`.
    trials: Vec<(u64, ColumnMatrix)>,
}

impl Trials {
    /// `trials` perturbed copies of `rows` under `model`, keyed by
    /// [`trial_seeds`]`(master, trials)`; inputs are `input_bits` wide.
    /// With a zero-variance model every copy equals `rows`.
    pub(crate) fn new(
        rows: &QuantMatrix,
        model: &VariationModel,
        master: u64,
        trials: usize,
        input_bits: u32,
    ) -> Self {
        let trials = trial_seeds(master, trials)
            .into_iter()
            .map(|seed| {
                let data = rows
                    .iter()
                    .enumerate()
                    .flat_map(|(s, row)| {
                        row.iter()
                            .enumerate()
                            .map(move |(f, &x)| model.perturb_input(seed, s, f, x, input_bits))
                    })
                    .collect();
                let perturbed = QuantMatrix::from_flat(data, rows.width(), rows.len());
                (seed, perturbed.columns())
            })
            .collect();
        Self {
            model: *model,
            trials,
        }
    }

    /// `mlp`'s accuracy against `labels` in each trial: the columnar
    /// forward pass over the trial's perturbed columns, with the
    /// trial's per-device gain/offset draw applied to every accumulator
    /// before its QReLU or argmax. The draw is keyed by the neuron's
    /// layer and position, so duplicate neurons draw apart. Empty data
    /// scores `0.0` in every trial, like every other accuracy API.
    pub(crate) fn accuracies(
        &self,
        mlp: &AxMlp,
        labels: &ColumnLabels,
        scratch: &mut ColumnarScratch,
    ) -> Vec<f64> {
        self.trials
            .iter()
            .map(|&(seed, ref columns)| {
                let draw = |li: usize, ni: usize, acc: &mut [i64]| {
                    let draw = self
                        .model
                        .device_draw(seed, li, ni, mlp.layers[li].input_bits);
                    if !draw.is_identity() {
                        for a in acc {
                            *a = draw.apply(*a);
                        }
                    }
                };
                let hits = columnar::hits_columns(mlp, columns, labels, scratch, Some(&draw));
                if labels.is_empty() {
                    0.0
                } else {
                    hits as f64 / labels.len() as f64
                }
            })
            .collect()
    }
}

/// How a network's accuracy holds up over Monte-Carlo variation
/// trials.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RobustSummary {
    /// Accuracy with no variation applied (the deployment nominal).
    pub nominal: f64,
    /// Minimum per-trial accuracy.
    pub worst: f64,
    /// The [`RobustStat::P95`] statistic over the trials.
    pub p95: f64,
    /// Mean per-trial accuracy.
    pub mean: f64,
}

/// Monte-Carlo accuracy of `mlp` on `rows`/`labels` under `model`.
///
/// Every trial perturbs the inputs, applies per-device gain/offset
/// draws to each neuron's accumulator and re-runs the columnar
/// forward: the per-trial pass the robust fitness optimizes (see the
/// module docs). Deterministic in `(model, trials, master_seed)` only.
/// Empty data scores `0.0` throughout.
///
/// # Panics
///
/// Panics if `trials == 0`, data and labels disagree, or the network
/// has no layers.
#[must_use]
pub fn mc_accuracy(
    mlp: &AxMlp,
    rows: &QuantMatrix,
    labels: &[usize],
    model: &VariationModel,
    trials: usize,
    master_seed: u64,
) -> RobustSummary {
    assert!(trials > 0, "Monte-Carlo needs >= 1 trial");
    assert_eq!(rows.len(), labels.len());
    let input_bits = mlp.layers.first().expect("a non-empty network").input_bits;
    let nominal = columnar::accuracy_columns(mlp, &rows.columns(), labels);
    let trials = Trials::new(rows, model, master_seed, trials, input_bits);
    let labels = ColumnLabels::new(labels.to_vec());
    let accs = trials.accuracies(mlp, &labels, &mut ColumnarScratch::new());
    RobustSummary {
        nominal,
        worst: RobustStat::WorstCase.statistic(&accs),
        p95: RobustStat::P95.statistic(&accs),
        mean: accs.iter().sum::<f64>() / accs.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_mlp::{AxLayer, AxNeuron, AxWeight};

    fn toy_mlp() -> AxMlp {
        AxMlp {
            layers: vec![AxLayer {
                input_bits: 4,
                qrelu: None,
                neurons: vec![
                    AxNeuron {
                        weights: vec![AxWeight {
                            mask: 0,
                            shift: 0,
                            negative: false,
                        }],
                        bias: 0,
                    },
                    AxNeuron {
                        weights: vec![AxWeight {
                            mask: 0b1111,
                            shift: 0,
                            negative: false,
                        }],
                        bias: -7,
                    },
                ],
            }],
        }
    }

    fn toy_data() -> (QuantMatrix, Vec<usize>) {
        let rows: Vec<Vec<u8>> = (0..16u8).map(|v| vec![v]).collect();
        let labels: Vec<usize> = (0..16).map(|v| usize::from(v > 7)).collect();
        (QuantMatrix::from_rows(&rows), labels)
    }

    #[test]
    fn zero_variance_trials_equal_nominal() {
        let (rows, labels) = toy_data();
        let mlp = toy_mlp();
        let summary = mc_accuracy(&mlp, &rows, &labels, &VariationModel::nominal(), 5, 42);
        assert_eq!(summary.nominal, 1.0);
        assert_eq!(summary.worst, 1.0);
        assert_eq!(summary.p95, 1.0);
        assert_eq!(summary.mean, 1.0);
    }

    #[test]
    fn zero_variance_trials_copy_the_dataset() {
        let (rows, _) = toy_data();
        let trials = Trials::new(&rows, &VariationModel::nominal(), 9, 3, 4);
        let columns = rows.columns();
        assert_eq!(trials.trials.len(), 3);
        for (&(seed, ref copy), want) in trials.trials.iter().zip(trial_seeds(9, 3)) {
            assert_eq!(seed, want);
            assert_eq!(copy, &columns);
        }
    }

    #[test]
    fn empty_data_scores_zero_in_every_trial() {
        let rows = QuantMatrix::from_flat(Vec::new(), 1, 0);
        let mlp = toy_mlp();
        for trials in [1, 4] {
            let summary = mc_accuracy(
                &mlp,
                &rows,
                &[],
                &VariationModel::printed_egfet(),
                trials,
                3,
            );
            let zero = RobustSummary {
                nominal: 0.0,
                worst: 0.0,
                p95: 0.0,
                mean: 0.0,
            };
            assert_eq!(summary, zero, "{trials} trials");
        }
    }

    #[test]
    fn variation_degrades_a_marginal_classifier() {
        // The threshold sits right at the decision boundary, so noise
        // must flip some trials' samples.
        let (rows, labels) = toy_data();
        let mlp = toy_mlp();
        let model = VariationModel {
            input_noise_lsb: 1.5,
            ..VariationModel::nominal()
        };
        let summary = mc_accuracy(&mlp, &rows, &labels, &model, 16, 7);
        assert_eq!(summary.nominal, 1.0);
        assert!(summary.worst < 1.0, "worst {}", summary.worst);
        assert!(summary.worst <= summary.p95);
        assert!(summary.p95 <= 1.0);
        assert!(summary.mean < 1.0 && summary.mean > 0.5);
    }

    #[test]
    fn oracle_is_deterministic_in_the_master_seed() {
        let (rows, labels) = toy_data();
        let mlp = toy_mlp();
        let model = VariationModel::printed_egfet();
        let a = mc_accuracy(&mlp, &rows, &labels, &model, 8, 3);
        let b = mc_accuracy(&mlp, &rows, &labels, &model, 8, 3);
        assert_eq!(a, b);
        let c = mc_accuracy(&mlp, &rows, &labels, &model, 8, 4);
        assert_ne!(a, c, "distinct masters must decorrelate the trials");
    }
}
