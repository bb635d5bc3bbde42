//! Monte-Carlo robustness evaluation: shared helpers for the
//! variation-aware fitness path and a standalone reference oracle.
//!
//! The fast path lives inside [`crate::fitness::AxTrainProblem`]: each
//! of the M trials gets its own perturbed copy of the dataset, and every
//! evaluation runs `pe-mlp`'s columnar forward pass once per trial with
//! the trial's per-device gain/offset draws applied to each accumulator.
//! This module provides the pieces both sides agree on:
//!
//! * [`extended_matrix`] — the trial-major perturbed dataset (trial
//!   `t`'s rows occupy segment `[t·n, (t+1)·n)`), built with
//!   [`pe_hw::VariationModel`]'s stateless keyed sampler so the same
//!   seeds always produce the same bytes.
//! * [`mc_accuracy`] — an independent Monte-Carlo oracle evaluating a
//!   decoded network per trial with its own layer walk, applying the
//!   per-device gain/offset draws to every accumulator. The fitness
//!   path is tested bit-equal against this oracle, and the
//!   `fig_robust` bench uses it to measure how nominal and robust
//!   fronts degrade under variation.

use pe_hw::variation::{trial_seed, RobustStat, VariationModel};
use pe_mlp::columnar::{self, ColumnMatrix, QuantMatrix};
use pe_mlp::AxMlp;

/// Per-trial seeds `trial_seed(master, 0..trials)` — the single
/// derivation both the fitness path and the oracle use.
#[must_use]
pub fn trial_seeds(master: u64, trials: usize) -> Vec<u64> {
    (0..trials).map(|t| trial_seed(master, t)).collect()
}

/// The trial-major extended dataset: one input-perturbed copy of
/// `rows` per trial seed, concatenated. With a zero-variance model the
/// segments are byte-identical copies of `rows`.
#[must_use]
pub fn extended_matrix(
    rows: &QuantMatrix,
    model: &VariationModel,
    seeds: &[u64],
    input_bits: u32,
) -> QuantMatrix {
    let (n, w) = (rows.len(), rows.width());
    let mut data = Vec::with_capacity(seeds.len() * n * w);
    for &seed in seeds {
        for s in 0..n {
            for (f, &x) in rows.row(s).iter().enumerate() {
                data.push(model.perturb_input(seed, s, f, x, input_bits));
            }
        }
    }
    QuantMatrix::from_flat(data, w, seeds.len() * n)
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

/// Monte-Carlo accuracy of `mlp` on `rows`/`labels` under `model`: the
/// reference oracle (see the module docs).
///
/// Every trial perturbs the inputs, applies per-device gain/offset
/// draws to each neuron's accumulator and re-runs the columnar
/// forward. Deterministic in `(model, trials, master_seed)` only.
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
    let seeds = trial_seeds(master_seed, trials);
    let extended = extended_matrix(rows, model, &seeds, input_bits);
    let columns = extended.columns();
    let n = rows.len();
    let accs: Vec<f64> = seeds
        .iter()
        .enumerate()
        .map(|(t, &seed)| trial_accuracy(mlp, &columns, labels, model, seed, t * n, n))
        .collect();
    RobustSummary {
        nominal,
        worst: RobustStat::WorstCase.statistic(&accs),
        p95: RobustStat::P95.statistic(&accs),
        mean: accs.iter().sum::<f64>() / accs.len() as f64,
    }
}

/// One trial's accuracy: a plain (allocation-per-layer) columnar
/// forward over segment `[base, base + n)` of the extended
/// columns, with the trial's device draws applied pre-activation.
fn trial_accuracy(
    mlp: &AxMlp,
    extended: &ColumnMatrix,
    labels: &[usize],
    model: &VariationModel,
    seed: u64,
    base: usize,
    n: usize,
) -> f64 {
    let mut acc = Vec::new();
    let mut narrow = Vec::new();
    let mut act: Vec<Vec<u8>> = Vec::new();
    let mut first = true;
    for (li, layer) in mlp.layers.iter().enumerate() {
        let refs: Vec<&[u8]> = if first {
            (0..extended.width())
                .map(|f| &extended.col(f)[base..base + n])
                .collect()
        } else {
            act.iter().map(|c| &c[..]).collect()
        };
        let mut accs: Vec<Vec<i64>> = Vec::with_capacity(layer.neurons.len());
        for (ni, neuron) in layer.neurons.iter().enumerate() {
            columnar::accumulate_neuron_column(neuron, &refs, n, &mut acc, &mut narrow);
            let draw = model.device_draw(seed, li, ni, layer.input_bits);
            if !draw.is_identity() {
                for a in acc.iter_mut() {
                    *a = draw.apply(*a);
                }
            }
            accs.push(std::mem::take(&mut acc));
        }
        drop(refs);
        match layer.qrelu {
            Some(q) => {
                act = accs
                    .iter()
                    .map(|column| {
                        let mut out = Vec::new();
                        columnar::qrelu_column(q, column, &mut out);
                        out
                    })
                    .collect();
                first = false;
            }
            None => {
                let cols: Vec<&[i64]> = accs.iter().map(|c| &c[..]).collect();
                let preds = columnar::argmax_columns(&cols, n);
                let hits = preds.iter().zip(labels).filter(|&(p, l)| p == l).count();
                return hits as f64 / n as f64;
            }
        }
    }
    // Trailing-QReLU topology: argmax over the final activations.
    let refs: Vec<&[u8]> = act.iter().map(|c| &c[..]).collect();
    let preds = columnar::argmax_columns(&refs, n);
    let hits = preds.iter().zip(labels).filter(|&(p, l)| p == l).count();
    hits as f64 / n as f64
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
    fn extended_matrix_is_trial_major_copies_when_zero_variance() {
        let (rows, _) = toy_data();
        let seeds = trial_seeds(9, 3);
        let ext = extended_matrix(&rows, &VariationModel::nominal(), &seeds, 4);
        assert_eq!(ext.len(), 3 * rows.len());
        for t in 0..3 {
            for s in 0..rows.len() {
                assert_eq!(ext.row(t * rows.len() + s), rows.row(s));
            }
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
