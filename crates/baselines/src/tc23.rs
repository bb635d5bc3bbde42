//! TC'23-style post-training co-design baseline (paper ref. \[5\]).
//!
//! Armeniakos et al. (IEEE Trans. Computers 2023) approximate a trained
//! bespoke MLP *after* training: coefficients are replaced with more
//! area-efficient values (fewer CSD digits → smaller constant
//! multipliers) and accumulations are truncated. We reproduce that
//! mechanism as a greedy accuracy-guarded search so Fig. 4 can compare
//! it against GA-embedded approximation at the same 5% loss budget.
//!
//! Key structural difference from the DATE'24 approach: multipliers
//! remain (cheap values still have ≥1 CSD digit and most have 2), which
//! is exactly why the gains saturate — the point the paper makes.

use serde::{Deserialize, Serialize};

use pe_hw::{
    ExactCostModel, ExactNeuronSpec, HardwareReport, LayerActivation, LayerSpec, MlpHardwareSpec,
    NeuronSpec,
};
use pe_mlp::{FixedMlp, QuantMatrix};

use crate::cheap_weights::{cheap_values, nearest};

/// Configuration of the post-training approximation search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tc23Config {
    /// Accuracy-loss budget relative to the exact baseline (0.05).
    pub loss_budget: f64,
    /// Maximum CSD digits of replacement coefficients (2 in the method's
    /// spirit: "add/sub of two shifted terms").
    pub max_digits: u32,
    /// Largest truncation (dropped low adder columns) to consider.
    pub max_trunc: u32,
}

impl Default for Tc23Config {
    fn default() -> Self {
        Self {
            loss_budget: 0.05,
            max_digits: 2,
            max_trunc: 8,
        }
    }
}

/// An approximated design produced by the search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tc23Design {
    /// The network with replaced coefficients.
    pub mlp: FixedMlp,
    /// Uniform per-layer accumulation truncation (bits).
    pub trunc_bits: Vec<u32>,
    /// Accuracy on the tuning (training) split after approximation.
    pub tuning_accuracy: f64,
}

impl Tc23Design {
    /// Integer-exact inference including truncation effects.
    ///
    /// Truncation is modelled per partial product: `w·x` keeps only the
    /// bits at or above the truncation line (two's-complement floor),
    /// matching the hardware where dropped adder columns floor each
    /// summand.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    #[must_use]
    pub fn predict(&self, x: &[u8]) -> usize {
        let mut current: Vec<i64> = x.iter().map(|&v| i64::from(v)).collect();
        for (layer, &t) in self.mlp.layers.iter().zip(&self.trunc_bits) {
            let accs: Vec<i64> = layer
                .weights
                .iter()
                .zip(&layer.biases)
                .map(|(row, &b)| {
                    let mut acc = (i64::from(b) >> t) << t;
                    for (&w, &v) in row.iter().zip(&current) {
                        acc += ((i64::from(w) * v) >> t) << t;
                    }
                    acc
                })
                .collect();
            match layer.qrelu {
                Some(q) => current = accs.iter().map(|&a| i64::from(q.apply(a))).collect(),
                None => {
                    let mut best = 0;
                    for (i, &a) in accs.iter().enumerate().skip(1) {
                        if a > accs[best] {
                            best = i;
                        }
                    }
                    return best;
                }
            }
        }
        0
    }

    /// Accuracy over quantized rows. Empty datasets score `0.0`, the
    /// workspace-wide convention.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `labels` differ in length.
    #[must_use]
    pub fn accuracy(&self, rows: &QuantMatrix, labels: &[usize]) -> f64 {
        assert_eq!(rows.len(), labels.len());
        if rows.is_empty() {
            return 0.0;
        }
        let hits = rows
            .iter()
            .zip(labels)
            .filter(|&(r, &l)| self.predict(r) == l)
            .count();
        hits as f64 / rows.len() as f64
    }

    /// Lower to the bespoke hardware description (with per-neuron
    /// truncation) and cost it through `model` at its technology's
    /// nominal supply.
    #[must_use]
    pub fn hardware_report(&self, model: &ExactCostModel, name: &str) -> HardwareReport {
        model.costed(&self.hardware_spec(name)).report
    }

    /// Lower to the bespoke hardware description (with per-neuron
    /// truncation and explicit CSD multipliers), ready for the
    /// [`ExactCostModel`].
    #[must_use]
    pub fn hardware_spec(&self, name: &str) -> MlpHardwareSpec {
        let mut input_bits = self.mlp.input_bits;
        let inputs = self.mlp.layers.first().map_or(0, |l| l.weights[0].len());
        let layers: Vec<LayerSpec> = self
            .mlp
            .layers
            .iter()
            .zip(&self.trunc_bits)
            .map(|(layer, &t)| {
                let neurons: Vec<NeuronSpec> = layer
                    .weights
                    .iter()
                    .zip(&layer.biases)
                    .map(|(row, &b)| {
                        NeuronSpec::Exact(ExactNeuronSpec {
                            input_bits,
                            weights: row.iter().map(|&w| i64::from(w)).collect(),
                            bias: i64::from(b),
                            trunc_bits: t,
                            // TC'23 constructs its shift-add replacements
                            // explicitly, so it gets optimal CSD form.
                            csd_multipliers: true,
                        })
                    })
                    .collect();
                let activation = match layer.qrelu {
                    Some(q) => LayerActivation::QRelu {
                        out_bits: q.out_bits,
                        shift: q.shift,
                    },
                    None => LayerActivation::Argmax,
                };
                if let Some(q) = layer.qrelu {
                    input_bits = q.out_bits;
                }
                LayerSpec {
                    neurons,
                    activation,
                }
            })
            .collect();
        MlpHardwareSpec {
            name: name.to_owned(),
            inputs,
            input_bits: self.mlp.input_bits,
            layers,
        }
    }
}

/// Run the TC'23-style post-training approximation.
///
/// Greedy flow, accuracy-guarded at every step on the tuning split:
/// 1. replace every coefficient by the nearest `≤ max_digits`-CSD value,
///    reverting individual replacements (largest-error first) until the
///    accuracy floor is met again;
/// 2. grow a uniform accumulation truncation while the floor holds.
///
/// # Panics
///
/// Panics if the tuning data is empty.
#[must_use]
pub fn approximate_tc23(
    baseline: &FixedMlp,
    rows: &QuantMatrix,
    labels: &[usize],
    config: &Tc23Config,
) -> Tc23Design {
    assert!(!rows.is_empty(), "tuning data must be non-empty");
    let baseline_acc = baseline.accuracy(rows, labels);
    let floor = (baseline_acc - config.loss_budget).max(0.0);
    let set = cheap_values(config.max_digits, 127);

    // Step 1: wholesale replacement.
    let mut mlp = baseline.clone();
    let mut replacements: Vec<(usize, usize, usize, i32, i64)> = Vec::new();
    for (li, layer) in mlp.layers.iter_mut().enumerate() {
        for (ni, row) in layer.weights.iter_mut().enumerate() {
            for (wi, w) in row.iter_mut().enumerate() {
                let old = *w;
                let new = nearest(&set, i64::from(old)) as i32;
                if new != old {
                    replacements.push((li, ni, wi, old, i64::from(new) - i64::from(old)));
                    *w = new;
                }
            }
        }
    }
    let design0 = Tc23Design {
        mlp: mlp.clone(),
        trunc_bits: vec![0; mlp.layers.len()],
        tuning_accuracy: 0.0,
    };
    let mut acc = design0.accuracy(rows, labels);

    // Revert the largest-error replacements until the floor is met.
    replacements.sort_by_key(|&(_, _, _, _, err)| std::cmp::Reverse(err.abs()));
    let mut revert_iter = replacements.into_iter();
    while acc + 1e-12 < floor {
        let Some((li, ni, wi, old, _)) = revert_iter.next() else {
            break;
        };
        mlp.layers[li].weights[ni][wi] = old;
        let d = Tc23Design {
            mlp: mlp.clone(),
            trunc_bits: vec![0; mlp.layers.len()],
            tuning_accuracy: 0.0,
        };
        acc = d.accuracy(rows, labels);
    }

    // Step 2: uniform truncation growth.
    let mut trunc = 0u32;
    for t in 1..=config.max_trunc {
        let d = Tc23Design {
            mlp: mlp.clone(),
            trunc_bits: vec![t; mlp.layers.len()],
            tuning_accuracy: 0.0,
        };
        let a = d.accuracy(rows, labels);
        if a + 1e-12 >= floor {
            trunc = t;
            acc = a;
        } else {
            break;
        }
    }

    Tc23Design {
        mlp: mlp.clone(),
        trunc_bits: vec![trunc; mlp.layers.len()],
        tuning_accuracy: acc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_hw::CostScenario;
    use pe_mlp::FixedLayer;

    fn threshold_baseline() -> (FixedMlp, QuantMatrix, Vec<usize>) {
        let mlp = FixedMlp {
            input_bits: 4,
            layers: vec![FixedLayer {
                weights: vec![vec![-87], vec![87]],
                biases: vec![609, -609],
                qrelu: None,
            }],
        };
        let rows: Vec<Vec<u8>> = (0..16u8).map(|v| vec![v]).collect();
        let rows = QuantMatrix::from_rows(&rows);
        let labels: Vec<usize> = (0..16).map(|v| usize::from(v > 7)).collect();
        (mlp, rows, labels)
    }

    #[test]
    fn replacement_keeps_accuracy_within_budget() {
        let (mlp, rows, labels) = threshold_baseline();
        let base_acc = mlp.accuracy(&rows, &labels);
        assert!(base_acc > 0.9);
        let design = approximate_tc23(&mlp, &rows, &labels, &Tc23Config::default());
        assert!(design.tuning_accuracy + 1e-12 >= base_acc - 0.05);
        // 87 needs 3 CSD digits: it must have been replaced.
        let w = design.mlp.layers[0].weights[1][0];
        assert_ne!(w, 87);
        assert!(pe_arith::csd::csd_nonzero_digits(i64::from(w)) <= 2);
    }

    #[test]
    fn truncation_is_found_when_margins_are_wide() {
        let (mlp, rows, labels) = threshold_baseline();
        let design = approximate_tc23(&mlp, &rows, &labels, &Tc23Config::default());
        // Margins of ±87 per input step are huge: truncation should grow.
        assert!(design.trunc_bits[0] >= 2, "trunc {:?}", design.trunc_bits);
    }

    #[test]
    fn approximated_circuit_is_smaller_than_exact() {
        let (mlp, rows, labels) = threshold_baseline();
        let model = ExactCostModel::new(CostScenario::default());
        let exact_report = model.report(&pe_mlp::fixed_to_hardware(&mlp, "exact"));
        let design = approximate_tc23(&mlp, &rows, &labels, &Tc23Config::default());
        let approx_report = design.hardware_report(&model, "tc23");
        assert!(
            approx_report.area_cm2 < exact_report.area_cm2,
            "approx {} vs exact {}",
            approx_report.area_cm2,
            exact_report.area_cm2
        );
    }

    #[test]
    fn truncated_prediction_matches_untruncated_on_wide_margins() {
        let (mlp, rows, labels) = threshold_baseline();
        let no_trunc = Tc23Design {
            mlp: mlp.clone(),
            trunc_bits: vec![0],
            tuning_accuracy: 0.0,
        };
        let trunc = Tc23Design {
            mlp,
            trunc_bits: vec![3],
            tuning_accuracy: 0.0,
        };
        assert_eq!(
            no_trunc.accuracy(&rows, &labels),
            trunc.accuracy(&rows, &labels)
        );
    }
}
