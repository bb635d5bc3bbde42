//! TCAD'23-style model-to-circuit cross-approximation baseline
//! (paper ref. \[7\]): coefficient approximation plus Voltage
//! Over-Scaling (VOS).
//!
//! Armeniakos et al. (TCAD 2023) extend their DATE'22 approximation
//! with supply voltages below the nominal point (the paper notes "the
//! MLPs are operated below 0.8 V"). Timing slack is consumed by the
//! voltage-induced slowdown; paths that exceed the clock period start
//! to fail, which is modelled here as a margin-dependent accuracy
//! penalty. Structurally the coefficients stay multi-digit (gate-level
//! pruning rather than aggressive replacement), so area gains trail
//! TC'23 while power benefits from the lower supply — reproducing the
//! ordering Fig. 4 shows.

use serde::{Deserialize, Serialize};

use pe_hw::{ExactCostModel, HardwareReport, VddModel};
use pe_mlp::{FixedMlp, QuantMatrix};

use crate::cheap_weights::{cheap_values, nearest};
use crate::tc23::{approximate_tc23, Tc23Config, Tc23Design};

/// Configuration of the VOS baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tcad23Config {
    /// Accuracy-loss budget (shared between approximation and VOS).
    pub loss_budget: f64,
    /// Maximum CSD digits of replacement coefficients (3: milder than
    /// TC'23's 2 — this variant leans on voltage, not structure).
    pub max_digits: u32,
    /// Over-scaled supply voltage in volts (below 0.8 V in the paper).
    pub vos_vdd: f64,
    /// Clock period the circuit must still (mostly) meet, ms.
    pub period_ms: f64,
}

impl Default for Tcad23Config {
    fn default() -> Self {
        Self {
            loss_budget: 0.05,
            max_digits: 3,
            vos_vdd: 0.75,
            period_ms: 200.0,
        }
    }
}

/// A VOS design: an approximated network operated at a reduced supply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tcad23Design {
    /// The underlying approximated network (no truncation; VOS variant).
    pub design: Tc23Design,
    /// Operating voltage.
    pub vdd: f64,
    /// Probability that an inference is corrupted by a timing violation.
    pub timing_error_rate: f64,
    /// Tuning accuracy including the VOS penalty.
    pub tuning_accuracy: f64,
}

impl Tcad23Design {
    /// Hardware report at the over-scaled voltage.
    #[must_use]
    pub fn hardware_report(
        &self,
        model: &ExactCostModel,
        vdd_model: &VddModel,
        name: &str,
    ) -> HardwareReport {
        self.design
            .hardware_report(model, name)
            .at_vdd(vdd_model, self.vdd)
    }

    /// Expected accuracy of a raw accuracy `a` under the timing-error
    /// model: corrupted inferences fall back to a uniform guess over
    /// `classes`.
    #[must_use]
    pub fn vos_accuracy(&self, a: f64, classes: usize) -> f64 {
        a * (1.0 - self.timing_error_rate) + self.timing_error_rate / classes.max(1) as f64
    }
}

/// Timing-error probability of operating a circuit with delay
/// `delay_ms` (already voltage-scaled) against `period_ms`: zero inside
/// the period, then growing linearly with the overshoot and saturating
/// at 1 (a standard first-order VOS model).
#[must_use]
pub fn timing_error_rate(delay_ms: f64, period_ms: f64) -> f64 {
    if delay_ms <= period_ms {
        0.0
    } else {
        ((delay_ms - period_ms) / period_ms).clamp(0.0, 1.0)
    }
}

/// Build the TCAD'23-style design: milder coefficient replacement, no
/// truncation, operation at the over-scaled supply.
///
/// # Panics
///
/// Panics if the tuning data is empty.
#[must_use]
pub fn approximate_tcad23(
    baseline: &FixedMlp,
    rows: &QuantMatrix,
    labels: &[usize],
    classes: usize,
    config: &Tcad23Config,
    model: &ExactCostModel,
    vdd_model: &VddModel,
) -> Tcad23Design {
    // Structural part: reuse the TC'23 search but with the milder digit
    // budget and without truncation (gate-level pruning analogue).
    let tc_cfg = Tc23Config {
        loss_budget: config.loss_budget * 0.5, // save half the budget for VOS
        max_digits: config.max_digits,
        max_trunc: 0,
    };
    let mut design = approximate_tc23(baseline, rows, labels, &tc_cfg);

    // Ensure the digit budget is respected even where the greedy search
    // reverted (revert only restores exact values; re-clamp them to the
    // 3-digit set).
    let set = cheap_values(config.max_digits, 127);
    for layer in &mut design.mlp.layers {
        for row in &mut layer.weights {
            for w in row.iter_mut() {
                *w = nearest(&set, i64::from(*w)) as i32;
            }
        }
    }
    design.tuning_accuracy = design.accuracy(rows, labels);

    // VOS part: delay at the reduced voltage decides the error rate.
    let report = design.hardware_report(model, "tcad23_probe");
    let scaled = report.at_vdd(vdd_model, config.vos_vdd);
    let err = timing_error_rate(scaled.delay_ms, config.period_ms);

    let raw_acc = design.tuning_accuracy;
    let mut out = Tcad23Design {
        design,
        vdd: config.vos_vdd,
        timing_error_rate: err,
        tuning_accuracy: 0.0,
    };
    out.tuning_accuracy = out.vos_accuracy(raw_acc, classes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_hw::CostScenario;
    use pe_mlp::FixedLayer;

    fn setup() -> (FixedMlp, QuantMatrix, Vec<usize>) {
        let mlp = FixedMlp {
            input_bits: 4,
            layers: vec![FixedLayer {
                weights: vec![vec![-87], vec![87]],
                biases: vec![609, -609],
                qrelu: None,
            }],
        };
        let rows = QuantMatrix::from_rows(&(0..16u8).map(|v| vec![v]).collect::<Vec<_>>());
        let labels: Vec<usize> = (0..16).map(|v| usize::from(v > 7)).collect();
        (mlp, rows, labels)
    }

    #[test]
    fn vos_design_reduces_power_beyond_structure() {
        let (mlp, rows, labels) = setup();
        let model = ExactCostModel::new(CostScenario::default());
        let vdd = VddModel::egfet();
        let design = approximate_tcad23(
            &mlp,
            &rows,
            &labels,
            2,
            &Tcad23Config::default(),
            &model,
            &vdd,
        );
        let at_vos = design.hardware_report(&model, &vdd, "t");
        let at_nominal = design.design.hardware_report(&model, "t");
        assert!(at_vos.power_mw < at_nominal.power_mw);
        assert!((at_vos.vdd - 0.75).abs() < 1e-12);
    }

    #[test]
    fn timing_error_model_is_sane() {
        assert_eq!(timing_error_rate(100.0, 200.0), 0.0);
        assert_eq!(timing_error_rate(200.0, 200.0), 0.0);
        assert!((timing_error_rate(300.0, 200.0) - 0.5).abs() < 1e-12);
        assert_eq!(timing_error_rate(1000.0, 200.0), 1.0);
    }

    #[test]
    fn vos_accuracy_blends_toward_random_guess() {
        let d = Tcad23Design {
            design: Tc23Design {
                mlp: setup().0,
                trunc_bits: vec![0],
                tuning_accuracy: 0.9,
            },
            vdd: 0.75,
            timing_error_rate: 0.5,
            tuning_accuracy: 0.0,
        };
        let blended = d.vos_accuracy(0.9, 2);
        assert!((blended - (0.45 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn weights_respect_the_digit_budget() {
        let (mlp, rows, labels) = setup();
        let model = ExactCostModel::new(CostScenario::default());
        let vdd = VddModel::egfet();
        let design = approximate_tcad23(
            &mlp,
            &rows,
            &labels,
            2,
            &Tcad23Config::default(),
            &model,
            &vdd,
        );
        for layer in &design.design.mlp.layers {
            for row in &layer.weights {
                for &w in row {
                    assert!(pe_arith::csd::csd_nonzero_digits(i64::from(w)) <= 3, "{w}");
                }
            }
        }
    }
}
