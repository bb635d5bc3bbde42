//! Monte-Carlo process-variation model for printed EGFET circuits.
//!
//! Printed electronics is the poster child for process variation:
//! device-to-device threshold and mobility spread is far wider than in
//! silicon, supplies droop under load, and 4-bit sensor frontends are
//! noisy. This module models those effects as a serializable
//! [`VariationModel`] sampled by a *deterministic, stateless* keyed
//! sampler: every draw is a pure function of a per-trial seed and the
//! coordinates of the thing being perturbed (layer/neuron for device
//! spread, sample/feature for input noise). No RNG state is threaded
//! anywhere, so Monte-Carlo trials are reproducible bit for bit no
//! matter how many threads evaluate them or in which order.
//!
//! Three effects, one per knob family:
//!
//! * **Threshold spread** (`threshold_sigma`) — a per-device Gaussian
//!   offset added to every neuron's accumulator, scaled to the
//!   activation full-scale (`2^input_bits`), i.e. a comparator
//!   threshold shift referred to the summation node.
//! * **Mobility spread** (`mobility_sigma`) — a per-device Gaussian
//!   gain on the accumulator (drive-strength mismatch).
//! * **Supply droop** (`supply_droop`) — a per-trial uniform droop
//!   `d ∈ [0, supply_droop]`; the weakened swing multiplies every gain
//!   by `1 − d` and amplifies threshold offsets by `1/(1 − d)`.
//! * **Input noise** (`input_noise_lsb`) — Gaussian noise in LSBs on
//!   each quantized input activation, clamped to the activation range.
//!
//! A model with every knob at zero samples *exact* no-ops (offset `0`,
//! gain exactly `1.0`, unchanged inputs), which is what makes
//! zero-variance robust search byte-identical to nominal search.
//!
//! # Worked example
//!
//! ```
//! use pe_hw::variation::{trial_seed, RobustStat, VariationConfig, VariationModel};
//!
//! // The calibrated printed-EGFET corner: 5 % threshold spread, 3 %
//! // mobility spread, up to 5 % supply droop, 0.3 LSB input noise.
//! let model = VariationModel::printed_egfet();
//! let config = VariationConfig::new(model, 8);
//! config.validate().expect("a valid configuration");
//!
//! // Per-trial seeds derive from the study's master seed by value —
//! // the same master always yields the same trials.
//! let seed = trial_seed(42, 0);
//! assert_eq!(seed, trial_seed(42, 0));
//!
//! // Each device's perturbation is a pure function of (trial, layer,
//! // neuron): sampling it twice gives the same draw, with no RNG state.
//! let draw = config.model.device_draw(seed, 0, 3, 4);
//! assert_eq!(draw, config.model.device_draw(seed, 0, 3, 4));
//! assert!(draw.gain > 0.0);
//!
//! // The robust statistic folds M per-trial accuracies into one score.
//! assert_eq!(RobustStat::WorstCase.statistic(&[0.9, 0.8, 0.95]), 0.8);
//! assert_eq!(RobustStat::P95.statistic(&[0.7]), 0.7);
//!
//! // A zero-variance model samples exact no-ops.
//! let nominal = VariationModel::nominal();
//! assert!(nominal.is_zero());
//! assert!(nominal.device_draw(seed, 0, 3, 4).is_identity());
//! ```

use pe_arith::cache::splitmix64;
use serde::{Deserialize, Serialize};

/// The splitmix64 increment (the golden ratio in 64-bit fixed point).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Domain-separation tags so the threshold, mobility, droop and input
/// draws of one trial are independent streams.
const TAG_THRESHOLD: u64 = 0x7468_7265_7368_6F6C;
const TAG_MOBILITY: u64 = 0x6D6F_6269_6C69_7479;
const TAG_DROOP: u64 = 0x6472_6F6F_7076_6464;
const TAG_INPUT: u64 = 0x696E_7075_746C_7362;

/// The seed of Monte-Carlo trial `trial` under `master`.
///
/// Derived splitmix64-style (like the per-dataset `derive_seed` in the
/// study pipeline) so trial streams are decorrelated and pinned by
/// value: the robustness test suite asserts exact outputs.
#[must_use]
pub fn trial_seed(master: u64, trial: usize) -> u64 {
    splitmix64(master.wrapping_add((trial as u64 + 1).wrapping_mul(GOLDEN)))
}

/// A uniform draw in `[0, 1)` from 53 mixed bits.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A standard-normal draw from a key (Irwin–Hall: the sum of twelve
/// uniforms minus six — no `libm`, exact determinism).
fn gauss(base: u64) -> f64 {
    let mut state = base;
    let mut sum = 0.0;
    for _ in 0..12 {
        state = state.wrapping_add(GOLDEN);
        sum += unit(splitmix64(state));
    }
    sum - 6.0
}

/// A per-purpose draw key for coordinates `(a, b)` under a trial seed.
fn keyed(seed: u64, tag: u64, a: usize, b: usize) -> u64 {
    let coords = splitmix64((a as u64).wrapping_mul(GOLDEN) ^ b as u64);
    splitmix64(seed ^ splitmix64(tag.wrapping_add(coords)))
}

/// Per-device perturbation of one neuron in one Monte-Carlo trial.
///
/// Applied to the neuron's pre-activation accumulator:
/// `acc' = round(acc · gain) + offset`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceDraw {
    /// Multiplicative drive-strength factor (exactly `1.0` under a
    /// zero-variance model).
    pub gain: f64,
    /// Additive threshold offset referred to the accumulator, in
    /// accumulator LSBs (exactly `0` under a zero-variance model).
    pub offset: i64,
}

impl DeviceDraw {
    /// `true` when applying this draw is an exact no-op.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.gain == 1.0 && self.offset == 0
    }

    /// The perturbed accumulator value.
    ///
    /// The gain path rounds through `f64`, which represents integers
    /// exactly only up to `2^53` — accumulators sit orders of
    /// magnitude below that in any realizable topology (a layer of F
    /// fan-in at B activation bits sums to well under `F · 2^(B+7)`),
    /// and the debug assertion pins the bound this relies on.
    #[must_use]
    pub fn apply(&self, acc: i64) -> i64 {
        if self.is_identity() {
            acc
        } else {
            debug_assert!(
                acc.unsigned_abs() < 1u64 << 53,
                "accumulator {acc} exceeds f64's exact-integer range"
            );
            (acc as f64 * self.gain).round() as i64 + self.offset
        }
    }
}

/// A serializable process-variation corner (see the module docs for
/// the sampling semantics and a worked example).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariationModel {
    /// Per-device threshold spread, as a fraction of the activation
    /// full scale `2^input_bits` (σ of a Gaussian offset).
    pub threshold_sigma: f64,
    /// Per-device mobility (drive-strength) spread: σ of a Gaussian
    /// gain around 1.0.
    pub mobility_sigma: f64,
    /// Maximum per-trial supply droop as a fraction of Vdd, in
    /// `[0, 1)`; each trial draws uniformly from `[0, supply_droop]`.
    pub supply_droop: f64,
    /// Input-activation noise σ in LSBs of the quantized inputs.
    pub input_noise_lsb: f64,
}

impl VariationModel {
    /// The zero-variance model: every draw is an exact no-op.
    #[must_use]
    pub fn nominal() -> Self {
        Self {
            threshold_sigma: 0.0,
            mobility_sigma: 0.0,
            supply_droop: 0.0,
            input_noise_lsb: 0.0,
        }
    }

    /// A calibrated printed-EGFET corner: 5 % threshold spread, 3 %
    /// mobility spread, up to 5 % supply droop and 0.3 LSB of input
    /// noise — wide by silicon standards, ordinary for printed devices.
    #[must_use]
    pub fn printed_egfet() -> Self {
        Self {
            threshold_sigma: 0.05,
            mobility_sigma: 0.03,
            supply_droop: 0.05,
            input_noise_lsb: 0.3,
        }
    }

    /// `true` when every knob is zero (all draws are exact no-ops).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.threshold_sigma == 0.0
            && self.mobility_sigma == 0.0
            && self.supply_droop == 0.0
            && self.input_noise_lsb == 0.0
    }

    /// Validates the knobs: spreads must be finite and non-negative,
    /// the droop must lie in `[0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        let non_negative = [
            ("threshold_sigma", self.threshold_sigma),
            ("mobility_sigma", self.mobility_sigma),
            ("input_noise_lsb", self.input_noise_lsb),
        ];
        for (name, value) in non_negative {
            if !value.is_finite() || value < 0.0 {
                return Err(format!("{name} must be finite and >= 0, got {value}"));
            }
        }
        if !self.supply_droop.is_finite() || !(0.0..1.0).contains(&self.supply_droop) {
            return Err(format!(
                "supply_droop must lie in [0, 1), got {}",
                self.supply_droop
            ));
        }
        Ok(())
    }

    /// This trial's supply droop `d ∈ [0, supply_droop]`.
    #[must_use]
    pub fn droop(&self, trial_seed: u64) -> f64 {
        if self.supply_droop == 0.0 {
            return 0.0;
        }
        unit(splitmix64(trial_seed ^ TAG_DROOP)) * self.supply_droop
    }

    /// The perturbation of device `(layer, neuron)` in the trial with
    /// seed `trial_seed`, for activations of `input_bits` bits.
    ///
    /// Pure in its arguments: call it from any thread, in any order.
    #[must_use]
    pub fn device_draw(
        &self,
        trial_seed: u64,
        layer: usize,
        neuron: usize,
        input_bits: u32,
    ) -> DeviceDraw {
        let d = self.droop(trial_seed);
        let g_th = gauss(keyed(trial_seed, TAG_THRESHOLD, layer, neuron));
        let g_mob = gauss(keyed(trial_seed, TAG_MOBILITY, layer, neuron));
        let full_scale = f64::from(1u32 << input_bits);
        // Droop weakens the swing (gain × (1 − d)) and makes the same
        // physical threshold shift loom larger (offset ÷ (1 − d)).
        let offset = (g_th * self.threshold_sigma * full_scale / (1.0 - d)).round() as i64;
        let gain = ((1.0 - d) * (1.0 + g_mob * self.mobility_sigma)).max(0.1);
        DeviceDraw { gain, offset }
    }

    /// Input activation `x` of `(sample, feature)` perturbed by this
    /// trial's input noise, clamped to the `bits`-bit range.
    #[must_use]
    pub fn perturb_input(
        &self,
        trial_seed: u64,
        sample: usize,
        feature: usize,
        x: u8,
        bits: u32,
    ) -> u8 {
        if self.input_noise_lsb == 0.0 {
            return x;
        }
        let g = gauss(keyed(trial_seed, TAG_INPUT, sample, feature));
        let delta = (g * self.input_noise_lsb).round() as i32;
        let max = (1i32 << bits) - 1;
        (i32::from(x) + delta).clamp(0, max) as u8
    }
}

impl Default for VariationModel {
    fn default() -> Self {
        Self::nominal()
    }
}

/// How M per-trial accuracies fold into one robust score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RobustStat {
    /// The minimum accuracy over the trials.
    WorstCase,
    /// The accuracy at least 95 % of trials achieve: the 5th-percentile
    /// trial by the inclusive nearest-rank method (rank
    /// `⌈M/20⌉`, so `M = 1` is the single trial and `M = 20` is the
    /// minimum).
    P95,
}

impl RobustStat {
    /// The statistic over non-empty per-trial accuracies.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is empty.
    #[must_use]
    pub fn statistic(&self, trials: &[f64]) -> f64 {
        assert!(!trials.is_empty(), "the robust statistic needs >= 1 trial");
        match self {
            RobustStat::WorstCase => trials.iter().copied().fold(f64::INFINITY, f64::min),
            RobustStat::P95 => {
                let mut sorted = trials.to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite accuracies"));
                // Inclusive nearest rank ⌈0.05·M⌉ in integer arithmetic
                // (no float boundary hazard at M = 20, 40, …).
                let rank = trials.len().div_ceil(20).max(1);
                sorted[rank - 1]
            }
        }
    }
}

/// A complete robustness request: the variation corner, the number of
/// Monte-Carlo trials and the statistic the search optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariationConfig {
    /// The process-variation corner to sample.
    pub model: VariationModel,
    /// Monte-Carlo trials per evaluation (M ≥ 1).
    pub trials: usize,
    /// The per-trial accuracy statistic the search optimizes.
    pub statistic: RobustStat,
}

impl VariationConfig {
    /// A worst-case-over-`trials` configuration for `model`.
    #[must_use]
    pub fn new(model: VariationModel, trials: usize) -> Self {
        Self {
            model,
            trials,
            statistic: RobustStat::WorstCase,
        }
    }

    /// The same configuration optimizing a different statistic.
    #[must_use]
    pub fn with_statistic(mut self, statistic: RobustStat) -> Self {
        self.statistic = statistic;
        self
    }

    /// Validates the model knobs and requires `trials >= 1`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        self.model.validate()?;
        if self.trials == 0 {
            return Err("variation trials must be >= 1 (M = 0 evaluates nothing)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_variance_draws_are_exact_no_ops() {
        let m = VariationModel::nominal();
        assert!(m.is_zero());
        for trial in 0..4 {
            let seed = trial_seed(99, trial);
            assert_eq!(m.droop(seed), 0.0);
            for (layer, neuron) in [(0, 0), (0, 7), (1, 3), (2, 100)] {
                let draw = m.device_draw(seed, layer, neuron, 4);
                assert!(draw.is_identity(), "{draw:?}");
                assert_eq!(draw.apply(-1234), -1234);
            }
            for (s, f, x) in [(0, 0, 0u8), (5, 2, 15), (9, 9, 7)] {
                assert_eq!(m.perturb_input(seed, s, f, x, 4), x);
            }
        }
    }

    #[test]
    fn draws_are_pure_functions_of_their_keys() {
        let m = VariationModel::printed_egfet();
        let seed = trial_seed(7, 3);
        assert_eq!(m.device_draw(seed, 1, 2, 4), m.device_draw(seed, 1, 2, 4));
        assert_eq!(
            m.perturb_input(seed, 4, 1, 9, 4),
            m.perturb_input(seed, 4, 1, 9, 4)
        );
        // Distinct coordinates decorrelate.
        assert_ne!(m.device_draw(seed, 1, 2, 4), m.device_draw(seed, 2, 1, 4));
        assert_ne!(
            m.device_draw(trial_seed(7, 0), 1, 2, 4),
            m.device_draw(trial_seed(7, 1), 1, 2, 4)
        );
    }

    #[test]
    fn perturbed_inputs_stay_in_range() {
        let m = VariationModel {
            input_noise_lsb: 4.0,
            ..VariationModel::nominal()
        };
        for trial in 0..8 {
            let seed = trial_seed(1, trial);
            for s in 0..32 {
                for x in [0u8, 1, 7, 14, 15] {
                    let y = m.perturb_input(seed, s, 0, x, 4);
                    assert!(y <= 15);
                }
            }
        }
    }

    #[test]
    fn droop_is_bounded_and_per_trial() {
        let m = VariationModel::printed_egfet();
        let mut distinct = std::collections::BTreeSet::new();
        for trial in 0..16 {
            let d = m.droop(trial_seed(5, trial));
            assert!((0.0..=m.supply_droop).contains(&d));
            distinct.insert(d.to_bits());
        }
        assert!(distinct.len() > 8, "droop must vary across trials");
    }

    #[test]
    fn gaussian_draws_have_sane_moments() {
        let m = VariationModel {
            threshold_sigma: 1.0 / 16.0, // offset σ = 1 LSB at 4 bits
            ..VariationModel::nominal()
        };
        let n = 4000usize;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for i in 0..n {
            let offset = m.device_draw(trial_seed(11, i), 0, 0, 4).offset as f64;
            sum += offset;
            sumsq += offset * offset;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.1, "mean {mean}");
        // Rounded unit Gaussian: variance ≈ 1.08 (rounding adds 1/12).
        assert!((0.8..1.4).contains(&var), "variance {var}");
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        assert!(VariationModel::printed_egfet().validate().is_ok());
        let bad_sigma = VariationModel {
            threshold_sigma: -0.1,
            ..VariationModel::nominal()
        };
        assert!(bad_sigma.validate().is_err());
        let bad_droop = VariationModel {
            supply_droop: 1.0,
            ..VariationModel::nominal()
        };
        assert!(bad_droop.validate().is_err());
        let nan = VariationModel {
            mobility_sigma: f64::NAN,
            ..VariationModel::nominal()
        };
        assert!(nan.validate().is_err());
        assert!(VariationConfig::new(VariationModel::nominal(), 0)
            .validate()
            .is_err());
        assert!(VariationConfig::new(VariationModel::nominal(), 1)
            .validate()
            .is_ok());
    }

    #[test]
    fn statistics_cover_the_edge_cases() {
        // M = 1: both statistics are the single value.
        assert_eq!(RobustStat::WorstCase.statistic(&[0.25]), 0.25);
        assert_eq!(RobustStat::P95.statistic(&[0.25]), 0.25);
        // Ties and all-equal trials.
        assert_eq!(RobustStat::WorstCase.statistic(&[0.5, 0.5, 0.5]), 0.5);
        assert_eq!(RobustStat::P95.statistic(&[0.5, 0.5, 0.5]), 0.5);
        // Worst case is the minimum regardless of order.
        assert_eq!(RobustStat::WorstCase.statistic(&[0.9, 0.1, 0.5]), 0.1);
        // Inclusive nearest-rank boundary: at M = 20 the rank-1 trial
        // (the minimum) is the p95 value; at M = 21 it is the second
        // smallest.
        let mut twenty: Vec<f64> = (0..20).map(|i| i as f64 / 20.0).collect();
        assert_eq!(RobustStat::P95.statistic(&twenty), 0.0);
        twenty.push(1.0); // M = 21, minimum unchanged
        assert_eq!(RobustStat::P95.statistic(&twenty), 1.0 / 20.0);
    }

    #[test]
    fn config_round_trips_through_serde() {
        let config = VariationConfig::new(VariationModel::printed_egfet(), 12)
            .with_statistic(RobustStat::P95);
        let json = serde_json::to_string(&config).expect("serialize");
        let back: VariationConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, config);
    }
}
