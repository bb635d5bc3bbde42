//! The DATE'24 `AdderArea` estimator (§III-C).
//!
//! The paper trains against a fast area proxy: the number of full adders
//! needed by each neuron's multi-operand adder tree, computed from the
//! neuron's masks, signs, shift exponents, and bias by counting the
//! non-zero bits in each column and "recursively comput\[ing\] the number
//! of required FAs". [`AdderAreaEstimator`] is that function — the paper
//! implements it in Python; this is the Rust equivalent, built on
//! [`ColumnProfile`] and [`Reducer`] so that the estimate and the
//! netlist elaborated by `pe-hw` share one structural model.

use serde::{Deserialize, Serialize};

use crate::column::ColumnProfile;
use crate::reduce::{Reducer, ReductionKind, ReductionStats};
use crate::summand::Summand;

/// Arithmetic description of one weight of an approximate neuron: the
/// triple `(m, s, k)` of paper Eq. (1)/(4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WeightArith {
    /// Pruning mask over the input activation bits (`1` keeps the bit).
    /// A zero mask removes the summand entirely (hardware-equivalent to
    /// a zero weight, §III-B).
    pub mask: u64,
    /// Power-of-two exponent `k` of the weight magnitude `2^k`.
    pub shift: u32,
    /// Sign `s`: `true` for −1, `false` for +1.
    pub negative: bool,
}

/// Arithmetic description of one approximate neuron `θ_j^(l)`:
/// everything the area estimate depends on.
///
/// Two neurons with the same weight signature (masks, signs, shifts),
/// bias and input width cost exactly the same hardware, so `Hash`/`Eq`
/// make the spec usable as a cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NeuronArithSpec {
    /// Width of each input activation in bits (4 for first-layer inputs,
    /// 8 for hidden QReLU activations in the paper's setup).
    pub input_bits: u32,
    /// Per-input weight descriptions.
    pub weights: Vec<WeightArith>,
    /// Quantized bias `b_j^(l)`.
    pub bias: i64,
}

impl NeuronArithSpec {
    /// Lower the neuron to the [`Summand`] list of its accumulation.
    ///
    /// Zero-mask weights are dropped (they are wired out of the design),
    /// and the bias becomes a constant summand.
    #[must_use]
    pub fn summands(&self) -> Vec<Summand> {
        let mut out: Vec<Summand> = self
            .weights
            .iter()
            .filter(|w| w.mask != 0)
            .map(|w| Summand::MaskedInput {
                input_bits: self.input_bits,
                mask: w.mask,
                shift: w.shift,
                negative: w.negative,
            })
            .collect();
        if self.bias != 0 {
            out.push(Summand::Constant(self.bias));
        }
        out
    }

    /// Number of active (non-pruned) connections.
    #[must_use]
    pub fn active_inputs(&self) -> usize {
        self.weights.iter().filter(|w| w.mask != 0).count()
    }

    /// Total number of variable bits entering the adder tree.
    #[must_use]
    pub fn active_bits(&self) -> u32 {
        self.weights.iter().map(|w| w.mask.count_ones()).sum()
    }
}

/// Result of estimating one neuron's adder area.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdderAreaReport {
    /// Full adders (compression tree + final carry-propagate adder).
    pub full_adders: u32,
    /// Half adders (only non-zero under [`ReductionKind::FaHa`]).
    pub half_adders: u32,
    /// NOT gates for subtracted summands' inverted bits.
    pub not_gates: u32,
    /// Reduction depth in compressor stages.
    pub stages: u32,
    /// Accumulator width used for sign folding.
    pub accumulator_bits: u32,
    /// The column profile the estimate was computed from.
    pub profile: ColumnProfile,
}

impl AdderAreaReport {
    /// Scalar cost used as the GA's area objective: FA count with HAs at
    /// half weight.
    #[must_use]
    pub fn fa_equivalent(&self) -> f64 {
        f64::from(self.full_adders) + 0.5 * f64::from(self.half_adders)
    }
}

/// Fast FA-count area estimator for approximate bespoke neurons.
///
/// ```
/// use pe_arith::estimator::{AdderAreaEstimator, NeuronArithSpec, WeightArith};
///
/// let full = NeuronArithSpec {
///     input_bits: 4,
///     weights: vec![WeightArith { mask: 0b1111, shift: 0, negative: false }; 6],
///     bias: 0,
/// };
/// let mut pruned = full.clone();
/// for w in &mut pruned.weights {
///     w.mask = 0b1000; // keep only the MSB of each input
/// }
/// let est = AdderAreaEstimator::paper();
/// assert!(est.estimate(&pruned).full_adders < est.estimate(&full).full_adders);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdderAreaEstimator {
    reducer: Reducer,
}

impl AdderAreaEstimator {
    /// The paper's estimator: FA-only 3:2 reduction.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            reducer: Reducer::new(ReductionKind::FaOnly),
        }
    }

    /// Estimator with an explicit compressor policy (used by the
    /// `fa_vs_netlist` ablation).
    #[must_use]
    pub fn with_kind(kind: ReductionKind) -> Self {
        Self {
            reducer: Reducer::new(kind),
        }
    }

    /// Estimate the adder area of one neuron.
    ///
    /// # Panics
    ///
    /// Panics if the neuron specification is malformed (masks wider than
    /// `input_bits`); specifications produced by the `printed-axc` genome
    /// decoder are always well-formed.
    #[must_use]
    pub fn estimate(&self, spec: &NeuronArithSpec) -> AdderAreaReport {
        let summands = spec.summands();
        let acc_bits = ColumnProfile::accumulator_width(&summands);
        let profile = ColumnProfile::from_summands(&summands, acc_bits)
            .expect("neuron spec must be well-formed");
        let stats: ReductionStats = self.reducer.reduce(&profile);
        let not_gates = summands
            .iter()
            .filter(|s| s.is_negative())
            .map(Summand::active_bit_count)
            .sum();
        AdderAreaReport {
            full_adders: stats.full_adders(),
            half_adders: stats.half_adders(),
            not_gates,
            stages: stats.stages,
            accumulator_bits: acc_bits,
            profile,
        }
    }

    /// The gate-count summary of one neuron, computed without
    /// materializing the summand list, the per-column
    /// [`ColumnProfile`] or the [`AdderAreaReport`] — the GA's area
    /// objective runs this for every neuron of every genome, so it is
    /// written to allocate exactly one height vector.
    ///
    /// Identical by construction (and pinned by tests) to
    /// `NeuronGateCounts::from(&self.estimate(spec))`.
    ///
    /// # Panics
    ///
    /// Panics on malformed specs exactly like
    /// [`estimate`](Self::estimate).
    #[must_use]
    pub fn counts_of(&self, spec: &NeuronArithSpec) -> NeuronGateCounts {
        self.counts_of_with(spec, &mut Vec::new())
    }

    /// [`counts_of`](Self::counts_of) with a caller-provided height
    /// scratch vector, so a caller that reuses one buffer allocates
    /// nothing at all.
    ///
    /// # Panics
    ///
    /// Panics on malformed specs exactly like
    /// [`estimate`](Self::estimate).
    #[must_use]
    pub fn counts_of_with(
        &self,
        spec: &NeuronArithSpec,
        heights: &mut Vec<u32>,
    ) -> NeuronGateCounts {
        // Accumulator width, mirroring `ColumnProfile::accumulator_width`
        // over the implicit summand list (active weights + bias).
        let mut pos: u64 = 0;
        let mut neg: u64 = 0;
        let mut not_gates: u32 = 0;
        for w in spec.weights.iter().filter(|w| w.mask != 0) {
            let magnitude = w.mask << w.shift;
            if w.negative {
                neg += magnitude;
                not_gates += w.mask.count_ones();
            } else {
                pos += magnitude;
            }
        }
        if spec.bias >= 0 {
            pos += spec.bias.unsigned_abs();
        } else {
            neg += spec.bias.unsigned_abs();
        }
        let acc_bits = crate::fixed::unsigned_width(pos.max(neg).max(1)) + 1;

        // Column heights, mirroring `ColumnProfile::from_summands`:
        // variable mask bits in place, negation corrections and the
        // bias folded into one constant whose set bits join the
        // profile.
        heights.clear();
        heights.resize(acc_bits as usize, 0);
        let modulus_mask = (1u64 << acc_bits) - 1;
        let mut folded_constant: u64 = 0;
        let well_formed = "neuron spec must be well-formed";
        for w in spec.weights.iter().filter(|w| w.mask != 0) {
            let summand = Summand::MaskedInput {
                input_bits: spec.input_bits,
                mask: w.mask,
                shift: w.shift,
                negative: w.negative,
            };
            summand.validate().expect(well_formed);
            let mut mask = w.mask;
            while mask != 0 {
                let pos = mask.trailing_zeros() + w.shift;
                assert!(pos < acc_bits, "{well_formed}");
                heights[pos as usize] += 1;
                mask &= mask - 1;
            }
            if let Some(k) = summand.negation_constant(acc_bits).expect(well_formed) {
                folded_constant = folded_constant.wrapping_add(k) & modulus_mask;
            }
        }
        if spec.bias != 0 {
            let pattern =
                crate::summand::constant_bit_pattern(spec.bias, acc_bits).expect(well_formed);
            folded_constant = folded_constant.wrapping_add(pattern) & modulus_mask;
        }
        for b in 0..acc_bits {
            if folded_constant >> b & 1 == 1 {
                heights[b as usize] += 1;
            }
        }
        while heights.last() == Some(&0) {
            heights.pop();
        }

        let stats = self.reducer.reduce_in_place(heights);
        NeuronGateCounts {
            full_adders: stats.full_adders(),
            half_adders: stats.half_adders(),
            not_gates,
            stages: stats.stages,
            accumulator_bits: acc_bits,
        }
    }

    /// Estimate a whole layer / MLP: the sum of per-neuron FA-equivalents
    /// (paper Eq. (2): `Area(θ) = Σ AdderArea(θ_j^(l))`).
    #[must_use]
    pub fn estimate_total<'a, I>(&self, neurons: I) -> f64
    where
        I: IntoIterator<Item = &'a NeuronArithSpec>,
    {
        neurons
            .into_iter()
            .map(|n| self.estimate(n).fa_equivalent())
            .sum()
    }
}

impl Default for AdderAreaEstimator {
    fn default() -> Self {
        Self::paper()
    }
}

/// The gate-count summary of one neuron's adder area — everything the
/// GA's area objectives consume, without the per-column
/// [`ColumnProfile`] (which makes [`AdderAreaReport`] too heavy to
/// build by the million).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeuronGateCounts {
    /// Full adders (compression tree + final carry-propagate adder).
    pub full_adders: u32,
    /// Half adders (only non-zero under [`ReductionKind::FaHa`]).
    pub half_adders: u32,
    /// NOT gates for subtracted summands' inverted bits.
    pub not_gates: u32,
    /// Reduction depth in compressor stages.
    pub stages: u32,
    /// Accumulator width used for sign folding.
    pub accumulator_bits: u32,
}

impl NeuronGateCounts {
    /// Scalar cost used as the GA's FA-count objective (paper Eq. (2)):
    /// FAs with HAs at half weight.
    #[must_use]
    pub fn fa_equivalent(&self) -> f64 {
        f64::from(self.full_adders) + 0.5 * f64::from(self.half_adders)
    }
}

impl From<&AdderAreaReport> for NeuronGateCounts {
    fn from(r: &AdderAreaReport) -> Self {
        Self {
            full_adders: r.full_adders,
            half_adders: r.half_adders,
            not_gates: r.not_gates,
            stages: r.stages,
            accumulator_bits: r.accumulator_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(weights: Vec<WeightArith>, bias: i64) -> NeuronArithSpec {
        NeuronArithSpec {
            input_bits: 4,
            weights,
            bias,
        }
    }

    #[test]
    fn empty_neuron_costs_nothing() {
        let s = spec(vec![], 0);
        let r = AdderAreaEstimator::paper().estimate(&s);
        assert_eq!(r.full_adders, 0);
        assert_eq!(r.not_gates, 0);
    }

    #[test]
    fn zero_masks_remove_summands_entirely() {
        let s = spec(
            vec![
                WeightArith {
                    mask: 0,
                    shift: 3,
                    negative: true
                };
                10
            ],
            0,
        );
        let r = AdderAreaEstimator::paper().estimate(&s);
        assert_eq!(r.full_adders, 0);
        assert_eq!(r.profile.total_bits(), 0);
    }

    #[test]
    fn masking_bits_monotonically_reduces_area() {
        let est = AdderAreaEstimator::paper();
        let masks = [0b1111u64, 0b1110, 0b1100, 0b1000, 0b0000];
        let mut last = u32::MAX;
        for m in masks {
            let s = spec(
                vec![
                    WeightArith {
                        mask: m,
                        shift: 0,
                        negative: false
                    };
                    8
                ],
                5,
            );
            let fa = est.estimate(&s).full_adders;
            assert!(fa <= last, "mask {m:#b}: {fa} > {last}");
            last = fa;
        }
    }

    #[test]
    fn more_inputs_cost_more() {
        let est = AdderAreaEstimator::paper();
        let w = WeightArith {
            mask: 0b1111,
            shift: 0,
            negative: false,
        };
        let small = est.estimate(&spec(vec![w; 3], 0)).full_adders;
        let large = est.estimate(&spec(vec![w; 12], 0)).full_adders;
        assert!(large > small);
    }

    #[test]
    fn not_gates_counted_per_negative_bit() {
        let s = spec(
            vec![
                WeightArith {
                    mask: 0b1011,
                    shift: 0,
                    negative: true,
                },
                WeightArith {
                    mask: 0b1111,
                    shift: 1,
                    negative: false,
                },
                WeightArith {
                    mask: 0b0001,
                    shift: 2,
                    negative: true,
                },
            ],
            -7,
        );
        let r = AdderAreaEstimator::paper().estimate(&s);
        assert_eq!(r.not_gates, 3 + 1);
    }

    #[test]
    fn layer_total_is_sum_of_neurons() {
        let est = AdderAreaEstimator::paper();
        let a = spec(
            vec![
                WeightArith {
                    mask: 0b1111,
                    shift: 1,
                    negative: false
                };
                5
            ],
            3,
        );
        let b = spec(
            vec![
                WeightArith {
                    mask: 0b0110,
                    shift: 0,
                    negative: true
                };
                5
            ],
            -2,
        );
        let total = est.estimate_total([&a, &b]);
        let expected = est.estimate(&a).fa_equivalent() + est.estimate(&b).fa_equivalent();
        assert!((total - expected).abs() < 1e-12);
    }

    #[test]
    fn counts_of_equals_the_full_estimate_on_random_specs() {
        // The lean hot path must agree with the reference estimate on
        // every field, for both reduction kinds, across a broad sweep
        // of masks, shifts, signs and biases (deterministic LCG).
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        for kind in [ReductionKind::FaOnly, ReductionKind::FaHa] {
            let est = AdderAreaEstimator::with_kind(kind);
            for _ in 0..500 {
                let input_bits = 1 + (next() % 8) as u32;
                let weights: Vec<WeightArith> = (0..(next() % 20))
                    .map(|_| WeightArith {
                        mask: next() & ((1 << input_bits) - 1),
                        shift: (next() % 7) as u32,
                        negative: next() % 2 == 0,
                    })
                    .collect();
                let bias = (next() as i64 % 4096) - 2048;
                let s = NeuronArithSpec {
                    input_bits,
                    weights,
                    bias,
                };
                assert_eq!(
                    est.counts_of(&s),
                    NeuronGateCounts::from(&est.estimate(&s)),
                    "spec {s:?} kind {kind:?}"
                );
            }
        }
    }

    #[test]
    fn shift_moves_bits_but_keeps_count() {
        let est = AdderAreaEstimator::paper();
        let s0 = spec(
            vec![
                WeightArith {
                    mask: 0b1111,
                    shift: 0,
                    negative: false
                };
                4
            ],
            0,
        );
        let s3 = spec(
            vec![
                WeightArith {
                    mask: 0b1111,
                    shift: 3,
                    negative: false
                };
                4
            ],
            0,
        );
        let r0 = est.estimate(&s0);
        let r3 = est.estimate(&s3);
        assert_eq!(r0.profile.total_bits(), r3.profile.total_bits());
        // Same column shape shifted: identical tree cost.
        assert_eq!(r0.full_adders, r3.full_adders);
    }
}
