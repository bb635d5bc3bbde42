//! The DATE'24 `AdderArea` model (§III-C): from a neuron's masks,
//! signs, shift exponents and bias to the gates of its adder tree.
//!
//! The paper trains against a fast area proxy: the number of full adders
//! needed by each neuron's multi-operand adder tree, computed by
//! counting the non-zero bits in each column and "recursively
//! comput\[ing\] the number of required FAs". [`tree_gates`] is that
//! function, and the workspace's only analytic adder-tree model: the
//! GA's area objective, the design store's per-neuron counts, `pe-hw`'s
//! `Elaborator::cost` (which lowers exact baseline neurons to a
//! [`NeuronArithSpec`] too) and the `fa_vs_netlist` ablation all call
//! it. It builds the column heights (see [`crate::column`]) and
//! reduces them as [`crate::reduce::reduce`] does, without leaving the
//! lanes the heights are built in. `pe-hw`'s structural elaborator
//! (`elaborate_accumulation` + `TreeBuilder`) is its independent
//! oracle.

use serde::{Deserialize, Serialize};

use crate::column::neuron_lanes;
use crate::reduce::Lanes;

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
/// everything the area model depends on.
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

/// The gate-count summary of one neuron's adder area — everything the
/// GA's area objectives consume, and what the design store keeps per
/// neuron.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeuronGateCounts {
    /// Full adders (compression tree + final carry-propagate adder).
    pub full_adders: u32,
    /// Half adders: always 0 under the FA-only model. Kept because
    /// stored design records serialize the field.
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
    /// the full adders.
    #[must_use]
    pub fn fa_equivalent(&self) -> f64 {
        f64::from(self.full_adders)
    }
}

/// The gates of one neuron's adder tree: its [`NeuronGateCounts`] plus
/// the constants its netlist ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeGates {
    /// Full adders, NOT gates, stages and accumulator width.
    pub counts: NeuronGateCounts,
    /// Whether the tree ties an input high: the folded constant has a
    /// set bit.
    pub ties_high: bool,
    /// Whether the tree ties a net low: a carry-propagate FA's third
    /// input, an empty column's sum bit, or a sum bit that pads the
    /// adder's output to the accumulator width.
    pub ties_low: bool,
}

/// The gates of one neuron's FA-only adder tree (paper §III-C).
///
/// The heights are built and reduced in fixed-width lanes on the stack.
/// `heights` is scratch for a neuron with more live weights than one
/// byte-lane batch holds (254), which no network here has: a caller
/// that reuses one buffer allocates nothing once it has grown (the GA
/// runs this for every neuron of every genome).
///
/// ```
/// use pe_arith::{tree_gates, NeuronArithSpec, WeightArith};
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
/// let mut heights = Vec::new();
/// let mut fas = |spec: &NeuronArithSpec| tree_gates(spec, &mut heights).counts.full_adders;
/// assert!(fas(&pruned) < fas(&full));
/// ```
///
/// # Panics
///
/// Panics if the spec is malformed: an input width outside `1..=32`, a
/// mask wider than it, or a shift above 24. Specs decoded from a genome
/// or lowered from a baseline neuron are always well-formed.
#[must_use]
pub fn tree_gates(spec: &NeuronArithSpec, heights: &mut Vec<u32>) -> TreeGates {
    let mut lanes = Lanes::new();
    let columns = neuron_lanes(spec, heights, &mut lanes);
    let stats = lanes.reduce();
    TreeGates {
        counts: NeuronGateCounts {
            full_adders: stats.full_adders(),
            half_adders: 0,
            not_gates: columns.not_gates,
            stages: stats.stages,
            accumulator_bits: columns.accumulator_bits,
        },
        ties_high: columns.constant != 0,
        // The sum is cut or padded with constant zeros to the
        // accumulator width.
        ties_low: stats.ties_low || stats.sum_bits < columns.accumulator_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::neuron_columns;

    fn spec(weights: Vec<WeightArith>, bias: i64) -> NeuronArithSpec {
        NeuronArithSpec {
            input_bits: 4,
            weights,
            bias,
        }
    }

    fn counts(spec: &NeuronArithSpec) -> NeuronGateCounts {
        tree_gates(spec, &mut Vec::new()).counts
    }

    #[test]
    fn empty_neuron_costs_nothing() {
        let t = tree_gates(&spec(vec![], 0), &mut Vec::new());
        assert_eq!(t.counts.full_adders, 0);
        assert_eq!(t.counts.not_gates, 0);
        assert!(!t.ties_high);
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
        let mut heights = Vec::new();
        let t = tree_gates(&s, &mut heights);
        assert_eq!(t.counts.full_adders, 0);
        assert_eq!(t.counts.not_gates, 0);
        assert!(heights.is_empty());
    }

    #[test]
    fn masking_bits_monotonically_reduces_area() {
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
            let fa = counts(&s).full_adders;
            assert!(fa <= last, "mask {m:#b}: {fa} > {last}");
            last = fa;
        }
    }

    #[test]
    fn more_inputs_cost_more() {
        let w = WeightArith {
            mask: 0b1111,
            shift: 0,
            negative: false,
        };
        let small = counts(&spec(vec![w; 3], 0)).full_adders;
        let large = counts(&spec(vec![w; 12], 0)).full_adders;
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
        assert_eq!(counts(&s).not_gates, 3 + 1);
    }

    #[test]
    fn shift_moves_bits_but_keeps_count() {
        let shifted = |shift| {
            spec(
                vec![
                    WeightArith {
                        mask: 0b1111,
                        shift,
                        negative: false
                    };
                    4
                ],
                0,
            )
        };
        let (mut h0, mut h3) = (Vec::new(), Vec::new());
        neuron_columns(&shifted(0), &mut h0);
        neuron_columns(&shifted(3), &mut h3);
        assert_eq!(h3[..3], [0, 0, 0]);
        assert_eq!(h3[3..], h0[..]);
        // Same column shape shifted: identical tree cost.
        assert_eq!(
            counts(&shifted(0)).full_adders,
            counts(&shifted(3)).full_adders
        );
    }
}
