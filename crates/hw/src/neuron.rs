//! Elaboration of bespoke neurons into gate netlists.
//!
//! Both neuron flavours reduce to the same primitive: a multi-operand
//! accumulation of [`Summand`]s, each bound to the bit nets of one input
//! activation. Approximate neurons contribute one summand per non-zero
//! mask (paper Fig. 1: multiplication is wiring); exact baseline neurons
//! contribute one summand per binary or CSD digit of each coefficient
//! (the standard bespoke constant-multiplier decomposition).
//!
//! `arith_spec` lowers either flavour, without nets, to the
//! [`NeuronArithSpec`] that the analytic model
//! ([`pe_arith::tree_gates`]) prices; [`elaborate_accumulation`] is
//! that model's structural oracle.

use std::borrow::Cow;
use std::collections::VecDeque;

use pe_arith::column::accumulator_width;
use pe_arith::{CsdDigit, NeuronArithSpec, Summand, WeightArith};

use crate::adder_tree::TreeBuilder;
use crate::netlist::{NetId, Netlist};
use crate::spec::{ExactNeuronSpec, NeuronSpec};

/// A summand together with the nets of the input signal it draws from.
#[derive(Debug, Clone)]
pub struct BoundSummand {
    /// Structural description (mask, shift, sign or constant).
    pub summand: Summand,
    /// Bit nets of the input activation, LSB first. Empty for constants.
    pub input_nets: Vec<NetId>,
}

/// Result of elaborating one neuron's accumulation.
#[derive(Debug, Clone)]
pub struct NeuronAccumulation {
    /// Two's-complement sum bits of the accumulator, LSB first
    /// (`accumulator_bits` wide).
    pub sum_bits: Vec<NetId>,
    /// Accumulator width used for sign folding.
    pub accumulator_bits: u32,
    /// Compressor stages of the adder tree (timing model input).
    pub stages: u32,
}

/// Lower an approximate neuron spec to bound summands.
///
/// `inputs[i]` must hold the bit nets of activation `i`.
///
/// # Panics
///
/// Panics if `inputs` does not provide one bit-vector per weight, or a
/// bit-vector narrower than the spec's `input_bits`.
#[must_use]
pub fn bind_approximate(spec: &NeuronArithSpec, inputs: &[Vec<NetId>]) -> Vec<BoundSummand> {
    assert_eq!(
        inputs.len(),
        spec.weights.len(),
        "one input per weight required"
    );
    let mut out = Vec::new();
    for (w, nets) in spec.weights.iter().zip(inputs) {
        if w.mask == 0 {
            continue;
        }
        assert!(
            nets.len() >= spec.input_bits as usize,
            "input provides {} bits, spec needs {}",
            nets.len(),
            spec.input_bits
        );
        out.push(bound_weight(spec.input_bits, w, nets));
    }
    out.extend(bound_bias(spec.bias));
    out
}

/// Lower an exact baseline neuron to bound summands.
///
/// Each non-zero coefficient `w` becomes one shifted partial product
/// per set bit of `|w|` (all added for positive weights, all subtracted
/// for negative ones) — the binary shift-add structure a synthesis tool
/// derives from a hard-wired `a * W` multiplier. (Optimal CSD recoding,
/// available in [`pe_arith::csd`], would use fewer terms; commercial
/// flows do not reliably reach it, and the paper's Table I baseline
/// costs are consistent with the plain binary decomposition.)
///
/// # Panics
///
/// Panics if `inputs` does not provide one bit-vector per weight.
#[must_use]
pub fn bind_exact(spec: &ExactNeuronSpec, inputs: &[Vec<NetId>]) -> Vec<BoundSummand> {
    assert_eq!(
        inputs.len(),
        spec.weights.len(),
        "one input per weight required"
    );
    let mut out = Vec::new();
    for (&w, nets) in spec.weights.iter().zip(inputs) {
        for term in exact_weight_terms(spec, w) {
            out.push(bound_weight(spec.input_bits, &term, nets));
        }
    }
    out.extend(bound_bias(exact_bias(spec)));
    out
}

fn bound_weight(input_bits: u32, w: &WeightArith, nets: &[NetId]) -> BoundSummand {
    BoundSummand {
        summand: Summand::MaskedInput {
            input_bits,
            mask: w.mask,
            shift: w.shift,
            negative: w.negative,
        },
        input_nets: nets.to_vec(),
    }
}

fn bound_bias(bias: i64) -> Option<BoundSummand> {
    (bias != 0).then(|| BoundSummand {
        summand: Summand::Constant(bias),
        input_nets: vec![],
    })
}

/// The partial products of one exact weight `w` (none for a zero
/// weight), each a masked, shifted, signed copy of the weight's input.
/// The single lowering shared by the netlist binder ([`bind_exact`])
/// and the analytic cost model ([`arith_spec`]), so the two can never
/// disagree about a weight's decomposition.
fn exact_weight_terms(spec: &ExactNeuronSpec, w: i64) -> Vec<WeightArith> {
    if w == 0 {
        return Vec::new();
    }
    let full_mask = (1u64 << spec.input_bits) - 1;
    let digits = if spec.csd_multipliers {
        pe_arith::csd_digits(w)
    } else {
        binary_digits(w)
    };
    let mut out = Vec::new();
    for (p, digit) in digits {
        // Accumulation truncation (TC'23 style): partial-product
        // bits landing below `trunc_bits` are hard-wired out.
        let mask = if spec.trunc_bits > p {
            full_mask & !((1u64 << (spec.trunc_bits - p).min(63)) - 1)
        } else {
            full_mask
        };
        if mask == 0 {
            continue;
        }
        out.push(WeightArith {
            mask,
            shift: p,
            negative: digit == CsdDigit::MinusOne,
        });
    }
    out
}

/// The bias of an exact neuron: the bits above the truncation line.
fn exact_bias(spec: &ExactNeuronSpec) -> i64 {
    (spec.bias >> spec.trunc_bits) << spec.trunc_bits
}

/// A neuron as the [`NeuronArithSpec`] that the analytic model
/// ([`pe_arith::tree_gates`]) prices: an approximate neuron as it is,
/// and an exact neuron as one weight per partial product plus its
/// truncated bias, the terms [`bind_exact`] binds.
#[must_use]
pub(crate) fn arith_spec(neuron: &NeuronSpec) -> Cow<'_, NeuronArithSpec> {
    match neuron {
        NeuronSpec::Approximate(a) => Cow::Borrowed(a),
        NeuronSpec::Exact(e) => Cow::Owned(NeuronArithSpec {
            input_bits: e.input_bits,
            weights: e
                .weights
                .iter()
                .flat_map(|&w| exact_weight_terms(e, w))
                .collect(),
            bias: exact_bias(e),
        }),
    }
}

/// Binary digit positions of `w`: one `(position, sign)` pair per set
/// bit of `|w|`, all carrying `w`'s sign.
fn binary_digits(w: i64) -> Vec<(u32, CsdDigit)> {
    let digit = if w < 0 {
        CsdDigit::MinusOne
    } else {
        CsdDigit::PlusOne
    };
    let mag = w.unsigned_abs();
    (0..63)
        .filter(|b| mag >> b & 1 == 1)
        .map(|b| (b, digit))
        .collect()
}

/// Elaborate a bound accumulation into the netlist.
///
/// Implements exactly the structure the paper describes: variable bits
/// are placed in their columns (inverted through NOT gates for
/// subtracted summands), every two's-complement correction and the bias
/// are folded into a single constant whose set bits enter the tree as
/// tie-high cells, and a [`TreeBuilder`] compresses the columns.
///
/// # Panics
///
/// Panics on malformed summands (these are validated upstream).
#[must_use]
pub fn elaborate_accumulation(netlist: &mut Netlist, bound: &[BoundSummand]) -> NeuronAccumulation {
    let summands: Vec<Summand> = bound.iter().map(|b| b.summand.clone()).collect();
    let acc_bits = accumulator_width(&summands);
    let modulus_mask = (1u64 << acc_bits) - 1;

    let mut columns: Vec<VecDeque<NetId>> = vec![VecDeque::new(); acc_bits as usize];
    let mut folded_constant: u64 = 0;

    for b in bound {
        match &b.summand {
            Summand::MaskedInput {
                mask,
                shift,
                negative,
                ..
            } => {
                for bit in 0..64u32 {
                    if mask >> bit & 1 == 0 {
                        continue;
                    }
                    let col = (bit + shift) as usize;
                    let src = b.input_nets[bit as usize];
                    let net = if *negative {
                        netlist.inverter(src)
                    } else {
                        src
                    };
                    columns[col].push_back(net);
                }
                if let Some(k) = b
                    .summand
                    .negation_constant(acc_bits)
                    .expect("validated summand")
                {
                    folded_constant = folded_constant.wrapping_add(k) & modulus_mask;
                }
            }
            Summand::Constant(c) => {
                let pattern = pe_arith::fixed::to_twos_complement(*c, acc_bits)
                    .expect("bias fits accumulator");
                folded_constant = folded_constant.wrapping_add(pattern) & modulus_mask;
            }
        }
    }

    for bit in 0..acc_bits {
        if folded_constant >> bit & 1 == 1 {
            let one = netlist.const_one();
            columns[bit as usize].push_back(one);
        }
    }

    let tree = TreeBuilder.reduce(netlist, columns);
    let mut sum_bits = tree.sum_bits;
    // The accumulation is exact modulo 2^acc_bits: higher bits produced
    // by the final carry are discarded (they cancel against the folded
    // negation constants).
    sum_bits.truncate(acc_bits as usize);
    while sum_bits.len() < acc_bits as usize {
        let zero = netlist.const_zero();
        sum_bits.push(zero);
    }

    NeuronAccumulation {
        sum_bits,
        accumulator_bits: acc_bits,
        stages: tree.stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::Cell;
    use pe_arith::tree_gates;

    fn fresh_inputs(netlist: &mut Netlist, n: usize, bits: u32) -> Vec<Vec<NetId>> {
        (0..n).map(|_| netlist.nets(bits as usize)).collect()
    }

    #[test]
    fn approximate_neuron_matches_estimator_fa_count() {
        // The load-bearing invariant: the elaborated tree has the FA
        // and NOT counts, width and depth of the analytic model
        // (tie-high constant bits included on both sides).
        let specs = [
            NeuronArithSpec {
                input_bits: 4,
                weights: vec![
                    WeightArith {
                        mask: 0b1111,
                        shift: 0,
                        negative: false,
                    },
                    WeightArith {
                        mask: 0b1010,
                        shift: 2,
                        negative: true,
                    },
                    WeightArith {
                        mask: 0b0111,
                        shift: 1,
                        negative: false,
                    },
                    WeightArith {
                        mask: 0,
                        shift: 3,
                        negative: true,
                    },
                ],
                bias: 11,
            },
            NeuronArithSpec {
                input_bits: 8,
                weights: vec![
                    WeightArith {
                        mask: 0xA5,
                        shift: 1,
                        negative: true
                    };
                    6
                ],
                bias: -33,
            },
        ];
        for spec in &specs {
            let mut netlist = Netlist::new();
            let inputs = fresh_inputs(&mut netlist, spec.weights.len(), spec.input_bits);
            let bound = bind_approximate(spec, &inputs);
            let acc = elaborate_accumulation(&mut netlist, &bound);
            let counts = tree_gates(spec, &mut Vec::new()).counts;
            assert_eq!(netlist.cell_counts().get(Cell::Fa), counts.full_adders);
            assert_eq!(netlist.cell_counts().get(Cell::Not), counts.not_gates);
            assert_eq!(acc.accumulator_bits, counts.accumulator_bits);
            assert_eq!(acc.stages, counts.stages);
        }
    }

    #[test]
    fn zero_mask_inputs_cost_nothing() {
        let spec = NeuronArithSpec {
            input_bits: 4,
            weights: vec![
                WeightArith {
                    mask: 0,
                    shift: 0,
                    negative: false
                };
                5
            ],
            bias: 0,
        };
        let mut netlist = Netlist::new();
        let inputs = fresh_inputs(&mut netlist, 5, 4);
        let bound = bind_approximate(&spec, &inputs);
        assert!(bound.is_empty());
    }

    #[test]
    fn exact_neuron_uses_binary_partial_products() {
        // weight 7 = 0b111: three positive partial products; weight -5
        // = -(0b101): two negative ones.
        let spec = ExactNeuronSpec {
            input_bits: 4,
            weights: vec![7, -5],
            bias: 0,
            trunc_bits: 0,
            csd_multipliers: false,
        };
        let mut netlist = Netlist::new();
        let inputs = fresh_inputs(&mut netlist, 2, 4);
        let bound = bind_exact(&spec, &inputs);
        assert_eq!(bound.len(), 5);
        let negative =
            |b: &&BoundSummand| matches!(b.summand, Summand::MaskedInput { negative: true, .. });
        assert_eq!(bound.iter().filter(negative).count(), 2);
    }

    #[test]
    fn exact_neuron_costs_more_than_pow2_neuron() {
        // The whole point of pow2 quantization: a multi-digit constant
        // multiplier costs strictly more adders than a single shift.
        let exact = ExactNeuronSpec {
            input_bits: 4,
            weights: vec![93, -57, 77],
            bias: 5,
            trunc_bits: 0,
            csd_multipliers: false,
        };
        let approx = NeuronArithSpec {
            input_bits: 4,
            weights: vec![
                WeightArith {
                    mask: 0b1111,
                    shift: 6,
                    negative: false,
                },
                WeightArith {
                    mask: 0b1111,
                    shift: 6,
                    negative: true,
                },
                WeightArith {
                    mask: 0b1111,
                    shift: 6,
                    negative: false,
                },
            ],
            bias: 5,
        };
        let mut nl_exact = Netlist::new();
        let in_e = fresh_inputs(&mut nl_exact, 3, 4);
        let b_e = bind_exact(&exact, &in_e);
        let _ = elaborate_accumulation(&mut nl_exact, &b_e);

        let mut nl_approx = Netlist::new();
        let in_a = fresh_inputs(&mut nl_approx, 3, 4);
        let b_a = bind_approximate(&approx, &in_a);
        let _ = elaborate_accumulation(&mut nl_approx, &b_a);

        assert!(
            nl_exact.cell_counts().get(Cell::Fa) > nl_approx.cell_counts().get(Cell::Fa),
            "exact {} vs approx {}",
            nl_exact.cell_counts().get(Cell::Fa),
            nl_approx.cell_counts().get(Cell::Fa)
        );
    }

    #[test]
    fn sum_width_equals_accumulator_width() {
        let spec = NeuronArithSpec {
            input_bits: 4,
            weights: vec![
                WeightArith {
                    mask: 0b1111,
                    shift: 0,
                    negative: false
                };
                3
            ],
            bias: -2,
        };
        let mut netlist = Netlist::new();
        let inputs = fresh_inputs(&mut netlist, 3, 4);
        let bound = bind_approximate(&spec, &inputs);
        let acc = elaborate_accumulation(&mut netlist, &bound);
        assert_eq!(acc.sum_bits.len() as u32, acc.accumulator_bits);
    }
}
