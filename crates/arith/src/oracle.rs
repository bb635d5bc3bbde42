//! The adder-tree model as plain per-column loops: the reference the
//! lane-based column build and reduction are tested against. Each
//! mask bit adds one to its column, each negation's correction folds
//! into the constant one summand at a time, and each stage walks the
//! columns one by one.

use proptest::prelude::*;

use crate::column::{neuron_columns, NeuronColumns};
use crate::estimator::{tree_gates, NeuronArithSpec, NeuronGateCounts, TreeGates, WeightArith};
use crate::fixed::{to_twos_complement, unsigned_width};
use crate::reduce::{reduce, ReductionStats};
use crate::summand::Summand;

/// The column heights of `spec`'s accumulation and what the tree needs
/// besides, one mask bit and one negation at a time.
fn oracle_columns(spec: &NeuronArithSpec, heights: &mut Vec<u32>) -> NeuronColumns {
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
    let accumulator_bits = unsigned_width(pos.max(neg).max(1)) + 1;

    heights.clear();
    heights.resize(accumulator_bits as usize, 0);
    let modulus_mask = (1u64 << accumulator_bits) - 1;
    let mut constant: u64 = 0;
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
            assert!(pos < accumulator_bits, "{well_formed}");
            heights[pos as usize] += 1;
            mask &= mask - 1;
        }
        if let Some(k) = summand
            .negation_constant(accumulator_bits)
            .expect(well_formed)
        {
            constant = constant.wrapping_add(k) & modulus_mask;
        }
    }
    let bias = to_twos_complement(spec.bias, accumulator_bits).expect(well_formed);
    constant = constant.wrapping_add(bias) & modulus_mask;
    for (b, h) in heights.iter_mut().enumerate() {
        *h += (constant >> b & 1) as u32;
    }
    while heights.last() == Some(&0) {
        heights.pop();
    }
    NeuronColumns {
        accumulator_bits,
        not_gates,
        constant,
    }
}

/// The 3:2 stages column by column, then the carry-propagate adder
/// column by column with a carry rail.
fn oracle_reduce(heights: &mut Vec<u32>) -> ReductionStats {
    let mut stats = ReductionStats::default();
    let mut tallest = heights.iter().copied().max().unwrap_or(0);
    while tallest > 2 {
        stats.stages += 1;
        let mut carry_in = 0u32;
        tallest = 0;
        for h in &mut *heights {
            let fas = *h / 3;
            stats.tree_full_adders += fas;
            *h = fas + *h % 3 + carry_in;
            tallest = tallest.max(*h);
            carry_in = fas;
        }
        if carry_in > 0 {
            heights.push(carry_in);
            tallest = tallest.max(carry_in);
        }
        while heights.last() == Some(&0) {
            heights.pop();
        }
    }
    let mut carry = false;
    for &h in heights.iter() {
        match (h, carry) {
            (0, false) => stats.ties_low = true,
            (0, true) => carry = false,
            (1, false) => {}
            (1, true) | (2, false) => {
                stats.cpa_full_adders += 1;
                stats.ties_low = true;
                carry = true;
            }
            (2, true) => {
                stats.cpa_full_adders += 1;
                carry = true;
            }
            _ => unreachable!("columns are at most 2 high after reduction"),
        }
    }
    stats.sum_bits = heights.len() as u32 + u32::from(carry);
    stats
}

/// [`tree_gates`] from the plain loops.
fn oracle_tree_gates(spec: &NeuronArithSpec) -> TreeGates {
    let mut heights = Vec::new();
    let columns = oracle_columns(spec, &mut heights);
    let stats = oracle_reduce(&mut heights);
    TreeGates {
        counts: NeuronGateCounts {
            full_adders: stats.full_adders(),
            half_adders: 0,
            not_gates: columns.not_gates,
            stages: stats.stages,
            accumulator_bits: columns.accumulator_bits,
        },
        ties_high: columns.constant != 0,
        ties_low: stats.ties_low || stats.sum_bits < columns.accumulator_bits,
    }
}

/// Check the lane build and [`tree_gates`] against the plain loops.
fn assert_matches_oracle(spec: &NeuronArithSpec) {
    let (mut want, mut got) = (Vec::new(), Vec::new());
    assert_eq!(
        neuron_columns(spec, &mut got),
        oracle_columns(spec, &mut want),
        "{spec:?}"
    );
    assert_eq!(got, want, "{spec:?}");
    assert_eq!(
        tree_gates(spec, &mut Vec::new()),
        oracle_tree_gates(spec),
        "{spec:?}"
    );
}

/// Neuron specs: input bits 1–12, shifts 0–24, every mask byte live,
/// zero masks one weight in four (every weight in some specs), both
/// signs, and biases of both signs up to a 63-bit accumulator.
fn spec() -> impl Strategy<Value = NeuronArithSpec> {
    (1u32..=12, any::<bool>()).prop_flat_map(|(input_bits, all_masked)| {
        let full = (1u64 << input_bits) - 1;
        let mask = prop_oneof![0..=full, 0..=full, 0..=full, Just(0u64)];
        let weight =
            (mask, 0u32..=24, any::<bool>()).prop_map(move |(mask, shift, negative)| WeightArith {
                mask: if all_masked { 0 } else { mask },
                shift,
                negative,
            });
        let bias = prop_oneof![
            -4096i64..=4096,
            -(1i64 << 40)..=(1i64 << 40),
            -(1i64 << 61)..=(1i64 << 61),
            Just(0i64),
        ];
        (proptest::collection::vec(weight, 0..=24), bias).prop_map(move |(weights, bias)| {
            NeuronArithSpec {
                input_bits,
                weights,
                bias,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every spec's heights, constant, NOT gates, accumulator width and
    /// whole tree equal the plain loops'.
    #[test]
    fn tree_gates_match_the_plain_loops(spec in spec()) {
        assert_matches_oracle(&spec);
    }

    /// Random profiles of up to 64 columns and heights up to 255 reduce
    /// to the plain loops' stats and two-row profile.
    #[test]
    fn reduce_matches_the_plain_loops(
        profile in proptest::collection::vec(prop_oneof![0u32..=3, 0u32..=255], 0..=64),
    ) {
        let (mut want, mut got) = (profile.clone(), profile.clone());
        let expected = oracle_reduce(&mut want);
        prop_assert_eq!(reduce(&mut got), expected, "{:?}", profile);
        prop_assert_eq!(got, want, "{:?}", profile);
    }
}

/// Single columns on both sides of the lanes' exact range (`⌊h/3⌋` is
/// `(h · 171) ≫ 9` up to 383) and far past it, alone and under two-high
/// neighbours, and profiles with trailing empty columns.
#[test]
fn tall_and_padded_profiles_match_the_plain_loops() {
    let mut profiles: Vec<Vec<u32>> = (0..=1200).map(|h| vec![h]).collect();
    profiles.extend((380..=390).map(|h| vec![2, h, 2, 0, 1]));
    profiles.extend([
        vec![0],
        vec![1, 0],
        vec![2, 0, 0],
        vec![2, 2, 0],
        vec![70_000, 3, 1],
        vec![255; 64],
        vec![2; 64],
        vec![2; 130],
        vec![1; 200],
        vec![7; 150],
    ]);
    for profile in profiles {
        let (mut want, mut got) = (profile.clone(), profile.clone());
        let expected = oracle_reduce(&mut want);
        assert_eq!(reduce(&mut got), expected, "{profile:?}");
        assert_eq!(got, want, "{profile:?}");
    }
}

/// Neurons with more live weights than one byte-lane batch holds (254),
/// up to columns taller than the lanes hold (383).
#[test]
fn wide_neurons_match_the_plain_loops() {
    for count in [253, 254, 255, 300, 382, 383, 384, 600] {
        for negative in [false, true] {
            let weights = (0..count)
                .map(|i| WeightArith {
                    mask: if i % 5 == 0 { 0 } else { 0b1011 },
                    shift: (i % 3) as u32,
                    negative: negative && i % 2 == 0,
                })
                .collect();
            assert_matches_oracle(&NeuronArithSpec {
                input_bits: 4,
                weights,
                bias: -77,
            });
        }
    }
}

/// Malformed specs still panic as [`Summand::validate`] rules.
#[test]
fn malformed_specs_are_rejected() {
    let weight = |mask, shift| WeightArith {
        mask,
        shift,
        negative: false,
    };
    let specs = [
        (4, weight(0b1_0000, 0)),
        (4, weight(0b1, 25)),
        (0, weight(0b1, 0)),
        (33, weight(0b1, 0)),
    ];
    for (input_bits, w) in specs {
        let spec = NeuronArithSpec {
            input_bits,
            weights: vec![weight(0, 60), w],
            bias: 1,
        };
        let caught = std::panic::catch_unwind(|| tree_gates(&spec, &mut Vec::new()));
        assert!(caught.is_err(), "{spec:?}");
    }
    // A zero mask wires the weight out, whatever its shift or width.
    let dead = NeuronArithSpec {
        input_bits: 0,
        weights: vec![weight(0, 60)],
        bias: 3,
    };
    assert_eq!(tree_gates(&dead, &mut Vec::new()), oracle_tree_gates(&dead));
}
