//! The load-bearing invariant of the whole reproduction: the one
//! analytic adder-tree model (`pe_arith::tree_gates`), which the GA
//! trains against and every report is costed by, predicts *exactly* the
//! FA and NOT counts, depth, accumulator width and tie cells of the
//! netlist the structural elaborator wires, for arbitrary approximate
//! neurons.

use proptest::prelude::*;

use printed_mlps::arith::{tree_gates, NeuronArithSpec, WeightArith};
use printed_mlps::hw::neuron::{bind_approximate, elaborate_accumulation, NeuronAccumulation};
use printed_mlps::hw::{Cell, CellCounts, Netlist};

fn weight_strategy(input_bits: u32) -> impl Strategy<Value = WeightArith> {
    let mask_max = (1u64 << input_bits) - 1;
    (0..=mask_max, 0u32..7, any::<bool>()).prop_map(|(mask, shift, negative)| WeightArith {
        mask,
        shift,
        negative,
    })
}

fn neuron_strategy() -> impl Strategy<Value = NeuronArithSpec> {
    prop_oneof![Just(4u32), Just(8u32)].prop_flat_map(|input_bits| {
        (
            proptest::collection::vec(weight_strategy(input_bits), 1..12),
            -2000i64..2000,
        )
            .prop_map(move |(weights, bias)| NeuronArithSpec {
                input_bits,
                weights,
                bias,
            })
    })
}

/// The cells of `spec`'s elaborated accumulation, and the accumulation.
fn elaborated(spec: &NeuronArithSpec) -> (CellCounts, NeuronAccumulation) {
    let mut netlist = Netlist::new();
    let inputs: Vec<Vec<_>> = (0..spec.weights.len())
        .map(|_| netlist.nets(spec.input_bits as usize))
        .collect();
    let bound = bind_approximate(spec, &inputs);
    let acc = elaborate_accumulation(&mut netlist, &bound);
    (netlist.cell_counts(), acc)
}

/// A sum that no bit or carry carries into the accumulator's top
/// columns is padded there with constant zeros: `x0` alone fills
/// columns 0–3 of a 5-bit accumulator, without a single FA.
#[test]
fn a_short_sum_is_padded_low() {
    let spec = NeuronArithSpec {
        input_bits: 4,
        weights: vec![WeightArith {
            mask: 0b1111,
            shift: 0,
            negative: false,
        }],
        bias: 0,
    };
    let tree = tree_gates(&spec, &mut Vec::new());
    let (cells, acc) = elaborated(&spec);
    assert_eq!((tree.counts.full_adders, acc.accumulator_bits), (0, 5));
    assert!(tree.ties_low && !tree.ties_high);
    assert_eq!((cells.get(Cell::TieLo), cells.get(Cell::TieHi)), (1, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn estimator_matches_elaboration(spec in neuron_strategy()) {
        let tree = tree_gates(&spec, &mut Vec::new());
        let (cells, acc) = elaborated(&spec);

        prop_assert_eq!(cells.get(Cell::Fa), tree.counts.full_adders);
        prop_assert_eq!(cells.get(Cell::Not), tree.counts.not_gates);
        prop_assert_eq!(acc.accumulator_bits, tree.counts.accumulator_bits);
        prop_assert_eq!(acc.stages, tree.counts.stages);
        prop_assert_eq!(cells.get(Cell::TieHi) == 1, tree.ties_high);
        prop_assert_eq!(cells.get(Cell::TieLo) == 1, tree.ties_low);
    }

    /// Pruning a mask bit never increases the estimated area.
    #[test]
    fn mask_pruning_is_monotone(spec in neuron_strategy(), wi in 0usize..12, bit in 0u32..8) {
        let mut heights = Vec::new();
        let before = tree_gates(&spec, &mut heights).counts.full_adders;
        let mut pruned = spec.clone();
        if let Some(w) = pruned.weights.get_mut(wi % spec.weights.len().max(1)) {
            w.mask &= !(1u64 << (bit % pruned.input_bits));
        }
        let after = tree_gates(&pruned, &mut heights).counts.full_adders;
        prop_assert!(after <= before, "pruning increased FAs: {} -> {}", before, after);
    }
}
