//! Functional verification of the hardware model: simulating the
//! elaborated gate netlist of an approximate neuron must produce, bit
//! for bit, the accumulator value the integer inference model computes
//! (modulo 2^W, by the sign-folding construction of §III-A).

use std::collections::HashMap;

use proptest::prelude::*;

use printed_mlps::arith::NeuronArithSpec;
use printed_mlps::hw::neuron::{bind_approximate, elaborate_accumulation};
use printed_mlps::hw::Netlist;
use printed_mlps::mlp::{AxNeuron, AxWeight};

fn weight_strategy() -> impl Strategy<Value = AxWeight> {
    (0u16..16, 0u8..7, any::<bool>()).prop_map(|(mask, shift, negative)| AxWeight {
        mask,
        shift,
        negative,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn gate_level_accumulator_matches_integer_model(
        weights in proptest::collection::vec(weight_strategy(), 1..6),
        bias in -500i32..500,
        xs in proptest::collection::vec(0u8..16, 6),
    ) {
        let neuron = AxNeuron { weights: weights.clone(), bias };
        let spec: NeuronArithSpec = neuron.to_arith_spec(4);

        // Reference value from the integer inference model.
        let fan_in = weights.len();
        let expected = neuron.accumulate(&xs[..fan_in]);

        // Gate-level elaboration and simulation.
        let mut netlist = Netlist::new();
        let input_nets: Vec<Vec<_>> = (0..fan_in).map(|_| netlist.nets(4)).collect();
        let bound = bind_approximate(&spec, &input_nets);
        let acc = elaborate_accumulation(&mut netlist, &bound);

        let mut inputs = HashMap::new();
        for (nets, &x) in input_nets.iter().zip(&xs) {
            for (b, net) in nets.iter().enumerate() {
                inputs.insert(*net, x >> b & 1 == 1);
            }
        }
        let values = netlist.simulate(&inputs);

        let mut simulated: i64 = 0;
        for (b, net) in acc.sum_bits.iter().enumerate() {
            if values[net.0 as usize] {
                simulated |= 1i64 << b;
            }
        }
        // Interpret the W-bit two's-complement result.
        let w = acc.accumulator_bits;
        if simulated >> (w - 1) & 1 == 1 {
            simulated -= 1i64 << w;
        }

        prop_assert_eq!(
            simulated, expected,
            "gate-level {} vs integer {} (W={}, weights {:?}, bias {}, xs {:?})",
            simulated, expected, w, weights, bias, &xs[..fan_in]
        );
    }

    /// The tree must also be value-exact for plain unsigned columns.
    #[test]
    fn adder_tree_sums_random_bit_columns(
        heights in proptest::collection::vec(0u32..6, 1..6),
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::VecDeque;
        use printed_mlps::hw::adder_tree::TreeBuilder;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut netlist = Netlist::new();
        let mut columns: Vec<VecDeque<_>> = Vec::new();
        let mut inputs = HashMap::new();
        let mut expected: u64 = 0;
        for (c, &h) in heights.iter().enumerate() {
            let mut col = VecDeque::new();
            for _ in 0..h {
                let net = netlist.net();
                let v: bool = rng.gen();
                inputs.insert(net, v);
                if v {
                    expected += 1u64 << c;
                }
                col.push_back(net);
            }
            columns.push(col);
        }
        let tree = TreeBuilder.reduce(&mut netlist, columns);
        let values = netlist.simulate(&inputs);
        let mut got: u64 = 0;
        for (b, net) in tree.sum_bits.iter().enumerate() {
            if values[net.0 as usize] {
                got |= 1u64 << b;
            }
        }
        prop_assert_eq!(got, expected, "heights {:?}", heights);
    }
}
