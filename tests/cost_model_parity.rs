//! The contract of the cost layer: the [`ExactCostModel`], which
//! prices each neuron's adder tree with `pe_arith::tree_gates` (the
//! one analytic adder-tree model, also the GA's), produces the
//! hardware report of full netlist elaboration — cell counts, tie cells
//! included, area, power, delay, per-neuron statistics — for arbitrary
//! bespoke-MLP specs, mixing both neuron flavours, and at scaled
//! supplies.

use proptest::prelude::*;

use printed_mlps::arith::{NeuronArithSpec, WeightArith};
use printed_mlps::hw::cost::{CostScenario, ExactCostModel};
use printed_mlps::hw::spec::{
    ExactNeuronSpec, LayerActivation, LayerSpec, MlpHardwareSpec, NeuronSpec,
};
use printed_mlps::hw::{Elaborator, TechLibrary};

fn approx_neuron(input_bits: u32, fan_in: usize) -> impl Strategy<Value = NeuronSpec> {
    let mask_max = (1u64 << input_bits) - 1;
    (
        proptest::collection::vec(
            (0..=mask_max, 0u32..7, any::<bool>()).prop_map(|(mask, shift, negative)| {
                WeightArith {
                    mask,
                    shift,
                    negative,
                }
            }),
            fan_in..=fan_in,
        ),
        -2000i64..2000,
    )
        .prop_map(move |(weights, bias)| {
            NeuronSpec::Approximate(NeuronArithSpec {
                input_bits,
                weights,
                bias,
            })
        })
}

fn exact_neuron(input_bits: u32, fan_in: usize) -> impl Strategy<Value = NeuronSpec> {
    (
        proptest::collection::vec(-200i64..200, fan_in..=fan_in),
        -500i64..500,
        0u32..3,
        any::<bool>(),
    )
        .prop_map(move |(weights, bias, trunc_bits, csd_multipliers)| {
            NeuronSpec::Exact(ExactNeuronSpec {
                input_bits,
                weights,
                bias,
                trunc_bits,
                csd_multipliers,
            })
        })
}

fn neuron(input_bits: u32, fan_in: usize) -> impl Strategy<Value = NeuronSpec> {
    prop_oneof![
        approx_neuron(input_bits, fan_in),
        exact_neuron(input_bits, fan_in)
    ]
}

/// A random one- or two-layer bespoke MLP mixing neuron flavours.
fn network_strategy() -> impl Strategy<Value = MlpHardwareSpec> {
    (1usize..4, 1usize..4, any::<bool>()).prop_flat_map(|(inputs, hidden, two_layers)| {
        let input_bits = 4u32;
        if two_layers {
            (
                proptest::collection::vec(neuron(input_bits, inputs), hidden..=hidden),
                proptest::collection::vec(neuron(8, hidden), 2..4),
            )
                .prop_map(move |(h, out)| MlpHardwareSpec {
                    name: "parity".into(),
                    inputs,
                    input_bits,
                    layers: vec![
                        LayerSpec {
                            neurons: h,
                            activation: LayerActivation::QRelu {
                                out_bits: 8,
                                shift: 2,
                            },
                        },
                        LayerSpec {
                            neurons: out,
                            activation: LayerActivation::Argmax,
                        },
                    ],
                })
                .boxed()
        } else {
            proptest::collection::vec(neuron(input_bits, inputs), 2..4)
                .prop_map(move |out| MlpHardwareSpec {
                    name: "parity".into(),
                    inputs,
                    input_bits,
                    layers: vec![LayerSpec {
                        neurons: out,
                        activation: LayerActivation::Argmax,
                    }],
                })
                .boxed()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The model is the full elaboration: report equality (cells
    /// included) plus per-neuron statistics.
    #[test]
    fn exact_model_equals_full_elaboration(spec in network_strategy()) {
        let model = ExactCostModel::new(CostScenario::default());
        let full = Elaborator::new(TechLibrary::egfet()).elaborate(&spec);
        let costed = model.costed(&spec);
        prop_assert_eq!(&model.report(&spec), &full.report);
        prop_assert_eq!(&costed.report.cells, &full.netlist.cell_counts());
        prop_assert_eq!(&costed.neuron_stats, &full.neuron_stats);
    }

    /// Parity survives scenario scaling: at a sub-nominal supply and on
    /// the second technology the model's report is the full
    /// elaboration's moved to that supply, and the physics is sane.
    #[test]
    fn parity_holds_under_scaled_scenarios(spec in network_strategy()) {
        for tech in TechLibrary::builtin() {
            let scenario = CostScenario::nominal(tech).at_supply(0.6);
            let scaled = ExactCostModel::new(scenario.clone()).report(&spec);
            let full = Elaborator::new(scenario.tech.clone()).elaborate(&spec).report;
            prop_assert_eq!(&scaled, &full.at_vdd(&scenario.vdd, 0.6), "{}", scenario.label());
            prop_assert_eq!(scaled.vdd, 0.6);
            let nominal = ExactCostModel::new(CostScenario::nominal(scenario.tech.clone()));
            let n = nominal.report(&spec);
            prop_assert_eq!(n.area_cm2, scaled.area_cm2);
            prop_assert!(scaled.power_mw <= n.power_mw);
            prop_assert!(scaled.delay_ms >= n.delay_ms);
        }
    }
}
