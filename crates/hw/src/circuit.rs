//! Full-MLP elaboration: from [`MlpHardwareSpec`] to a netlist and a
//! costed [`HardwareReport`].
//!
//! This is the reproduction's stand-in for the paper's Synopsys DC +
//! PrimeTime flow (§V-A): it elaborates every neuron's adder tree gate
//! by gate, lumps the QReLU saturation units and the output argmax
//! comparator tree as analytically-costed macros, registers the I/O,
//! and rolls the cell content up through the [`TechLibrary`].
//! [`Elaborator::cost`] reaches the same report without a netlist,
//! pricing each neuron's adder tree with [`pe_arith::tree_gates`].

use pe_arith::tree_gates;
use serde::{Deserialize, Serialize};

use crate::netlist::{MacroBlock, NetId, Netlist};
use crate::neuron::{
    arith_spec, bind_approximate, bind_exact, elaborate_accumulation, NeuronAccumulation,
};
use crate::report::HardwareReport;
use crate::spec::{LayerActivation, MlpHardwareSpec, NeuronSpec};
use crate::tech::{Cell, CellCounts, TechLibrary};

/// Per-neuron elaboration statistics (for DESIGN.md-style breakdowns
/// and the ablation benches).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeuronStats {
    /// Layer index (0 = first hidden layer).
    pub layer: usize,
    /// Neuron index within the layer.
    pub neuron: usize,
    /// Full adders in this neuron's accumulation.
    pub full_adders: u32,
    /// Compressor stages.
    pub stages: u32,
    /// Accumulator width in bits.
    pub accumulator_bits: u32,
}

/// A fully elaborated bespoke MLP.
#[derive(Debug, Clone)]
pub struct ElaboratedMlp {
    /// The gate-level netlist (adder trees structural, QReLU/argmax as
    /// macros).
    pub netlist: Netlist,
    /// Cost report at the nominal supply.
    pub report: HardwareReport,
    /// Per-neuron statistics.
    pub neuron_stats: Vec<NeuronStats>,
}

/// A costed bespoke MLP without its netlist: what
/// [`Elaborator::cost`] produces. Identical `report`/`neuron_stats` to
/// [`Elaborator::elaborate`], minus the structural netlist (use
/// `elaborate` when Verilog or simulation is needed).
#[derive(Debug, Clone)]
pub struct CostedMlp {
    /// Cost report at the nominal supply — equal to the one a full
    /// elaboration produces.
    pub report: HardwareReport,
    /// Per-neuron statistics.
    pub neuron_stats: Vec<NeuronStats>,
}

/// Elaborates [`MlpHardwareSpec`]s against a technology library.
///
/// [`elaborate`](Self::elaborate) builds the full structural netlist;
/// [`cost`](Self::cost) produces the identical [`HardwareReport`]
/// without one, from each neuron's column heights. Both use the
/// paper's FA-only adder trees.
#[derive(Debug, Clone)]
pub struct Elaborator {
    tech: TechLibrary,
}

impl Elaborator {
    /// Elaborator over the given technology library.
    #[must_use]
    pub fn new(tech: TechLibrary) -> Self {
        Self { tech }
    }

    /// The technology library in use.
    #[must_use]
    pub fn tech(&self) -> &TechLibrary {
        &self.tech
    }

    /// Elaborate and cost a bespoke MLP.
    ///
    /// # Panics
    ///
    /// Panics if the spec is structurally inconsistent (layer fan-in not
    /// matching the previous layer's fan-out); specs produced by
    /// `pe-mlp` and `printed-axc` are always consistent.
    #[must_use]
    pub fn elaborate(&self, spec: &MlpHardwareSpec) -> ElaboratedMlp {
        let mut netlist = Netlist::new();
        let mut neuron_stats = Vec::new();

        // Primary inputs. The bespoke classifier datapath is purely
        // combinational (as in the paper's bespoke designs: the sensor
        // interface provides registered inputs externally, and the
        // relaxed 200 ms clock bounds the combinational depth).
        let mut activations: Vec<Vec<NetId>> = Vec::with_capacity(spec.inputs);
        for i in 0..spec.inputs {
            let mut bits = Vec::with_capacity(spec.input_bits as usize);
            for b in 0..spec.input_bits {
                let pin = netlist.net();
                netlist.add_input(format!("x{i}_{b}"), pin);
                bits.push(pin);
            }
            activations.push(bits);
        }

        let mut critical_fa_depth = 0u32;

        for (li, layer) in spec.layers.iter().enumerate() {
            let mut layer_accs: Vec<NeuronAccumulation> = Vec::with_capacity(layer.neurons.len());
            for (ni, neuron) in layer.neurons.iter().enumerate() {
                assert_eq!(
                    neuron.fan_in(),
                    activations.len(),
                    "layer {li} neuron {ni}: fan-in mismatch"
                );
                let bound = match neuron {
                    NeuronSpec::Exact(e) => bind_exact(e, &activations),
                    NeuronSpec::Approximate(a) => bind_approximate(a, &activations),
                };
                let first = netlist.instances().len();
                let acc = elaborate_accumulation(&mut netlist, &bound);
                let full_adders = netlist.instances()[first..]
                    .iter()
                    .filter(|inst| inst.cell == Cell::Fa)
                    .count() as u32;
                neuron_stats.push(NeuronStats {
                    layer: li,
                    neuron: ni,
                    full_adders,
                    stages: acc.stages,
                    accumulator_bits: acc.accumulator_bits,
                });
                layer_accs.push(acc);
            }

            // Layer timing: slowest neuron tree + ripple CPA + activation.
            let layer_depth = layer_accs
                .iter()
                .map(|a| a.stages + a.accumulator_bits + 1)
                .max()
                .unwrap_or(0);
            critical_fa_depth += layer_depth;

            match layer.activation {
                LayerActivation::QRelu { out_bits, shift } => {
                    let mut next: Vec<Vec<NetId>> = Vec::with_capacity(layer_accs.len());
                    for (ni, acc) in layer_accs.iter().enumerate() {
                        let outs = qrelu_macro(&mut netlist, acc, out_bits, shift, li, ni);
                        next.push(outs);
                    }
                    activations = next;
                }
                LayerActivation::Argmax => {
                    let outs = argmax_macro(&mut netlist, &layer_accs);
                    for (b, net) in outs.iter().enumerate() {
                        netlist.add_output(format!("class_{b}"), *net);
                    }
                    activations = Vec::new();
                }
            }
        }

        let counts = netlist.cell_counts();
        let report =
            HardwareReport::at_nominal(spec.name.clone(), &self.tech, counts, critical_fa_depth);
        ElaboratedMlp {
            netlist,
            report,
            neuron_stats,
        }
    }

    /// Cost a bespoke MLP without building its netlist.
    ///
    /// The report is byte-identical to [`elaborate`](Self::elaborate)'s
    /// (same cell counts, same critical depth): the walk mirrors the
    /// elaboration step for step — each neuron's adder tree priced by
    /// [`pe_arith::tree_gates`] (an exact neuron lowered to one weight
    /// per partial product), the QReLU/argmax macros through the
    /// formulas the netlist instantiates, one tie cell of each polarity
    /// shared across the whole circuit.
    ///
    /// # Panics
    ///
    /// Panics as [`elaborate`](Self::elaborate) does on structurally
    /// inconsistent specs.
    #[must_use]
    pub fn cost(&self, spec: &MlpHardwareSpec) -> CostedMlp {
        let mut counts = CellCounts::new();
        let mut neuron_stats = Vec::new();
        let mut critical_fa_depth = 0u32;
        let mut uses_tie_hi = false;
        let mut uses_tie_lo = false;
        let mut fan_in = spec.inputs;
        let mut heights = Vec::new();

        for (li, layer) in spec.layers.iter().enumerate() {
            let mut layer_depth = 0u32;
            let mut max_width = 1u32;
            for (ni, neuron) in layer.neurons.iter().enumerate() {
                assert_eq!(
                    neuron.fan_in(),
                    fan_in,
                    "layer {li} neuron {ni}: fan-in mismatch"
                );
                let tree = tree_gates(&arith_spec(neuron), &mut heights);
                let g = tree.counts;
                counts.merge(&CellCounts::from(&g));
                uses_tie_hi |= tree.ties_high;
                uses_tie_lo |= tree.ties_low;
                layer_depth = layer_depth.max(g.stages + g.accumulator_bits + 1);
                max_width = max_width.max(g.accumulator_bits);
                neuron_stats.push(NeuronStats {
                    layer: li,
                    neuron: ni,
                    full_adders: g.full_adders,
                    stages: g.stages,
                    accumulator_bits: g.accumulator_bits,
                });
                if let LayerActivation::QRelu { out_bits, shift } = layer.activation {
                    counts.merge(&qrelu_gate_counts(g.accumulator_bits, out_bits, shift));
                }
            }
            critical_fa_depth += layer_depth;
            match layer.activation {
                LayerActivation::QRelu { .. } => fan_in = layer.neurons.len(),
                LayerActivation::Argmax => {
                    counts.merge(&argmax_gate_counts(layer.neurons.len(), max_width));
                    fan_in = 0;
                }
            }
        }

        // The full netlist shares one tie cell of each polarity.
        if uses_tie_hi {
            counts.add(Cell::TieHi, 1);
        }
        if uses_tie_lo {
            counts.add(Cell::TieLo, 1);
        }
        let report =
            HardwareReport::at_nominal(spec.name.clone(), &self.tech, counts, critical_fa_depth);
        CostedMlp {
            report,
            neuron_stats,
        }
    }
}

/// Gate content of a QReLU saturation unit over a `acc_bits`-wide
/// signed accumulator: the arithmetic shift is wiring; one inverter
/// derives the "non-negative" control from the sign bit; `out_bits` AND
/// gates zero the output for negative accumulators; an OR tree over the
/// magnitude bits above the output window detects overflow and
/// `out_bits` OR gates saturate the output to all-ones.
#[must_use]
pub fn qrelu_gate_counts(acc_bits: u32, out_bits: u32, shift: u32) -> CellCounts {
    let mut gates = CellCounts::new();
    // Output bits above the shifted accumulator's magnitude range are
    // constant zero: no gates for them (synthesis strips them).
    let live_bits = out_bits.min(acc_bits.saturating_sub(1).saturating_sub(shift));
    if live_bits == 0 {
        return gates;
    }
    gates.add(Cell::Not, 1);
    gates.add(Cell::And2, live_bits);
    let hi_bits = (acc_bits.saturating_sub(1)).saturating_sub(shift + out_bits);
    if hi_bits > 0 {
        gates.add(Cell::Or2, hi_bits.saturating_sub(1).max(1) + live_bits);
    }
    gates
}

/// Gate content of an argmax comparator tree over `classes` signed
/// accumulators of `acc_bits` each (linear running-maximum scan:
/// `classes − 1` comparators plus value/index muxes).
#[must_use]
pub fn argmax_gate_counts(classes: usize, acc_bits: u32) -> CellCounts {
    let idx_bits = usize::BITS - (classes.max(2) - 1).leading_zeros();
    let mut gates = CellCounts::new();
    let comparisons = classes.saturating_sub(1) as u32;
    gates.add(Cell::Xor2, comparisons * acc_bits);
    gates.add(Cell::And2, comparisons * acc_bits);
    gates.add(Cell::Or2, comparisons * acc_bits);
    gates.add(Cell::Not, comparisons * 2);
    gates.add(Cell::Mux2, comparisons * (acc_bits + idx_bits));
    gates
}

/// Emit a QReLU macro for one neuron; returns the activation output nets.
fn qrelu_macro(
    netlist: &mut Netlist,
    acc: &NeuronAccumulation,
    out_bits: u32,
    shift: u32,
    layer: usize,
    neuron: usize,
) -> Vec<NetId> {
    let w = acc.accumulator_bits;
    let outs = netlist.nets(out_bits as usize);
    let gates = qrelu_gate_counts(w, out_bits, shift);
    netlist.add_macro(MacroBlock {
        name: format!("qrelu_l{layer}_n{neuron}"),
        gates,
        inputs: acc.sum_bits.clone(),
        outputs: outs.clone(),
        behavior: format!(
            "clamp(acc >>> {shift}, 0, {}) // signed {w}-bit accumulator",
            (1u64 << out_bits) - 1
        ),
    });
    outs
}

/// Emit the output-layer argmax comparator tree; returns the class-index
/// nets (LSB first).
///
/// Structure: a linear scan of the class accumulators keeping the
/// running maximum — `C − 1` signed comparators of the padded
/// accumulator width, each followed by muxes selecting the winning value
/// and index.
fn argmax_macro(netlist: &mut Netlist, accs: &[NeuronAccumulation]) -> Vec<NetId> {
    let classes = accs.len();
    let w = accs.iter().map(|a| a.accumulator_bits).max().unwrap_or(1);
    let idx_bits = usize::BITS - (classes.max(2) - 1).leading_zeros();
    let outs = netlist.nets(idx_bits as usize);
    let gates = argmax_gate_counts(classes, w);
    let inputs: Vec<NetId> = accs
        .iter()
        .flat_map(|a| a.sum_bits.iter().copied())
        .collect();
    netlist.add_macro(MacroBlock {
        name: "argmax".to_owned(),
        gates,
        inputs,
        outputs: outs.clone(),
        behavior: format!("argmax over {classes} signed {w}-bit accumulators"),
    });
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExactNeuronSpec, LayerSpec};
    use pe_arith::{NeuronArithSpec, WeightArith};

    fn tiny_exact_spec() -> MlpHardwareSpec {
        MlpHardwareSpec {
            name: "tiny-exact".into(),
            inputs: 3,
            input_bits: 4,
            layers: vec![
                LayerSpec {
                    neurons: vec![
                        NeuronSpec::Exact(ExactNeuronSpec {
                            input_bits: 4,
                            weights: vec![37, -81, 11],
                            bias: 4,
                            trunc_bits: 0,
                            csd_multipliers: false,
                        });
                        2
                    ],
                    activation: LayerActivation::QRelu {
                        out_bits: 8,
                        shift: 2,
                    },
                },
                LayerSpec {
                    neurons: vec![
                        NeuronSpec::Exact(ExactNeuronSpec {
                            input_bits: 8,
                            weights: vec![55, -23],
                            bias: -9,
                            trunc_bits: 0,
                            csd_multipliers: false,
                        });
                        2
                    ],
                    activation: LayerActivation::Argmax,
                },
            ],
        }
    }

    fn tiny_approx_spec() -> MlpHardwareSpec {
        MlpHardwareSpec {
            name: "tiny-approx".into(),
            inputs: 3,
            input_bits: 4,
            layers: vec![
                LayerSpec {
                    neurons: vec![
                        NeuronSpec::Approximate(NeuronArithSpec {
                            input_bits: 4,
                            weights: vec![
                                WeightArith {
                                    mask: 0b1100,
                                    shift: 2,
                                    negative: false
                                },
                                WeightArith {
                                    mask: 0b1000,
                                    shift: 0,
                                    negative: true
                                },
                                WeightArith {
                                    mask: 0,
                                    shift: 0,
                                    negative: false
                                },
                            ],
                            bias: 4,
                        });
                        2
                    ],
                    activation: LayerActivation::QRelu {
                        out_bits: 8,
                        shift: 2,
                    },
                },
                LayerSpec {
                    neurons: vec![
                        NeuronSpec::Approximate(NeuronArithSpec {
                            input_bits: 8,
                            weights: vec![
                                WeightArith {
                                    mask: 0b1111_0000,
                                    shift: 1,
                                    negative: false
                                },
                                WeightArith {
                                    mask: 0b0000_1111,
                                    shift: 0,
                                    negative: true
                                },
                            ],
                            bias: -9,
                        });
                        2
                    ],
                    activation: LayerActivation::Argmax,
                },
            ],
        }
    }

    #[test]
    fn elaboration_produces_costed_report() {
        let elab = Elaborator::new(TechLibrary::egfet());
        let out = elab.elaborate(&tiny_exact_spec());
        assert!(out.report.area_cm2 > 0.0);
        assert!(out.report.power_mw > 0.0);
        assert!(out.report.delay_ms > 0.0);
        assert_eq!(out.neuron_stats.len(), 4);
        assert!(out.netlist.cell_counts().get(Cell::Fa) > 0);
    }

    #[test]
    fn approximate_mlp_is_much_cheaper_than_exact() {
        let elab = Elaborator::new(TechLibrary::egfet());
        let exact = elab.elaborate(&tiny_exact_spec());
        let approx = elab.elaborate(&tiny_approx_spec());
        assert!(
            approx.report.area_cm2 < exact.report.area_cm2 / 2.0,
            "approx {} vs exact {}",
            approx.report.area_cm2,
            exact.report.area_cm2
        );
        assert!(approx.report.power_mw < exact.report.power_mw / 2.0);
    }

    #[test]
    fn memoized_cost_equals_full_elaboration() {
        // The load-bearing invariant of the netlist-free costing path:
        // for both neuron flavours, the column-height roll-up
        // reproduces the exact `Netlist::cell_counts` report, including
        // the shared tie cells and the critical depth.
        for spec in [tiny_exact_spec(), tiny_approx_spec()] {
            let elab = Elaborator::new(TechLibrary::egfet());
            let full = elab.elaborate(&spec);
            let fast = elab.cost(&spec);
            assert_eq!(fast.report, full.report, "{}", spec.name);
            assert_eq!(fast.report.cells, full.netlist.cell_counts());
            assert_eq!(fast.neuron_stats, full.neuron_stats);
        }
    }

    #[test]
    fn datapath_is_combinational() {
        let elab = Elaborator::new(TechLibrary::egfet());
        let out = elab.elaborate(&tiny_exact_spec());
        // Bespoke classifiers carry no registers; 3 inputs x 4 bits in,
        // 1 class bit out.
        assert_eq!(out.netlist.cell_counts().get(Cell::Dff), 0);
        assert_eq!(out.netlist.input_ports().len(), 12);
        assert_eq!(out.netlist.output_ports().len(), 1);
    }

    #[test]
    fn per_neuron_fas_sum_close_to_total() {
        let elab = Elaborator::new(TechLibrary::egfet());
        let out = elab.elaborate(&tiny_approx_spec());
        let per_neuron: u32 = out.neuron_stats.iter().map(|s| s.full_adders).sum();
        let total = out.netlist.cell_counts().get(Cell::Fa);
        assert_eq!(per_neuron, total);
    }

    #[test]
    fn deeper_mlp_has_longer_critical_path() {
        let elab = Elaborator::new(TechLibrary::egfet());
        let shallow = elab.elaborate(&tiny_approx_spec());
        let deep = elab.elaborate(&tiny_exact_spec());
        assert!(deep.report.critical_fa_depth > shallow.report.critical_fa_depth);
    }
}
