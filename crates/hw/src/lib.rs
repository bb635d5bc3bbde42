//! Printed EGFET hardware model for bespoke MLP classifiers.
//!
//! This crate is the reproduction's stand-in for the paper's EDA flow
//! (Synopsys DC synthesis against a printed EGFET library, VCS/PrimeTime
//! power analysis — §V-A). It provides:
//!
//! * [`tech`] — the calibrated EGFET cell library ([`TechLibrary`]) with
//!   per-cell area/power and millisecond-scale gate delays.
//! * [`spec`] — technology-independent descriptions of bespoke MLPs
//!   ([`MlpHardwareSpec`]), with exact (CSD constant-multiplier) and
//!   approximate (pow2 + mask) neurons.
//! * [`neuron`] / [`adder_tree`] — gate-exact elaboration of every
//!   accumulation into FA-only adder trees: the structural oracle of
//!   [`pe_arith::tree_gates`], the one analytic adder-tree model,
//!   whose FA and NOT counts, depth and tie cells it is tested to
//!   instantiate.
//! * [`circuit`] — whole-MLP elaboration to a [`HardwareReport`]
//!   (area cm², power mW, delay ms), with or without building the
//!   netlist.
//! * [`cost`] — the [`ExactCostModel`]: it maps a spec to a [`HwCost`]
//!   under a named [`CostScenario`] (technology + Vdd + power budget),
//!   pricing each neuron's adder tree with [`pe_arith::tree_gates`],
//!   with reports proven equal to full elaboration by property test.
//! * [`vdd`] — supply-voltage scaling (1 V → 0.6 V operation, §V-C).
//! * [`variation`] — the Monte-Carlo process-variation model
//!   ([`VariationModel`]) with a deterministic keyed sampler, and the
//!   robust statistics ([`RobustStat`]) the variation-aware search
//!   optimizes.
//! * [`power_source`] — printed batteries / harvester classes and the
//!   Fig. 5 feasibility zones.
//! * [`verilog`] — structural Verilog emission of the bespoke netlists.
//!
//! # Example
//!
//! ```
//! use pe_hw::{Elaborator, TechLibrary};
//! use pe_hw::spec::{ExactNeuronSpec, LayerActivation, LayerSpec, MlpHardwareSpec, NeuronSpec};
//!
//! let spec = MlpHardwareSpec {
//!     name: "demo".into(),
//!     inputs: 2,
//!     input_bits: 4,
//!     layers: vec![LayerSpec {
//!         neurons: vec![NeuronSpec::Exact(ExactNeuronSpec {
//!             input_bits: 4,
//!             weights: vec![3, -5],
//!             bias: 1,
//!             trunc_bits: 0,
//!             csd_multipliers: false,
//!         }); 2],
//!         activation: LayerActivation::Argmax,
//!     }],
//! };
//! let report = Elaborator::new(TechLibrary::egfet()).elaborate(&spec).report;
//! assert!(report.area_cm2 > 0.0 && report.power_mw > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder_tree;
pub mod circuit;
pub mod cost;
pub mod netlist;
pub mod neuron;
pub mod power_source;
pub mod report;
pub mod spec;
pub mod tech;
pub mod variation;
pub mod vdd;
pub mod verilog;

pub use circuit::{
    argmax_gate_counts, qrelu_gate_counts, CostedMlp, ElaboratedMlp, Elaborator, NeuronStats,
};
pub use cost::{CostScenario, ExactCostModel, HwCost};
pub use netlist::{Instance, MacroBlock, NetId, Netlist, Port};
pub use power_source::{Feasibility, FeasibilityZones, PowerSource};
pub use report::HardwareReport;
pub use spec::{ExactNeuronSpec, LayerActivation, LayerSpec, MlpHardwareSpec, NeuronSpec};
pub use tech::{Cell, CellCounts, TechLibrary};
pub use variation::{DeviceDraw, RobustStat, VariationConfig, VariationModel};
pub use vdd::VddModel;
pub use verilog::emit_verilog;
