//! The hardware cost layer: the conditions a circuit is costed under,
//! and the one [`ExactCostModel`] every reported design is priced by.
//!
//! * [`CostScenario`] names the *conditions* a circuit is costed under:
//!   a [`TechLibrary`], a [`VddModel`], an operating supply voltage and
//!   an optional power budget (a printed [`PowerSource`] or an explicit
//!   mW figure). Scenarios are serializable, so they travel inside
//!   pipeline stage artifacts and sweep configurations.
//! * [`HwCost`] is the *answer*: gate equivalents, cm², mW and ms at
//!   the scenario's supply.
//! * [`ExactCostModel`] maps an [`MlpHardwareSpec`] to a
//!   [`HardwareReport`] / [`HwCost`] under a scenario. It prices each
//!   neuron's adder tree with [`pe_arith::tree_gates`] through
//!   [`Elaborator::cost`], whose reports the `cost_model_parity`
//!   property suite proves equal to full [`Elaborator::elaborate`] +
//!   `Netlist::cell_counts`.
//!
//! The GA fitness, which runs millions of times, prices neurons with
//! the same function ([`pe_arith::tree_gates`]) inside `printed-axc`;
//! every reported artifact (Tables I/II, Figs. 4/5) costs through this
//! model.
//!
//! # Example
//!
//! ```
//! use pe_hw::cost::{CostScenario, ExactCostModel};
//! use pe_hw::spec::{ExactNeuronSpec, LayerActivation, LayerSpec, MlpHardwareSpec, NeuronSpec};
//! use pe_hw::{Elaborator, PowerSource, TechLibrary};
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
//!
//! // A power-aware low-voltage scenario on the default technology.
//! let scenario = CostScenario::nominal(TechLibrary::egfet())
//!     .at_supply(0.6)
//!     .powered_by(PowerSource::Harvester);
//! let model = ExactCostModel::new(scenario);
//!
//! // At the nominal supply the model's report is the netlist's; the
//! // parity suite proves this on randomized specs.
//! let full = Elaborator::new(TechLibrary::egfet()).elaborate(&spec).report;
//! assert_eq!(model.costed(&spec).report, full);
//! let cost = model.cost(&spec);
//! assert!(cost.area_ge > 0.0 && cost.power_mw > 0.0);
//! assert!(model.scenario().within_power_budget(cost.power_mw));
//! ```

use serde::{Deserialize, Serialize};

use crate::circuit::{CostedMlp, Elaborator};
use crate::power_source::PowerSource;
use crate::report::HardwareReport;
use crate::spec::MlpHardwareSpec;
use crate::tech::TechLibrary;
use crate::vdd::VddModel;

/// The conditions a circuit is costed under: technology, voltage
/// scaling law, operating supply, and an optional power budget.
///
/// Serializable so it can be a first-class pipeline/stage input; two
/// scenarios compare equal iff every knob matches, which is what stage
/// caches key on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostScenario {
    /// The cell library costs are expressed in.
    pub tech: TechLibrary,
    /// Voltage scaling laws used to move away from the nominal supply.
    pub vdd: VddModel,
    /// Operating supply voltage in volts. Reports and costs are
    /// evaluated here; equal to `tech.nominal_vdd` in the default
    /// scenario (in which case no rescaling happens at all).
    pub supply_v: f64,
    /// Optional power budget in mW (e.g. a printed battery's rating).
    /// `None` imposes no constraint.
    pub power_budget_mw: Option<f64>,
}

impl CostScenario {
    /// The technology's nominal operating point, unconstrained: the
    /// scenario every artifact was historically reported under.
    #[must_use]
    pub fn nominal(tech: TechLibrary) -> Self {
        Self {
            supply_v: tech.nominal_vdd,
            vdd: VddModel::for_tech(&tech),
            tech,
            power_budget_mw: None,
        }
    }

    /// Operate at `supply_v` volts instead of the nominal supply.
    ///
    /// # Panics
    ///
    /// Panics if `supply_v` fails [`supply_in_range`] — outside the
    /// technology's `[min_vdd, nominal_vdd]` operating range or not
    /// finite (EGFET logic is not overdriven above its nominal rail,
    /// paper §V-C). Fallible callers (configuration validation) should
    /// check [`supply_in_range`] themselves and report an error.
    #[must_use]
    pub fn at_supply(mut self, supply_v: f64) -> Self {
        assert!(
            supply_in_range(&self.tech, supply_v),
            "supply {supply_v} V outside the {} operating range [{}, {}] V",
            self.tech.name,
            self.tech.min_vdd,
            self.tech.nominal_vdd
        );
        self.supply_v = supply_v;
        self
    }

    /// Constrain designs to what `source` can drive.
    #[must_use]
    pub fn powered_by(mut self, source: PowerSource) -> Self {
        self.power_budget_mw = Some(source.budget_mw());
        self
    }

    /// Constrain designs to an explicit power budget in mW.
    #[must_use]
    pub fn with_power_budget_mw(mut self, budget_mw: f64) -> Self {
        self.power_budget_mw = Some(budget_mw);
        self
    }

    /// Whether this is the technology's nominal, unscaled operating
    /// point (reports then need no rescaling and stay bit-identical to
    /// the historical nominal path).
    #[must_use]
    pub fn is_nominal_supply(&self) -> bool {
        self.supply_v == self.tech.nominal_vdd
    }

    /// Move a nominal-supply report to this scenario's operating point
    /// (no-op — bit-identical — at the nominal supply).
    #[must_use]
    pub fn scale_report(&self, report: HardwareReport) -> HardwareReport {
        if report.vdd == self.supply_v {
            report
        } else {
            report.at_vdd(&self.vdd, self.supply_v)
        }
    }

    /// Whether `power_mw` fits the scenario's budget (`true` when no
    /// budget is set). The boundary is inclusive, matching
    /// [`FeasibilityZones::classify`](crate::power_source::FeasibilityZones::classify).
    #[must_use]
    pub fn within_power_budget(&self, power_mw: f64) -> bool {
        self.power_budget_mw.is_none_or(|budget| power_mw <= budget)
    }

    /// Compact human-readable label, e.g. `egfet-1v@0.60V<=5mW`.
    #[must_use]
    pub fn label(&self) -> String {
        let mut label = format!("{}@{:.2}V", self.tech.name, self.supply_v);
        if let Some(budget) = self.power_budget_mw {
            label.push_str(&format!("<={budget}mW"));
        }
        label
    }
}

impl Default for CostScenario {
    /// [`CostScenario::nominal`] on the default [`TechLibrary`].
    fn default() -> Self {
        Self::nominal(TechLibrary::default())
    }
}

/// Whether `supply_v` is a valid operating point for `tech`: finite and
/// within `[min_vdd, nominal_vdd]` (to a 1 nV tolerance). The single
/// definition of the supply range — [`CostScenario::at_supply`] asserts
/// it, configuration validation reports it as an error.
#[must_use]
pub fn supply_in_range(tech: &TechLibrary, supply_v: f64) -> bool {
    supply_v.is_finite() && supply_v >= tech.min_vdd - 1e-9 && supply_v <= tech.nominal_vdd + 1e-9
}

/// The cost of one circuit under a [`CostScenario`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HwCost {
    /// Total gate equivalents (technology-independent logic content).
    pub area_ge: f64,
    /// Area in cm² (voltage-independent).
    pub area_cm2: f64,
    /// Power in mW at the scenario's supply.
    pub power_mw: f64,
    /// Critical-path delay in ms at the scenario's supply.
    pub delay_ms: f64,
}

impl HwCost {
    /// Derive the cost summary from a report (already at the scenario's
    /// supply) and the technology it was costed in.
    #[must_use]
    pub fn of(report: &HardwareReport, tech: &TechLibrary) -> Self {
        Self {
            area_ge: tech.ge_total(&report.cells),
            area_cm2: report.area_cm2,
            power_mw: report.power_mw,
            delay_ms: report.delay_ms,
        }
    }
}

/// The cost model: prices a bespoke-MLP hardware spec under one
/// [`CostScenario`] through [`Elaborator::cost`], whose reports equal
/// full [`Elaborator::elaborate`] + `Netlist::cell_counts`.
#[derive(Debug, Clone)]
pub struct ExactCostModel {
    elaborator: Elaborator,
    scenario: CostScenario,
}

impl ExactCostModel {
    /// Model for `scenario`, with the paper's FA-only adder trees.
    #[must_use]
    pub fn new(scenario: CostScenario) -> Self {
        Self {
            elaborator: Elaborator::new(scenario.tech.clone()),
            scenario,
        }
    }

    /// The scenario this model costs under.
    #[must_use]
    pub fn scenario(&self) -> &CostScenario {
        &self.scenario
    }

    /// Cost with per-neuron statistics, at the technology's nominal
    /// supply (what [`Elaborator::cost`] produces;
    /// [`report`](Self::report) additionally moves it to the
    /// scenario's operating point).
    #[must_use]
    pub fn costed(&self, spec: &MlpHardwareSpec) -> CostedMlp {
        self.elaborator.cost(spec)
    }

    /// Full hardware report of `spec` at the scenario's supply.
    #[must_use]
    pub fn report(&self, spec: &MlpHardwareSpec) -> HardwareReport {
        self.scenario.scale_report(self.costed(spec).report)
    }

    /// Cost summary of `spec` at the scenario's supply.
    #[must_use]
    pub fn cost(&self, spec: &MlpHardwareSpec) -> HwCost {
        HwCost::of(&self.report(spec), &self.scenario.tech)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExactNeuronSpec, LayerActivation, LayerSpec, NeuronSpec};
    use pe_arith::{NeuronArithSpec, WeightArith};

    fn two_layer_spec() -> MlpHardwareSpec {
        MlpHardwareSpec {
            name: "cost-demo".into(),
            inputs: 3,
            input_bits: 4,
            layers: vec![
                LayerSpec {
                    neurons: vec![
                        NeuronSpec::Approximate(NeuronArithSpec {
                            input_bits: 4,
                            weights: vec![
                                WeightArith {
                                    mask: 0b1011,
                                    shift: 1,
                                    negative: true,
                                },
                                WeightArith {
                                    mask: 0b1111,
                                    shift: 0,
                                    negative: false,
                                },
                                WeightArith {
                                    mask: 0,
                                    shift: 2,
                                    negative: false,
                                },
                            ],
                            bias: -7,
                        });
                        2
                    ],
                    activation: LayerActivation::QRelu {
                        out_bits: 8,
                        shift: 1,
                    },
                },
                LayerSpec {
                    neurons: vec![
                        NeuronSpec::Exact(ExactNeuronSpec {
                            input_bits: 8,
                            weights: vec![13, -6],
                            bias: 3,
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

    #[test]
    fn nominal_scenario_report_is_bit_identical_to_elaborator() {
        // The default scenario must not rescale anything: the refactor
        // guarantee behind byte-identical table artifacts.
        let spec = two_layer_spec();
        let exact = ExactCostModel::new(CostScenario::default());
        let legacy = Elaborator::new(TechLibrary::egfet()).cost(&spec).report;
        assert_eq!(exact.report(&spec), legacy);
    }

    #[test]
    fn scenarios_scale_like_the_vdd_model() {
        let spec = two_layer_spec();
        let nominal = ExactCostModel::new(CostScenario::default());
        let low = ExactCostModel::new(CostScenario::default().at_supply(0.6));
        let (n, l) = (nominal.cost(&spec), low.cost(&spec));
        assert_eq!(n.area_cm2, l.area_cm2, "area is voltage-independent");
        assert_eq!(n.area_ge, l.area_ge);
        assert!(l.power_mw < n.power_mw);
        assert!(l.delay_ms > n.delay_ms);
    }

    #[test]
    fn second_technology_moves_the_cost_surface() {
        let spec = two_layer_spec();
        let hp = ExactCostModel::new(CostScenario::default());
        let lp = ExactCostModel::new(CostScenario::nominal(TechLibrary::egfet_lowpower()));
        let (h, l) = (hp.cost(&spec), lp.cost(&spec));
        assert_eq!(h.area_ge, l.area_ge, "same logic content");
        assert!(l.area_cm2 > h.area_cm2, "LP corner is bigger");
        assert!(l.power_mw < h.power_mw, "LP corner burns less");
    }

    #[test]
    fn scenario_labels_and_budgets() {
        let s = CostScenario::default();
        assert!(s.is_nominal_supply());
        assert!(s.within_power_budget(1e9));
        assert_eq!(s.label(), "egfet-1v@1.00V");
        let s = s.at_supply(0.6).powered_by(PowerSource::BlueSpark);
        assert!(!s.is_nominal_supply());
        assert_eq!(s.label(), "egfet-1v@0.60V<=5mW");
        assert!(s.within_power_budget(5.0), "budget boundary is inclusive");
        assert!(!s.within_power_budget(5.0 + 1e-9));
    }

    #[test]
    #[should_panic(expected = "outside the egfet-1v operating range")]
    fn undervolted_scenario_is_rejected() {
        let _ = CostScenario::default().at_supply(0.3);
    }

    #[test]
    #[should_panic(expected = "outside the egfet-1v operating range")]
    fn overdriven_scenario_is_rejected() {
        let _ = CostScenario::default().at_supply(1.2);
    }
}
