//! The unified hardware cost layer: one [`CostModel`] trait from GA
//! fitness to netlist.
//!
//! Historically this workspace had three divergent costing paths — the
//! GA's analytic gate-equivalent objective, [`Elaborator::cost`]'s
//! memoized netlist-free roll-up, and full
//! [`Elaborator::elaborate`]/`Netlist::cell_counts` — whose equality
//! was maintained by hand-written pairwise tests. This module turns
//! that maintenance burden into a trait contract:
//!
//! * [`CostScenario`] names the *conditions* a circuit is costed under:
//!   a [`TechLibrary`], a [`VddModel`], an operating supply voltage and
//!   an optional power budget (a printed [`PowerSource`] or an explicit
//!   mW figure). Scenarios are serializable, so they travel inside
//!   pipeline stage artifacts and sweep configurations.
//! * [`HwCost`] is the *answer*: gate equivalents, cm², mW and ms at
//!   the scenario's supply.
//! * [`CostModel`] maps an [`MlpHardwareSpec`] to a [`HardwareReport`] /
//!   [`HwCost`] under a scenario. Two interchangeable implementations
//!   exist, **proven equal** on randomized specs by the
//!   `cost_model_parity` property suite:
//!   [`FastCostModel`] — fully analytic, no netlist, per-neuron memo —
//!   and [`ExactCostModel`] — scratch-netlist elaboration via
//!   [`Elaborator::cost`], itself proven equal to full elaboration.
//!
//! # Which model to use where
//!
//! The GA fitness and anything run millions of times should use the
//! fast model (or, inside `printed-axc`, the per-neuron
//! `AdderAreaEstimator::counts_of_with` it is built on); reported
//! artifacts (Tables I/II, Figs. 4/5) cost through the exact model.
//! Because the parity suite proves the two identical, this split is an
//! implementation detail, not a semantic one.
//!
//! # Example
//!
//! ```
//! use pe_hw::cost::{CostModel, CostScenario, ExactCostModel, FastCostModel};
//! use pe_hw::spec::{ExactNeuronSpec, LayerActivation, LayerSpec, MlpHardwareSpec, NeuronSpec};
//! use pe_hw::{PowerSource, TechLibrary};
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
//! let fast = FastCostModel::new(scenario.clone());
//! let exact = ExactCostModel::new(scenario);
//!
//! // The two models agree exactly — the parity suite proves this on
//! // randomized specs; here is one instance.
//! assert_eq!(fast.report(&spec), exact.report(&spec));
//! let cost = fast.cost(&spec);
//! assert!(cost.area_ge > 0.0 && cost.power_mw > 0.0);
//! assert!(fast.scenario().within_power_budget(cost.power_mw));
//! ```

use std::sync::{Arc, Mutex};

use pe_arith::{BoundedCache, ColumnProfile, ReductionKind, Summand};
use serde::{Deserialize, Serialize};

use crate::circuit::{cost_with, CostedMlp, Elaborator, NeuronCost};
use crate::neuron::neuron_summands;
use crate::power_source::PowerSource;
use crate::report::HardwareReport;
use crate::spec::{MlpHardwareSpec, NeuronSpec};
use crate::tech::{Cell, CellCounts, TechLibrary};
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

/// Maps a bespoke-MLP hardware spec to its cost under a named
/// [`CostScenario`] — the single costing interface from GA fitness to
/// netlist-backed reporting.
///
/// Implementations must be pure functions of the spec and scenario.
/// The two bundled implementations ([`FastCostModel`], exact-by-
/// construction [`ExactCostModel`]) are proven equal on randomized
/// specs; a custom model (say, wrapping a real EDA flow) only has to
/// implement [`report`](Self::report).
pub trait CostModel: Send + Sync {
    /// Short stable identifier (used in logs and sweep artifacts).
    fn name(&self) -> &'static str;

    /// The scenario this model costs under.
    fn scenario(&self) -> &CostScenario;

    /// Full hardware report of `spec` at the scenario's supply.
    fn report(&self, spec: &MlpHardwareSpec) -> HardwareReport;

    /// Cost summary of `spec` at the scenario's supply.
    fn cost(&self, spec: &MlpHardwareSpec) -> HwCost {
        HwCost::of(&self.report(spec), &self.scenario().tech)
    }
}

/// Per-model bound on memoized neuron costs (an entry is ~100 bytes).
const NEURON_COST_CACHE_CAPACITY: usize = 1 << 15;

/// The *exact* cost model: scratch-netlist elaboration per distinct
/// neuron through [`Elaborator::cost`], which is proven equal to full
/// [`Elaborator::elaborate`] + `Netlist::cell_counts`. Clones share
/// the per-neuron memo.
#[derive(Debug, Clone)]
pub struct ExactCostModel {
    elaborator: Elaborator,
    scenario: CostScenario,
}

impl ExactCostModel {
    /// Exact model for `scenario` with the paper's FA-only reduction.
    #[must_use]
    pub fn new(scenario: CostScenario) -> Self {
        Self {
            elaborator: Elaborator::new(scenario.tech.clone()),
            scenario,
        }
    }

    /// Override the compressor policy (detaches the neuron memo).
    #[must_use]
    pub fn with_kind(mut self, kind: ReductionKind) -> Self {
        self.elaborator = self.elaborator.with_kind(kind);
        self
    }

    /// The underlying elaborator (for consumers that additionally need
    /// netlists or per-neuron statistics).
    #[must_use]
    pub fn elaborator(&self) -> &Elaborator {
        &self.elaborator
    }

    /// Cost with per-neuron statistics, at the nominal supply (what
    /// [`Elaborator::cost`] produces; [`report`](CostModel::report)
    /// additionally moves it to the scenario's operating point).
    #[must_use]
    pub fn costed(&self, spec: &MlpHardwareSpec) -> CostedMlp {
        self.elaborator.cost(spec)
    }
}

impl CostModel for ExactCostModel {
    fn name(&self) -> &'static str {
        "exact-netlist"
    }

    fn scenario(&self) -> &CostScenario {
        &self.scenario
    }

    fn report(&self, spec: &MlpHardwareSpec) -> HardwareReport {
        self.scenario
            .scale_report(self.elaborator.cost(spec).report)
    }
}

/// The *fast* cost model: fully analytic — column heights, the
/// [`pe_arith`] reduction recurrence and the shared macro formulas —
/// with no netlist, no net allocation, and a per-neuron memo shared
/// across clones and threads. Equal to [`ExactCostModel`] on every
/// spec (property-tested), at a fraction of the cost of even the
/// memoized exact path on cold neurons.
#[derive(Debug, Clone)]
pub struct FastCostModel {
    scenario: CostScenario,
    kind: ReductionKind,
    memo: Arc<Mutex<BoundedCache<NeuronSpec, NeuronCost>>>,
}

impl FastCostModel {
    /// Fast model for `scenario` with the paper's FA-only reduction.
    #[must_use]
    pub fn new(scenario: CostScenario) -> Self {
        Self {
            scenario,
            kind: ReductionKind::FaOnly,
            memo: Arc::new(Mutex::new(BoundedCache::new(NEURON_COST_CACHE_CAPACITY))),
        }
    }

    /// Override the compressor policy (detaches the neuron memo, which
    /// is keyed by neuron spec only).
    #[must_use]
    pub fn with_kind(mut self, kind: ReductionKind) -> Self {
        self.kind = kind;
        self.memo = Arc::new(Mutex::new(BoundedCache::new(NEURON_COST_CACHE_CAPACITY)));
        self
    }

    /// Cost with per-neuron statistics, at the nominal supply —
    /// field-for-field equal to [`ExactCostModel::costed`].
    #[must_use]
    pub fn costed(&self, spec: &MlpHardwareSpec) -> CostedMlp {
        cost_with(spec, &self.scenario.tech, &mut |neuron| {
            self.neuron_cost(neuron)
        })
    }

    /// Lifetime `(hits, misses)` of the shared neuron memo.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64) {
        let memo = self
            .memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (memo.hits(), memo.misses())
    }

    fn neuron_cost(&self, neuron: &NeuronSpec) -> NeuronCost {
        {
            let mut memo = self
                .memo
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(cost) = memo.get(neuron) {
                return cost;
            }
        }
        let cost = analytic_neuron_cost(neuron, self.kind);
        self.memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(neuron.clone(), cost);
        cost
    }
}

impl CostModel for FastCostModel {
    fn name(&self) -> &'static str {
        "fast-analytic"
    }

    fn scenario(&self) -> &CostScenario {
        &self.scenario
    }

    fn report(&self, spec: &MlpHardwareSpec) -> HardwareReport {
        self.scenario.scale_report(self.costed(spec).report)
    }
}

/// Analytic per-neuron cost: mirrors
/// [`elaborate_accumulation`](crate::neuron::elaborate_accumulation) +
/// [`TreeBuilder::reduce`](crate::adder_tree::TreeBuilder::reduce) over
/// column *heights* instead of net queues — same stage policy, same
/// final carry-propagate walk, same tie-cell usage — so the counts are
/// equal to scratch elaboration by construction (and by property test).
///
/// # Panics
///
/// Panics on malformed neuron specs, exactly like elaboration.
pub(crate) fn analytic_neuron_cost(neuron: &NeuronSpec, kind: ReductionKind) -> NeuronCost {
    let summands = neuron_summands(neuron);
    let acc_bits = ColumnProfile::accumulator_width(&summands);
    let modulus_mask = (1u64 << acc_bits) - 1;
    let well_formed = "neuron spec must be well-formed";

    // Column heights plus the folded constant (two's-complement
    // negation corrections + bias), exactly as the elaborator places
    // variable bits and tie-high cells.
    let mut heights = vec![0u32; acc_bits as usize];
    let mut counts = CellCounts::new();
    let mut folded_constant: u64 = 0;
    for summand in &summands {
        match summand {
            Summand::MaskedInput {
                mask,
                shift,
                negative,
                ..
            } => {
                summand.validate().expect(well_formed);
                let mut m = *mask;
                while m != 0 {
                    let pos = m.trailing_zeros() + shift;
                    assert!(pos < acc_bits, "{well_formed}");
                    heights[pos as usize] += 1;
                    m &= m - 1;
                }
                if *negative {
                    counts.add(Cell::Not, mask.count_ones());
                }
                if let Some(k) = summand.negation_constant(acc_bits).expect(well_formed) {
                    folded_constant = folded_constant.wrapping_add(k) & modulus_mask;
                }
            }
            Summand::Constant(c) => {
                let pattern = pe_arith::fixed::to_twos_complement(*c, acc_bits).expect(well_formed);
                folded_constant = folded_constant.wrapping_add(pattern) & modulus_mask;
            }
        }
    }
    let mut uses_tie_hi = false;
    for b in 0..acc_bits {
        if folded_constant >> b & 1 == 1 {
            heights[b as usize] += 1;
            uses_tie_hi = true;
        }
    }

    // Stage-by-stage 3:2 reduction, mirroring `TreeBuilder::reduce`:
    // FA sums stay in place, carries move one column left, a leftover
    // pair in a still-too-tall column feeds an HA under FaHa, and
    // trailing empty columns are trimmed between stages.
    let mut stages = 0u32;
    while heights.iter().any(|&h| h > 2) {
        stages += 1;
        let mut next = vec![0u32; heights.len() + 1];
        for (ci, &h) in heights.iter().enumerate() {
            let fas = h / 3;
            counts.add(Cell::Fa, fas);
            let mut rem = h % 3;
            let mut kept = fas;
            if kind == ReductionKind::FaHa && rem == 2 && h > 2 {
                counts.add(Cell::Ha, 1);
                kept += 1;
                next[ci + 1] += 1;
                rem = 0;
            }
            next[ci] += kept + rem;
            next[ci + 1] += fas;
        }
        while next.last() == Some(&0) {
            next.pop();
        }
        heights = next;
    }

    // Final carry-propagate walk, mirroring the TreeBuilder's CPA: the
    // FA-only policy ties the missing third input low (one shared
    // tie-low cell), and empty columns yield constant-zero sum bits.
    let mut uses_tie_lo = false;
    let mut carry = false;
    let mut sum_len = 0u32;
    for &h in &heights {
        match (h, carry) {
            (0, false) => uses_tie_lo = true,
            (0, true) => carry = false,
            (1, false) => {}
            (1, true) | (2, false) => {
                if kind == ReductionKind::FaHa {
                    counts.add(Cell::Ha, 1);
                } else {
                    counts.add(Cell::Fa, 1);
                    uses_tie_lo = true;
                }
                carry = true;
            }
            (2, true) => {
                counts.add(Cell::Fa, 1);
                carry = true;
            }
            _ => unreachable!("columns are at most 2 high after reduction"),
        }
        sum_len += 1;
    }
    if carry {
        sum_len += 1;
    }
    // Sum bits are truncated to the accumulator width and padded with
    // constant zeros when the tree came up short.
    if sum_len < acc_bits {
        uses_tie_lo = true;
    }

    NeuronCost {
        counts,
        uses_tie_hi,
        uses_tie_lo,
        stages,
        accumulator_bits: acc_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExactNeuronSpec, LayerActivation, LayerSpec};
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
    fn fast_equals_exact_on_a_mixed_network() {
        for kind in [ReductionKind::FaOnly, ReductionKind::FaHa] {
            let scenario = CostScenario::default();
            let fast = FastCostModel::new(scenario.clone()).with_kind(kind);
            let exact = ExactCostModel::new(scenario).with_kind(kind);
            let spec = two_layer_spec();
            assert_eq!(fast.report(&spec), exact.report(&spec), "{kind:?}");
            assert_eq!(
                fast.costed(&spec).neuron_stats,
                exact.costed(&spec).neuron_stats,
                "{kind:?}"
            );
            // Warm-memo pass returns the same thing.
            assert_eq!(fast.report(&spec), exact.report(&spec), "{kind:?}");
            assert_eq!(fast.cost(&spec), exact.cost(&spec), "{kind:?}");
        }
    }

    #[test]
    fn fast_model_matches_full_elaboration_cells() {
        let spec = two_layer_spec();
        let fast = FastCostModel::new(CostScenario::default());
        let full = Elaborator::new(TechLibrary::egfet()).elaborate(&spec);
        assert_eq!(fast.costed(&spec).report.cells, full.netlist.cell_counts());
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
        let nominal = FastCostModel::new(CostScenario::default());
        let low = FastCostModel::new(CostScenario::default().at_supply(0.6));
        let (n, l) = (nominal.cost(&spec), low.cost(&spec));
        assert_eq!(n.area_cm2, l.area_cm2, "area is voltage-independent");
        assert_eq!(n.area_ge, l.area_ge);
        assert!(l.power_mw < n.power_mw);
        assert!(l.delay_ms > n.delay_ms);
    }

    #[test]
    fn second_technology_moves_the_cost_surface() {
        let spec = two_layer_spec();
        let hp = FastCostModel::new(CostScenario::default());
        let lp = FastCostModel::new(CostScenario::nominal(TechLibrary::egfet_lowpower()));
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
