//! Multi-technology / multi-voltage cost sweep (`BENCH_cost.json`).
//!
//! The unified cost layer makes "what would this design cost under
//! other conditions?" a pure query: this experiment re-costs every
//! study's exact baseline and selected approximate design under the
//! cross product of the built-in technology libraries and a supply
//! grid, classifying each point against the printed power sources of
//! Fig. 5. Every point is costed once, through the [`ExactCostModel`]
//! of its scenario.
//!
//! The designs to re-cost come either from live studies
//! ([`designs_of_studies`]) or from a saved design store
//! ([`designs_from_store`]) — the `cost_sweep` bin reads `PE_STORE` to
//! pick the source, so `BENCH_cost.json`'s "ours" rows reproduce from a
//! store file in milliseconds, without re-training anything.

use serde::{Deserialize, Serialize};

use pe_hw::{
    CostScenario, ExactCostModel, Feasibility, FeasibilityZones, MlpHardwareSpec, TechLibrary,
};
use pe_mlp::{ax_to_hardware, fixed_to_hardware};
use pe_store::DesignStore;
use printed_axc::{DatasetStudy, DesignNetwork};

use crate::format::render_table;

/// One re-costed design point of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Two-letter dataset code.
    pub dataset: String,
    /// Which design: `"baseline"` (exact bespoke) or `"ours"` (the
    /// study's selected approximate MLP).
    pub design: String,
    /// Technology library name.
    pub tech: String,
    /// Operating supply in volts.
    pub supply_v: f64,
    /// Gate equivalents (technology-independent).
    pub area_ge: f64,
    /// Area in cm².
    pub area_cm2: f64,
    /// Power in mW at the supply.
    pub power_mw: f64,
    /// Critical-path delay in ms at the supply.
    pub delay_ms: f64,
    /// Fig. 5 zone name at this point.
    pub zone: String,
    /// Whether a printed power source can drive the point
    /// ([`Feasibility::is_deployable`], recorded from the enum so the
    /// summary never re-derives it from display strings).
    pub deployable: bool,
}

/// The supply grid the sweep evaluates (clamped per technology to its
/// operating range).
pub const SUPPLY_GRID: [f64; 3] = [1.0, 0.8, 0.6];

fn zone_name(f: Feasibility) -> String {
    match f {
        Feasibility::Powered(src) => src.name().to_owned(),
        Feasibility::NoAdequatePowerSupply => "No Adequate Power Supply".to_owned(),
        Feasibility::UnsustainableArea => "Unsustainable Area".to_owned(),
    }
}

/// One design the sweep re-costs: its dataset code, its `"baseline"` /
/// `"ours"` role, and the lowered hardware spec. Built from live
/// studies ([`designs_of_studies`]) or from a saved design store
/// ([`designs_from_store`]) — the sweep itself
/// ([`sweep_designs`]) is source-agnostic.
#[derive(Debug, Clone)]
pub struct SweepDesign {
    /// Two-letter dataset code.
    pub dataset: String,
    /// `"baseline"` or `"ours"` (see [`SweepPoint::design`]).
    pub design: String,
    /// The lowered circuit specification.
    pub spec: MlpHardwareSpec,
}

/// The sweep inputs of live studies: each study's exact baseline plus
/// its selected approximate design (when one was selected).
#[must_use]
pub fn designs_of_studies(studies: &[DatasetStudy]) -> Vec<SweepDesign> {
    let mut designs = Vec::new();
    for study in studies {
        let code = study.dataset.spec().short_name.to_owned();
        designs.push(SweepDesign {
            dataset: code.clone(),
            design: "baseline".to_owned(),
            spec: fixed_to_hardware(&study.baseline, format!("{code}_baseline")),
        });
        if let Some(selected) = &study.selected {
            if let DesignNetwork::Ax(mlp) = &selected.network {
                designs.push(SweepDesign {
                    dataset: code.clone(),
                    design: "ours".to_owned(),
                    spec: ax_to_hardware(mlp, format!("{code}_ours")),
                });
            }
        }
    }
    designs
}

/// The sweep inputs of a saved design store: each dataset's
/// `selected`-flagged record (the design the pipeline's select stage
/// picked), reconstructed to hardware — so `BENCH_cost.json`'s "ours"
/// rows reproduce from the store alone, without re-training anything.
/// Exact baselines are not stored (the store holds approximate
/// designs), so store-driven sweeps have no `"baseline"` rows.
#[must_use]
pub fn designs_from_store(store: &DesignStore) -> Vec<SweepDesign> {
    let mut designs = Vec::new();
    for name in store.datasets() {
        let Some(record) = store.selected(name) else {
            continue;
        };
        // Stored dataset names are display names; map back to the
        // short code live sweeps use where possible.
        let code = pe_datasets::Dataset::ALL
            .iter()
            .find(|d| d.spec().name == name)
            .map_or_else(|| name.to_owned(), |d| d.spec().short_name.to_owned());
        designs.push(SweepDesign {
            dataset: code.clone(),
            design: "ours".to_owned(),
            spec: record.hardware_spec(format!("{code}_ours")),
        });
    }
    designs
}

/// Sweep every study's baseline and selected design across the built-in
/// technologies and the supply grid.
#[must_use]
pub fn sweep(studies: &[DatasetStudy]) -> Vec<SweepPoint> {
    sweep_designs(&designs_of_studies(studies))
}

/// Sweep arbitrary designs across the built-in technologies and the
/// supply grid (see [`sweep`]; store-driven runs feed
/// [`designs_from_store`] here).
#[must_use]
pub fn sweep_designs(designs: &[SweepDesign]) -> Vec<SweepPoint> {
    let zones = FeasibilityZones::paper();
    let mut points = Vec::new();
    for tech in TechLibrary::builtin() {
        // Clamp the grid to the library's operating range (both
        // ends — a future library may run nominally below 1 V) and
        // drop the duplicates clamping can create, so no point is
        // emitted or counted twice.
        let mut supplies: Vec<f64> = SUPPLY_GRID
            .iter()
            .map(|v| v.clamp(tech.min_vdd, tech.nominal_vdd))
            .collect();
        supplies.dedup();
        for supply in supplies {
            let model = ExactCostModel::new(CostScenario::nominal(tech.clone()).at_supply(supply));
            for design in designs {
                let cost = model.cost(&design.spec);
                let feasibility = zones.classify(cost.area_cm2, cost.power_mw);
                points.push(SweepPoint {
                    dataset: design.dataset.clone(),
                    design: design.design.clone(),
                    tech: tech.name.clone(),
                    supply_v: supply,
                    area_ge: cost.area_ge,
                    area_cm2: cost.area_cm2,
                    power_mw: cost.power_mw,
                    delay_ms: cost.delay_ms,
                    zone: zone_name(feasibility),
                    deployable: feasibility.is_deployable(),
                });
            }
        }
    }
    points
}

/// Render the sweep as a table — baseline rows included, so the
/// reduction from exact to approximate is visible per (tech, Vdd)
/// point ([`deployable_summary`] aggregates the "ours" rows only).
#[must_use]
pub fn render(points: &[SweepPoint]) -> String {
    render_table(
        "Cost sweep: selected designs across technologies and supplies",
        &[
            "Dataset",
            "Design",
            "Tech",
            "Vdd",
            "GE",
            "Area(cm2)",
            "Power(mW)",
            "Delay(ms)",
            "Zone",
        ],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.dataset.clone(),
                    p.design.clone(),
                    p.tech.clone(),
                    format!("{:.1}", p.supply_v),
                    format!("{:.0}", p.area_ge),
                    format!("{:.3}", p.area_cm2),
                    format!("{:.3}", p.power_mw),
                    format!("{:.0}", p.delay_ms),
                    p.zone.clone(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Count how many swept "ours" points each printed power source can
/// drive — the sweep's headline: which (tech, Vdd) scenarios unlock
/// self-powered deployment.
#[must_use]
pub fn deployable_summary(points: &[SweepPoint]) -> String {
    let ours: Vec<&SweepPoint> = points.iter().filter(|p| p.design == "ours").collect();
    let deployable = ours.iter().filter(|p| p.deployable).count();
    let harvester = ours.iter().filter(|p| p.zone == "Harvester").count();
    format!(
        "swept {} (tech, vdd) points of our designs: {} deployable, {} self-powered (harvester)",
        ours.len(),
        deployable,
        harvester
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supply_grid_is_descending_and_in_range() {
        for w in SUPPLY_GRID.windows(2) {
            assert!(w[0] > w[1]);
        }
        for tech in TechLibrary::builtin() {
            for &v in &SUPPLY_GRID {
                assert!(v.max(tech.min_vdd) >= tech.min_vdd);
                assert!(v <= tech.nominal_vdd);
            }
        }
    }

    #[test]
    fn render_and_summary_handle_empty_sweeps() {
        let out = render(&[]);
        assert!(out.contains("Cost sweep"));
        assert!(deployable_summary(&[]).contains("swept 0"));
    }
}
