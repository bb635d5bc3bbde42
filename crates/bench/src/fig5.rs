//! Fig. 5 — feasibility: which printed power source can drive each MLP.
//!
//! The paper re-synthesizes its approximate MLPs at 0.6 V (the EGFET
//! minimum) and classifies every design — baseline \[2\], TC'23 \[5\] and
//! ours — into power-source zones (Harvester / Blue Spark 5 mW /
//! Zinergy 15 mW / Molex 30 mW / red zones).

use serde::{Deserialize, Serialize};

use pe_baselines::{approximate_tc23, Tc23Config};
use pe_hw::{CostScenario, ExactCostModel, Feasibility, FeasibilityZones, TechLibrary, VddModel};
use printed_axc::DatasetStudy;

use crate::format::render_table;

/// One design point in the feasibility plane.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Point {
    /// Area in cm².
    pub area_cm2: f64,
    /// Power in mW at the evaluated supply.
    pub power_mw: f64,
    /// Zone classification.
    pub zone: String,
}

/// One Fig. 5 row: the three methods for one dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Two-letter dataset code.
    pub dataset: String,
    /// Exact baseline (MICRO'20 \[2\]) at nominal 1 V.
    pub baseline: Fig5Point,
    /// TC'23 \[5\] at nominal 1 V.
    pub tc23: Fig5Point,
    /// Ours at 0.6 V (the paper's §V-C re-synthesis).
    pub ours_0v6: Option<Fig5Point>,
}

fn zone_name(f: Feasibility) -> String {
    match f {
        Feasibility::Powered(src) => src.name().to_owned(),
        Feasibility::NoAdequatePowerSupply => "No Adequate Power Supply".to_owned(),
        Feasibility::UnsustainableArea => "Unsustainable Area".to_owned(),
    }
}

fn point(area: f64, power: f64, zones: &FeasibilityZones) -> Fig5Point {
    Fig5Point {
        area_cm2: area,
        power_mw: power,
        zone: zone_name(zones.classify(area, power)),
    }
}

/// Build one Fig. 5 row from a completed study.
#[must_use]
pub fn row(study: &DatasetStudy) -> Fig5Row {
    let spec = study.dataset.spec();
    let zones = FeasibilityZones::paper();
    let model = ExactCostModel::new(CostScenario::nominal(TechLibrary::egfet()));
    let vdd = VddModel::egfet();

    let tc = approximate_tc23(
        &study.baseline,
        &study.train.features,
        &study.train.labels,
        &Tc23Config::default(),
    );
    let tc_report = tc.hardware_report(&model, "tc23_fig5");

    let ours = study.selected.as_ref().map(|d| {
        let low = d.report.at_vdd(&vdd, 0.6);
        point(low.area_cm2, low.power_mw, &zones)
    });

    Fig5Row {
        dataset: spec.short_name.to_owned(),
        baseline: point(
            study.baseline_report.area_cm2,
            study.baseline_report.power_mw,
            &zones,
        ),
        tc23: point(tc_report.area_cm2, tc_report.power_mw, &zones),
        ours_0v6: ours,
    }
}

/// Render Fig. 5 as a classification table.
#[must_use]
pub fn render(rows: &[Fig5Row]) -> String {
    render_table(
        "Fig. 5: Feasibility — power source per design (ours re-evaluated at 0.6 V)",
        &[
            "Dataset",
            "MICRO'20[2] zone",
            "TC'23[5] zone",
            "Ours@0.6V zone",
            "Ours area/power",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.baseline.zone.clone(),
                    r.tc23.zone.clone(),
                    r.ours_0v6.as_ref().map_or("-".into(), |p| p.zone.clone()),
                    r.ours_0v6.as_ref().map_or("-".into(), |p| {
                        format!("{:.3} cm2 / {:.3} mW", p.area_cm2, p.power_mw)
                    }),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Average power reduction of ours at 0.6 V vs the 1 V baseline (the
/// paper reports 912× on average).
#[must_use]
pub fn avg_power_reduction_0v6(studies: &[DatasetStudy]) -> Option<f64> {
    let vdd = VddModel::egfet();
    let factors: Vec<f64> = studies
        .iter()
        .filter_map(|s| {
            s.selected.as_ref().map(|d| {
                let low = d.report.at_vdd(&vdd, 0.6);
                s.baseline_report.power_mw / low.power_mw.max(f64::MIN_POSITIVE)
            })
        })
        .collect();
    if factors.is_empty() {
        None
    } else {
        Some((factors.iter().map(|f| f.ln()).sum::<f64>() / factors.len() as f64).exp())
    }
}
