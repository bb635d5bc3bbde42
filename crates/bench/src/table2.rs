//! Table II — our approximate printed MLPs at up to 5% accuracy loss.
//!
//! Paper columns: MLP, Accuracy, Area (cm²), Power (mW), Area
//! Reduction, Power Reduction (both vs the exact baseline).

use serde::{Deserialize, Serialize};

use printed_axc::DatasetStudy;

use crate::format::{fmt_reduction, render_table};

/// One Table II row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Dataset display name.
    pub mlp: String,
    /// Selected design's test accuracy.
    pub accuracy: Option<f64>,
    /// Selected design's area in cm².
    pub area_cm2: Option<f64>,
    /// Selected design's power in mW.
    pub power_mw: Option<f64>,
    /// Area reduction vs baseline.
    pub area_reduction: Option<f64>,
    /// Power reduction vs baseline.
    pub power_reduction: Option<f64>,
    /// Paper-reported reductions for the record.
    pub paper_area_reduction: f64,
    /// Paper-reported power reduction.
    pub paper_power_reduction: f64,
}

/// Paper-reported Table II reduction factors (for the side-by-side
/// record in EXPERIMENTS.md).
#[must_use]
pub fn paper_reductions(dataset: pe_datasets::Dataset) -> (f64, f64) {
    use pe_datasets::Dataset as D;
    match dataset {
        D::BreastCancer => (288.0, 274.0),
        D::Cardio => (19.3, 19.0),
        D::Pendigits => (5.3, 5.3),
        D::RedWine => (470.0, 579.0),
        D::WhiteWine => (122.0, 137.0),
    }
}

/// Build Table II rows from completed studies.
#[must_use]
pub fn rows(studies: &[DatasetStudy]) -> Vec<Table2Row> {
    studies
        .iter()
        .map(|s| {
            let spec = s.dataset.spec();
            let (pa, pp) = paper_reductions(s.dataset);
            Table2Row {
                mlp: spec.name.to_owned(),
                accuracy: s.selected.as_ref().map(|d| d.test_accuracy),
                area_cm2: s.selected.as_ref().map(|d| d.report.area_cm2),
                power_mw: s.selected.as_ref().map(|d| d.report.power_mw),
                area_reduction: s.area_reduction(),
                power_reduction: s.power_reduction(),
                paper_area_reduction: pa,
                paper_power_reduction: pp,
            }
        })
        .collect()
}

/// Render the table in the paper's layout.
#[must_use]
pub fn render(rows: &[Table2Row]) -> String {
    render_table(
        "Table II: Our printed MLPs for up to 5% accuracy loss (measured vs paper reductions)",
        &[
            "MLP",
            "Acc",
            "Area(cm2)",
            "Power(mW)",
            "AreaRed",
            "PowerRed",
            "AreaRed*",
            "PowerRed*",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mlp.clone(),
                    r.accuracy.map_or("-".into(), |v| format!("{v:.3}")),
                    r.area_cm2.map_or("-".into(), |v| format!("{v:.3}")),
                    r.power_mw.map_or("-".into(), |v| format!("{v:.3}")),
                    fmt_reduction(r.area_reduction),
                    fmt_reduction(r.power_reduction),
                    fmt_reduction(Some(r.paper_area_reduction)),
                    fmt_reduction(Some(r.paper_power_reduction)),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// The lines printed under the table: one per dataset without a
/// selected design, giving the smallest test-accuracy loss
/// (`baseline_test_accuracy − test_accuracy`) any member of its front
/// reached against `loss_budget`, then the selection rule and the
/// power-model caveat.
#[must_use]
pub fn notes(studies: &[DatasetStudy], loss_budget: f64) -> Vec<String> {
    let mut lines: Vec<String> = studies
        .iter()
        .filter(|s| s.selected.is_none())
        .map(|s| {
            let front: Vec<f64> = s.outcome.front.iter().map(|p| p.test_accuracy).collect();
            empty_row_note(
                s.dataset.spec().name,
                s.baseline_test_accuracy,
                &front,
                loss_budget,
            )
        })
        .collect();
    lines.push(
        "Selection filters on test-split accuracy: the smallest front member whose test \
         accuracy is within the loss budget of the baseline's."
            .to_owned(),
    );
    lines.push(
        "PowerRed equals AreaRed by construction: power_mw = GE x power_per_ge_mw.".to_owned(),
    );
    lines
}

/// Why `name`'s row is empty, from its baseline test accuracy and its
/// front members' test accuracies.
fn empty_row_note(name: &str, baseline: f64, front: &[f64], loss_budget: f64) -> String {
    match front
        .iter()
        .map(|accuracy| baseline - accuracy)
        .min_by(f64::total_cmp)
    {
        Some(loss) => format!(
            "{name}: no design within the loss budget; the closest front member \
             loses {loss:.3} test accuracy (budget {loss_budget:.3})"
        ),
        None => format!("{name}: no design within the loss budget; the front is empty"),
    }
}

/// Geometric-mean area and power reductions over the rows with a
/// selected design (`None` when no row has one). A geometric mean is
/// the fair aggregate for ratios. The paper's headline 181× area and
/// 203× power are arithmetic means over all five datasets (its
/// geometric means are 70× and 74×), so compare these with
/// [`paper_geomean_reductions`], taken over the same rows.
#[must_use]
pub fn geomean_reductions(rows: &[Table2Row]) -> (Option<f64>, Option<f64>) {
    let areas: Vec<f64> = rows.iter().filter_map(|r| r.area_reduction).collect();
    let powers: Vec<f64> = rows.iter().filter_map(|r| r.power_reduction).collect();
    (geomean(&areas), geomean(&powers))
}

/// The paper's geometric-mean Table II reductions over the rows
/// [`geomean_reductions`] averages: the area mean over rows with an
/// area reduction, the power mean over rows with a power reduction.
#[must_use]
pub fn paper_geomean_reductions(rows: &[Table2Row]) -> (Option<f64>, Option<f64>) {
    let areas: Vec<f64> = rows
        .iter()
        .filter(|r| r.area_reduction.is_some())
        .map(|r| r.paper_area_reduction)
        .collect();
    let powers: Vec<f64> = rows
        .iter()
        .filter(|r| r.power_reduction.is_some())
        .map(|r| r.paper_power_reduction)
        .collect();
    (geomean(&areas), geomean(&powers))
}

fn geomean(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_datasets::Dataset;

    fn row(area: Option<f64>, power: Option<f64>) -> Table2Row {
        Table2Row {
            mlp: "X".into(),
            accuracy: Some(0.9),
            area_cm2: Some(1.0),
            power_mw: Some(1.0),
            area_reduction: area,
            power_reduction: power,
            paper_area_reduction: 100.0,
            paper_power_reduction: 100.0,
        }
    }

    #[test]
    fn geomean_ignores_missing_rows() {
        let rows = vec![
            row(Some(10.0), Some(10.0)),
            row(None, None),
            row(Some(1000.0), Some(10.0)),
        ];
        let (a, p) = geomean_reductions(&rows);
        assert!((a.unwrap() - 100.0).abs() < 1e-9);
        assert!((p.unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(geomean_reductions(&[row(None, None)]), (None, None));
    }

    #[test]
    fn paper_geomean_covers_the_rows_we_fill() {
        let filled = |dataset: Dataset, ours: Option<f64>| {
            let (area, power) = paper_reductions(dataset);
            Table2Row {
                paper_area_reduction: area,
                paper_power_reduction: power,
                ..row(ours, ours)
            }
        };
        // The `Full` study fills every row but Red Wine.
        let rows = [
            filled(Dataset::BreastCancer, Some(24.0)),
            filled(Dataset::Cardio, Some(5.0)),
            filled(Dataset::Pendigits, Some(2.0)),
            filled(Dataset::RedWine, None),
            filled(Dataset::WhiteWine, Some(12.0)),
        ];
        let (area, power) = paper_geomean_reductions(&rows);
        let expected_area = (288.0_f64 * 19.3 * 5.3 * 122.0).powf(0.25);
        let expected_power = (274.0_f64 * 19.0 * 5.3 * 137.0).powf(0.25);
        assert!((area.unwrap() - expected_area).abs() < 1e-9);
        assert!((power.unwrap() - expected_power).abs() < 1e-9);
        assert_eq!(format!("{:.1}", area.unwrap()), "43.5");
        // Over all five rows it is the paper's own geomean, 70x / 74x.
        let all: Vec<Table2Row> = Dataset::ALL.iter().map(|&d| filled(d, Some(1.0))).collect();
        let (area, power) = paper_geomean_reductions(&all);
        assert_eq!(
            format!("{:.0} {:.0}", area.unwrap(), power.unwrap()),
            "70 74"
        );
        // No filled row, no comparison.
        let empty = [filled(Dataset::RedWine, None)];
        assert_eq!(paper_geomean_reductions(&empty), (None, None));
    }

    #[test]
    fn paper_reductions_match_table_ii() {
        assert_eq!(paper_reductions(Dataset::BreastCancer), (288.0, 274.0));
        assert_eq!(paper_reductions(Dataset::Pendigits), (5.3, 5.3));
        assert_eq!(paper_reductions(Dataset::RedWine), (470.0, 579.0));
    }

    #[test]
    fn notes_give_the_closest_loss_of_an_empty_row() {
        let note = empty_row_note("Pendigits", 0.9, &[0.7, 0.82, 0.6], 0.05);
        assert!(note.starts_with("Pendigits:"), "{note}");
        assert!(
            note.contains("loses 0.080 test accuracy (budget 0.050)"),
            "{note}"
        );
        let empty = empty_row_note("RedWine", 0.6, &[], 0.05);
        assert!(empty.contains("the front is empty"), "{empty}");
        // With no empty rows only the selection rule and the
        // power-model caveat remain.
        let lines = notes(&[], 0.05);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("test-split accuracy"), "{}", lines[0]);
        assert!(lines[1].contains("PowerRed equals AreaRed"), "{}", lines[1]);
    }

    #[test]
    fn render_handles_missing_selection() {
        let out = render(&[row(None, None)]);
        assert!(out.contains('-'));
        assert!(out.contains("Table II"));
    }
}
