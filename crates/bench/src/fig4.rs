//! Fig. 4 — normalized area/power of ours vs the state of the art.
//!
//! The paper plots, per dataset and on a log axis, area and power
//! normalized to the exact baseline for: ours, TC'23 \[5\], TCAD'23 \[7\]
//! and the stochastic DATE'21 \[10\]. All methods share the same 5%
//! accuracy-loss budget except SC, which cannot reach it.
//!
//! The comparison iterates [`SearchEngine`]s generically over the
//! study's [`BaselineCosted`](printed_axc::BaselineCosted) stage —
//! adding a method to the figure is adding an engine to the list.

use serde::{Deserialize, Serialize};

use pe_baselines::{ScEngine, Tc23Engine, Tcad23Engine};
use pe_hw::{CostScenario, ExactCostModel, TechLibrary};
use printed_axc::{select_within_loss, RunControl, SearchContext, SearchEngine, Selected};

use crate::format::render_table;

/// Normalized results of one method on one dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodPoint {
    /// Area normalized to the exact baseline (lower is better).
    pub norm_area: f64,
    /// Power normalized to the exact baseline.
    pub norm_power: f64,
    /// Test accuracy of the compared design.
    pub accuracy: f64,
}

/// One compared engine's point, tagged with the engine name.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NamedPoint {
    /// The engine ([`SearchEngine::name`]).
    pub engine: String,
    /// Its normalized design point.
    pub point: MethodPoint,
}

/// One Fig. 4 group: one dataset, ours plus every compared engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Row {
    /// Two-letter dataset code (BC, Ca, PD, RW, WW).
    pub dataset: String,
    /// Our GA-trained design (the study's selected point).
    pub ours: Option<MethodPoint>,
    /// The compared engines, in input order.
    pub methods: Vec<NamedPoint>,
}

/// The paper's comparison set: TC'23 \[5\], TCAD'23 \[7\], DATE'21 \[10\].
#[must_use]
pub fn paper_engines() -> Vec<Box<dyn SearchEngine>> {
    vec![
        Box::new(Tc23Engine::default()),
        Box::new(Tcad23Engine::default()),
        Box::new(ScEngine::default()),
    ]
}

/// Build one Fig. 4 row from a completed study's stage artifacts by
/// running every engine against the same
/// [`SearchContext`] the study's own
/// search saw. `tech` must be the technology the study ran with, so
/// the engines' circuits and the baseline normalizer share one model.
///
/// The study's loss budget, read from the `Selected` stage, picks each
/// engine's reported design: the smallest front member within that
/// budget, falling back to its most accurate design when none
/// qualifies (the paper's treatment of SC, which cannot reach the
/// budget). It does not steer the searches: TC'23 and TCAD'23 tune
/// against their own configured `loss_budget` (0.05 by default). `eval_threads` is the engines' batch-evaluation worker
/// budget (results never depend on it).
///
/// # Panics
///
/// Panics if an engine fails — nothing cancels these searches, so a
/// failure is a bug.
#[must_use]
pub fn row(
    selected: &Selected,
    engines: &[Box<dyn SearchEngine>],
    tech: &TechLibrary,
    eval_threads: usize,
) -> Fig4Row {
    let costed = &selected.searched.costed;
    let spec = costed.float.prepared.dataset.spec();
    let model = ExactCostModel::new(CostScenario::nominal(tech.clone()));
    let budget = selected.loss_budget;
    let ctx = SearchContext {
        eval_threads,
        ..costed.search_context(&model)
    };
    let base_area = costed.baseline_report.area_cm2;
    let base_power = costed.baseline_report.power_mw;

    let normalized = |p: &printed_axc::DesignPoint| MethodPoint {
        norm_area: p.report.area_cm2 / base_area,
        norm_power: p.report.power_mw / base_power,
        accuracy: p.test_accuracy,
    };

    let methods = engines
        .iter()
        .map(|engine| {
            let outcome = engine
                .search(&ctx, &RunControl::NONE)
                .unwrap_or_else(|e| panic!("engine {} failed: {e}", engine.name()));
            let representative =
                select_within_loss(&outcome.front, costed.baseline_test_accuracy, budget).or_else(
                    || {
                        outcome
                            .front
                            .iter()
                            .max_by(|a, b| a.test_accuracy.total_cmp(&b.test_accuracy))
                    },
                );
            NamedPoint {
                engine: engine.name().to_owned(),
                point: representative.map_or(
                    MethodPoint {
                        norm_area: f64::INFINITY,
                        norm_power: f64::INFINITY,
                        accuracy: 0.0,
                    },
                    normalized,
                ),
            }
        })
        .collect();

    Fig4Row {
        dataset: spec.short_name.to_owned(),
        ours: selected.selected.as_ref().map(normalized),
        methods,
    }
}

/// Render both panels of Fig. 4 as tables (normalized, log-scale data).
#[must_use]
pub fn render(rows: &[Fig4Row]) -> String {
    let engine_names: Vec<String> = rows.first().map_or_else(Vec::new, |r| {
        r.methods.iter().map(|m| m.engine.clone()).collect()
    });
    let mut header: Vec<&str> = vec!["Dataset", "ours"];
    header.extend(engine_names.iter().map(String::as_str));

    let panel = |title: &str, pick: fn(&MethodPoint) -> f64, precision: usize| {
        render_table(
            title,
            &header,
            &rows
                .iter()
                .map(|r| {
                    let mut cells = vec![
                        r.dataset.clone(),
                        r.ours
                            .as_ref()
                            .map_or("-".into(), |p| format!("{:.precision$}", pick(p))),
                    ];
                    cells.extend(
                        r.methods
                            .iter()
                            .map(|m| format!("{:.precision$}", pick(&m.point))),
                    );
                    cells
                })
                .collect::<Vec<_>>(),
        )
    };

    let area = panel(
        "Fig. 4a: Normalized area (vs exact baseline; lower is better)",
        |p| p.norm_area,
        4,
    );
    let power = panel(
        "Fig. 4b: Normalized power (vs exact baseline; lower is better)",
        |p| p.norm_power,
        4,
    );
    let acc = panel(
        "Fig. 4 (context): test accuracies of the compared designs",
        |p| p.accuracy,
        3,
    );
    format!("{area}\n{power}\n{acc}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(v: f64) -> MethodPoint {
        MethodPoint {
            norm_area: v,
            norm_power: v,
            accuracy: 0.9,
        }
    }

    #[test]
    fn render_derives_columns_from_the_engine_list() {
        let rows = vec![Fig4Row {
            dataset: "BC".into(),
            ours: Some(point(0.01)),
            methods: vec![
                NamedPoint {
                    engine: "tc23".into(),
                    point: point(0.5),
                },
                NamedPoint {
                    engine: "sc-date21".into(),
                    point: point(2.0),
                },
            ],
        }];
        let out = render(&rows);
        assert!(out.contains("tc23") && out.contains("sc-date21"));
        assert!(out.contains("0.0100") && out.contains("2.0000"));
    }
}
