//! Table III — training execution-time evaluation.
//!
//! Paper columns: Exec. time of (1) gradient training with only
//! accuracy as objective, (2) GA-based training with only accuracy,
//! (3) GA-based training with AxC techniques and both objectives.
//! The paper's numbers are minutes on an EPYC 7552; ours are measured
//! wall-clock at a matched *evaluation count* per trainer, so the
//! ratios — gradient ≪ GA ≈ GA-AxC — are the reproduction target
//! (absolute times are machine-dependent, see DESIGN.md §2).

use std::time::Instant;

use serde::{Deserialize, Serialize};

use pe_datasets::Dataset;
use pe_hw::TechLibrary;
use pe_mlp::{DenseMlp, SgdTrainer, Topology, TrainConfig};
use pe_nsga::NsgaConfig;
use printed_axc::{
    AxTrainConfig, FloatTrained, NsgaEngine, PlainGaEngine, RunControl, SearchContext,
    SearchEngine, Study, StudyConfig,
};

use crate::format::render_table;

/// One Table III row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Dataset display name.
    pub mlp: String,
    /// Gradient-training wall time, seconds.
    pub grad_secs: f64,
    /// Plain-GA wall time, seconds.
    pub ga_secs: f64,
    /// Hardware-aware GA (ours) wall time, seconds.
    pub ga_axc_secs: f64,
    /// Paper-reported minutes (grad, ga, ga-axc).
    pub paper_minutes: (f64, f64, f64),
}

/// Paper-reported Table III times in minutes.
#[must_use]
pub fn paper_minutes(dataset: Dataset) -> (f64, f64, f64) {
    match dataset {
        Dataset::BreastCancer => (0.5, 8.0, 9.0),
        Dataset::Cardio => (2.0, 42.0, 45.0),
        Dataset::Pendigits => (14.0, 298.0, 344.0),
        Dataset::RedWine => (2.0, 21.0, 22.0),
        Dataset::WhiteWine => (7.0, 77.0, 79.0),
    }
}

/// Budget knobs for the timing experiment.
#[derive(Debug, Clone, Copy)]
pub struct Table3Budget {
    /// SGD epochs for the gradient trainer.
    pub sgd_epochs: usize,
    /// GA population for both GA trainers.
    pub population: usize,
    /// GA generations for both GA trainers.
    pub generations: usize,
    /// Fitness subsample cap.
    pub subsample: usize,
}

impl Table3Budget {
    /// Quick preset (seconds per dataset).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            sgd_epochs: 15,
            population: 20,
            generations: 12,
            subsample: 300,
        }
    }

    /// Full preset.
    #[must_use]
    pub fn full() -> Self {
        Self {
            sgd_epochs: 100,
            population: 60,
            generations: 60,
            subsample: 1500,
        }
    }
}

/// Measure one dataset's three trainers.
///
/// Data preparation and baseline costing run through the staged
/// pipeline; the two GA rows come from the generic [`SearchEngine`]
/// interface (each outcome's `ga_wall` — the evolution loop proper,
/// matching the paper's Table III which excludes one-off synthesis).
/// The gradient row times a single SGD run, as the paper's "Grad."
/// column does.
///
/// # Panics
///
/// Panics if a stage or engine fails — these budgets are valid and
/// uncancelled, so a failure is a bug.
#[must_use]
pub fn measure(
    dataset: Dataset,
    budget: &Table3Budget,
    seed: u64,
    eval_threads: usize,
) -> Table3Row {
    let spec = dataset.spec();
    let nsga_cfg = NsgaConfig {
        population: budget.population,
        generations: budget.generations,
        seed,
        ..NsgaConfig::default()
    };
    let ga_cfg = AxTrainConfig {
        fitness_subsample: Some(budget.subsample),
        nsga: nsga_cfg.clone(),
        ..AxTrainConfig::default()
    };
    let pipeline = Study::for_dataset(dataset)
        .config(StudyConfig {
            seed,
            ga: ga_cfg.clone(),
            ..StudyConfig::default()
        })
        .tech(TechLibrary::egfet())
        .finish()
        .expect("table3 budgets are valid");
    let prepared = pipeline.prepare().expect("prepare stage");

    // (1) Gradient training, accuracy objective only: one SGD run at
    // the row's epoch budget (the pipeline's own float stage does
    // best-of-3 restarts, which is not what the paper times here).
    let t0 = Instant::now();
    let mut float_mlp = DenseMlp::random(Topology::new(spec.topology()), seed);
    let _ = SgdTrainer::new(TrainConfig {
        epochs: budget.sgd_epochs,
        seed,
        ..TrainConfig::default()
    })
    .train(
        &mut float_mlp,
        &prepared.float_train.features,
        &prepared.float_train.labels,
    );
    let grad_secs = t0.elapsed().as_secs_f64();

    // Baseline costing through the pipeline stage, reusing the float
    // network trained above.
    let float_test_accuracy =
        float_mlp.accuracy(&prepared.float_test.features, &prepared.float_test.labels);
    let costed = pipeline
        .cost_baseline(FloatTrained {
            prepared,
            float_mlp,
            float_test_accuracy,
        })
        .expect("baseline stage");

    // (2) + (3): both GA trainers through the engine interface.
    let model = pe_hw::ExactCostModel::new(pe_hw::CostScenario::default());
    let ctx = SearchContext {
        eval_threads,
        ..costed.search_context(&model)
    };
    let engines: [Box<dyn SearchEngine>; 2] = [
        Box::new(PlainGaEngine::new(nsga_cfg, Some(budget.subsample))),
        Box::new(NsgaEngine::new(ga_cfg)),
    ];
    let walls: Vec<f64> = engines
        .iter()
        .map(|engine| {
            engine
                .search(&ctx, &RunControl::NONE)
                .unwrap_or_else(|e| panic!("engine {} failed: {e}", engine.name()))
                .ga_wall
                .as_secs_f64()
        })
        .collect();

    Table3Row {
        mlp: spec.name.to_owned(),
        grad_secs,
        ga_secs: walls[0],
        ga_axc_secs: walls[1],
        paper_minutes: paper_minutes(dataset),
    }
}

/// Render the table in the paper's layout.
#[must_use]
pub fn render(rows: &[Table3Row]) -> String {
    let mut body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mlp.clone(),
                format!("{:.2}", r.grad_secs),
                format!("{:.2}", r.ga_secs),
                format!("{:.2}", r.ga_axc_secs),
                format!(
                    "{:.1}/{:.0}/{:.0}",
                    r.paper_minutes.0, r.paper_minutes.1, r.paper_minutes.2
                ),
            ]
        })
        .collect();
    let avg = |f: fn(&Table3Row) -> f64| -> f64 {
        rows.iter().map(f).sum::<f64>() / rows.len().max(1) as f64
    };
    body.push(vec![
        "Average".into(),
        format!("{:.2}", avg(|r| r.grad_secs)),
        format!("{:.2}", avg(|r| r.ga_secs)),
        format!("{:.2}", avg(|r| r.ga_axc_secs)),
        "5/89/100".into(),
    ]);
    render_table(
        "Table III: Training execution times (seconds measured; paper minutes alongside)",
        &[
            "MLP",
            "Grad(s)",
            "GA(s)",
            "GA-AxC(s)",
            "Paper(min g/ga/axc)",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_times_cover_all_datasets() {
        for d in Dataset::ALL {
            let (g, ga, ax) = paper_minutes(d);
            // Paper Table III: gradient is always the fastest; the
            // hardware-aware GA is never faster than the plain GA.
            assert!(g < ga, "{d:?}");
            assert!(ga <= ax, "{d:?}");
        }
    }

    #[test]
    fn quick_budget_is_smaller_than_full() {
        let q = Table3Budget::quick();
        let f = Table3Budget::full();
        assert!(q.sgd_epochs < f.sgd_epochs);
        assert!(q.population * q.generations < f.population * f.generations);
    }

    #[test]
    fn render_appends_average_row() {
        let rows = vec![Table3Row {
            mlp: "X".into(),
            grad_secs: 1.0,
            ga_secs: 10.0,
            ga_axc_secs: 11.0,
            paper_minutes: (1.0, 2.0, 3.0),
        }];
        let out = render(&rows);
        assert!(out.contains("Average"));
        assert!(out.contains("Table III"));
    }
}
