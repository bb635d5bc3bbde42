//! Ablation studies for the design choices DESIGN.md §5 calls out.
//!
//! * [`doping`] — doped vs purely random initial populations: doping
//!   should reach the high-accuracy end of the front much earlier.
//! * [`objective`] — the paper's FA-count area proxy vs the full
//!   gate-equivalent objective, compared as two [`NsgaEngine`]
//!   configurations through the generic engine interface.
//! * [`fa_vs_netlist`] — the FA-count training proxy vs the full
//!   netlist cost: the proxy must rank designs consistently with the
//!   elaborated circuit (Spearman-style concordance).
//!
//! Data preparation runs through the staged pipeline (`prepare` /
//! `train_float` / `cost_baseline`), so the ablations see exactly the
//! splits and baselines the main experiments use.

use serde::{Deserialize, Serialize};

use pe_datasets::Dataset;
use pe_hw::{Elaborator, TechLibrary};
use pe_mlp::{ax_to_hardware, DenseMlp, QuantMatrix, SgdTrainer, Topology, TrainConfig};
use pe_nsga::{Nsga2, NsgaConfig};
use printed_axc::{
    doped_seeds, select_within_loss, AreaObjective, AxTrainConfig, AxTrainProblem, FloatTrained,
    HwAwareTrainer, NsgaEngine, RunControl, SearchContext, SearchEngine, Study, StudyConfig,
};

use crate::format::render_table;

/// The study configuration the ablations prepare data with.
fn ablation_config(seed: u64, ga: AxTrainConfig) -> StudyConfig {
    StudyConfig {
        seed,
        ga,
        sgd_epochs_scale: 0.4,
        ..StudyConfig::default()
    }
}

/// Result of the doping ablation on one dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DopingResult {
    /// Dataset code.
    pub dataset: String,
    /// Best training accuracy in the final front, doped init.
    pub doped_best_accuracy: f64,
    /// Best training accuracy in the final front, random init.
    pub random_best_accuracy: f64,
    /// First generation at which a feasible (within the 10% bound)
    /// candidate appeared, doped init (`None` = never).
    pub doped_first_feasible_gen: Option<usize>,
    /// Same for random init.
    pub random_first_feasible_gen: Option<usize>,
}

/// Run the doping ablation.
///
/// # Panics
///
/// Panics if a pipeline stage fails (valid configs, nothing cancels).
#[must_use]
pub fn doping(dataset: Dataset, population: usize, generations: usize, seed: u64) -> DopingResult {
    let spec = dataset.spec();
    let cfg = AxTrainConfig {
        fitness_subsample: Some(500),
        nsga: NsgaConfig {
            population,
            generations,
            seed,
            ..NsgaConfig::default()
        },
        ..AxTrainConfig::default()
    };
    let pipeline = Study::for_dataset(dataset)
        .config(ablation_config(seed, cfg.clone()))
        .tech(TechLibrary::egfet())
        .finish()
        .expect("valid ablation config");
    let prepared = pipeline.prepare().expect("prepare stage");

    // A deliberately weak float baseline (single short SGD run): the
    // ablation wants a GA problem with headroom, not a polished start.
    let mut float_mlp = DenseMlp::random(Topology::new(spec.topology()), seed);
    let _ = SgdTrainer::new(TrainConfig {
        epochs: 60,
        seed,
        ..TrainConfig::default()
    })
    .train(
        &mut float_mlp,
        &prepared.float_train.features,
        &prepared.float_train.labels,
    );
    let float_test_accuracy =
        float_mlp.accuracy(&prepared.float_test.features, &prepared.float_test.labels);
    let costed = pipeline
        .cost_baseline(FloatTrained {
            prepared,
            float_mlp,
            float_test_accuracy,
        })
        .expect("baseline stage");
    let train = &costed.float.prepared.train;
    let baseline = &costed.baseline;

    let trainer = HwAwareTrainer::new(cfg.clone());
    let genome = trainer.genome_spec_for(baseline);
    let n = 500.min(train.len());
    let problem = AxTrainProblem::new(
        genome.clone(),
        train.features.head(n),
        train.labels[..n].to_vec(),
        costed.baseline_train_accuracy,
        cfg.max_accuracy_loss,
    );
    let floor = problem.accuracy_floor();

    let run = |seeds: Vec<Vec<u32>>| {
        let mut first_feasible = None;
        let result = Nsga2::new(cfg.nsga.clone()).run_seeded(&problem, seeds, |s| {
            if first_feasible.is_none() && 1.0 - s.best_objectives[0] + 1e-12 >= floor {
                first_feasible = Some(s.generation);
            }
        });
        let best = result
            .pareto_front
            .iter()
            .map(|i| 1.0 - i.evaluation.objectives[0])
            .fold(0.0f64, f64::max);
        (best, first_feasible)
    };

    let doped = run(doped_seeds(
        &genome,
        baseline,
        cfg.max_shift(),
        cfg.bias_bits,
        population / 10 + 1,
        seed,
        &QuantMatrix::default(),
        None,
    ));
    let random = run(Vec::new());

    DopingResult {
        dataset: spec.short_name.to_owned(),
        doped_best_accuracy: doped.0,
        doped_first_feasible_gen: doped.1,
        random_best_accuracy: random.0,
        random_first_feasible_gen: random.1,
    }
}

/// Render the doping ablation.
#[must_use]
pub fn render_doping(rows: &[DopingResult]) -> String {
    render_table(
        "Ablation: doped (~10% near-exact) vs random initialization",
        &[
            "Dataset",
            "doped best acc",
            "random best acc",
            "doped 1st feasible",
            "random 1st feasible",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    format!("{:.3}", r.doped_best_accuracy),
                    format!("{:.3}", r.random_best_accuracy),
                    r.doped_first_feasible_gen
                        .map_or("never".into(), |g| g.to_string()),
                    r.random_first_feasible_gen
                        .map_or("never".into(), |g| g.to_string()),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Result of the area-objective ablation on one dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectiveResult {
    /// Dataset code.
    pub dataset: String,
    /// Selected-design area (cm²) under the paper's FA-count objective.
    pub fa_count_area: Option<f64>,
    /// Selected-design area (cm²) under the gate-equivalent objective.
    pub gate_equiv_area: Option<f64>,
    /// Selected-design accuracy under the FA-count objective.
    pub fa_count_accuracy: Option<f64>,
    /// Selected-design accuracy under the gate-equivalent objective.
    pub gate_equiv_accuracy: Option<f64>,
}

/// Compare the paper's FA-count objective against the full
/// gate-equivalent objective at a fixed GA budget: the same
/// [`NsgaEngine`] run twice through the generic engine interface, with
/// only `config.objective` differing. `eval_threads` is the engines'
/// batch-evaluation worker budget (results never depend on it).
///
/// # Panics
///
/// Panics if a stage or engine fails (valid configs, nothing cancels).
#[must_use]
pub fn objective(
    dataset: Dataset,
    population: usize,
    generations: usize,
    seed: u64,
    eval_threads: usize,
) -> ObjectiveResult {
    let spec = dataset.spec();
    let cfg = AxTrainConfig {
        fitness_subsample: Some(800),
        nsga: NsgaConfig {
            population,
            generations,
            seed,
            ..NsgaConfig::default()
        },
        ..AxTrainConfig::default()
    };
    let study_cfg = ablation_config(seed, cfg.clone());
    let loss_budget = study_cfg.accuracy_loss_budget;
    let pipeline = Study::for_dataset(dataset)
        .config(study_cfg)
        .tech(TechLibrary::egfet())
        .finish()
        .expect("valid ablation config");
    let costed = pipeline.baseline_costed().expect("stages 1-3");

    let model = pe_hw::ExactCostModel::new(pe_hw::CostScenario::default());
    let ctx = SearchContext {
        eval_threads,
        ..costed.search_context(&model)
    };

    let run = |objective: AreaObjective| {
        let engine = NsgaEngine::new(AxTrainConfig {
            objective,
            ..cfg.clone()
        });
        let outcome = engine
            .search(&ctx, &RunControl::NONE)
            .unwrap_or_else(|e| panic!("engine {} failed: {e}", engine.name()));
        select_within_loss(&outcome.front, costed.baseline_test_accuracy, loss_budget)
            .map(|d| (d.report.area_cm2, d.test_accuracy))
    };

    let fa = run(AreaObjective::FaCount);
    let ge = run(AreaObjective::GateEquivalents);
    ObjectiveResult {
        dataset: spec.short_name.to_owned(),
        fa_count_area: fa.map(|x| x.0),
        fa_count_accuracy: fa.map(|x| x.1),
        gate_equiv_area: ge.map(|x| x.0),
        gate_equiv_accuracy: ge.map(|x| x.1),
    }
}

/// Render the objective ablation.
#[must_use]
pub fn render_objective(rows: &[ObjectiveResult]) -> String {
    render_table(
        "Ablation: FA-count (paper Eq. 2) vs gate-equivalent area objective",
        &[
            "Dataset",
            "FA-count area",
            "GE area",
            "FA-count acc",
            "GE acc",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.fa_count_area.map_or("-".into(), |v| format!("{v:.3}")),
                    r.gate_equiv_area.map_or("-".into(), |v| format!("{v:.3}")),
                    r.fa_count_accuracy
                        .map_or("-".into(), |v| format!("{v:.3}")),
                    r.gate_equiv_accuracy
                        .map_or("-".into(), |v| format!("{v:.3}")),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Result of the estimator-vs-netlist concordance probe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProxyConcordance {
    /// Number of sampled design pairs.
    pub pairs: usize,
    /// Fraction of pairs ranked identically by the FA proxy and the
    /// elaborated circuit area.
    pub concordant_fraction: f64,
    /// Mean relative gap between proxy-implied and elaborated area
    /// ratios.
    pub mean_ratio_gap: f64,
}

/// Sample random genomes of a dataset's genome space and compare the
/// FA-count proxy's ranking with the full netlist cost's ranking.
///
/// # Panics
///
/// Panics if a pipeline stage fails (valid configs, nothing cancels).
#[must_use]
pub fn fa_vs_netlist(dataset: Dataset, samples: usize, seed: u64) -> ProxyConcordance {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let spec = dataset.spec();
    let pipeline = Study::for_dataset(dataset)
        .config(ablation_config(seed, AxTrainConfig::default()))
        .tech(TechLibrary::egfet())
        .finish()
        .expect("valid ablation config");
    let prepared = pipeline.prepare().expect("prepare stage");

    let mut float_mlp = DenseMlp::random(Topology::new(spec.topology()), seed);
    let _ = SgdTrainer::new(TrainConfig {
        epochs: 20,
        seed,
        ..TrainConfig::default()
    })
    .train(
        &mut float_mlp,
        &prepared.float_train.features,
        &prepared.float_train.labels,
    );
    let float_test_accuracy =
        float_mlp.accuracy(&prepared.float_test.features, &prepared.float_test.labels);
    let costed = pipeline
        .cost_baseline(FloatTrained {
            prepared,
            float_mlp,
            float_test_accuracy,
        })
        .expect("baseline stage");

    let trainer = HwAwareTrainer::new(AxTrainConfig::default());
    let genome = trainer.genome_spec_for(&costed.baseline);
    let elab = Elaborator::new(TechLibrary::egfet());
    let mut heights = Vec::new();

    let mut rng = StdRng::seed_from_u64(seed ^ 0xb5ad_4ece_da1c_e2a9);
    let mut points: Vec<(f64, f64)> = Vec::with_capacity(samples);
    for i in 0..samples {
        let genes = pe_nsga::random_genome(genome.bounds(), &mut rng);
        let mlp = genome.decode(&genes);
        let proxy: f64 = mlp
            .arith_specs()
            .iter()
            .flatten()
            .map(|spec| {
                pe_arith::tree_gates(spec, &mut heights)
                    .counts
                    .fa_equivalent()
            })
            .sum();
        let area = elab
            .elaborate(&ax_to_hardware(&mlp, format!("probe{i}")))
            .report
            .area_cm2;
        points.push((proxy, area));
    }

    let mut concordant = 0usize;
    let mut pairs = 0usize;
    let mut gap_sum = 0.0f64;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            let (p1, a1) = points[i];
            let (p2, a2) = points[j];
            if (p1 - p2).abs() < 1e-9 || (a1 - a2).abs() < 1e-12 {
                continue;
            }
            pairs += 1;
            if (p1 < p2) == (a1 < a2) {
                concordant += 1;
            }
            let pr = (p1.max(1e-9) / p2.max(1e-9)).ln().abs();
            let ar = (a1 / a2).ln().abs();
            gap_sum += (pr - ar).abs();
        }
    }
    ProxyConcordance {
        pairs,
        concordant_fraction: if pairs == 0 {
            1.0
        } else {
            concordant as f64 / pairs as f64
        },
        mean_ratio_gap: if pairs == 0 {
            0.0
        } else {
            gap_sum / pairs as f64
        },
    }
}

/// Render the proxy-concordance ablation.
#[must_use]
pub fn render_concordance(dataset: &str, c: &ProxyConcordance) -> String {
    render_table(
        "Ablation: FA-count training proxy vs elaborated netlist area",
        &["Dataset", "pairs", "concordant", "mean log-ratio gap"],
        &[vec![
            dataset.to_owned(),
            c.pairs.to_string(),
            format!("{:.3}", c.concordant_fraction),
            format!("{:.3}", c.mean_ratio_gap),
        ]],
    )
}
