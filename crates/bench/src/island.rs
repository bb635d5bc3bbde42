//! Island-model search scaling curve (`BENCH_islands.json`).
//!
//! Sweeps island count × evaluator worker threads on one dataset at a
//! fixed evaluation budget (same population, same generations — the
//! archipelago splits the population, it never grows it) and records,
//! per cell, the evolution-loop wall clock, the merged front's size
//! and 2-objective hypervolume, and the speedup vs the
//! single-population engine. Every cell's merged front is proven
//! byte-identical across worker counts before the report is written —
//! the determinism contract is part of the benchmark, not a caveat.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use pe_datasets::Dataset;
use printed_axc::{fingerprint_json, Study, TrainingOutcome};

use crate::format::render_table;
use crate::study::{study_config, BudgetPreset, EvalCacheSummary};

/// Island counts the sweep visits (1 = the single-population
/// [`printed_axc::NsgaEngine`] baseline).
pub const ISLAND_COUNTS: [usize; 3] = [1, 2, 4];

/// Evaluator worker budgets the sweep visits (the island scheduler
/// splits each budget between island workers and per-island evaluator
/// threads).
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// One cell of the islands × threads sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IslandCell {
    /// Sub-population count (1 = single-population baseline).
    pub islands: usize,
    /// Total evaluator worker budget for this run.
    pub threads: usize,
    /// Wall clock of the evolution loop proper (the search stage's
    /// `ga_wall`, excluding seeding and hardware analysis).
    pub ga_wall_ms: f64,
    /// Chromosome evaluations spent (identical across the whole sweep
    /// — the budget is fixed by construction).
    pub evaluations: u64,
    /// Designs on the merged true Pareto front.
    pub front_size: usize,
    /// Dominated 2-objective (area, error) hypervolume of the merged
    /// front, against a reference point shared by the whole sweep.
    pub hypervolume: f64,
    /// FNV-1a fingerprint of the full search outcome (timing zeroed):
    /// equal fingerprints = byte-identical merged fronts + history.
    pub outcome_fingerprint: String,
    /// Speedup vs the single-population cell at the *same* thread
    /// budget (the engine-vs-engine comparison).
    pub speedup_vs_single_pop: f64,
    /// Speedup vs the serial single-population cell (islands=1,
    /// threads=1 — the end-to-end scaling curve).
    pub speedup_vs_serial: f64,
    /// The outcome fingerprint matches this island count's cell at
    /// every other thread budget (the determinism invariant).
    pub identical_across_threads: bool,
}

/// The whole sweep, as written to `BENCH_islands.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IslandScalingReport {
    /// Dataset the sweep ran on.
    pub dataset: String,
    /// Master seed of every cell.
    pub seed: u64,
    /// Total population (split across islands, never multiplied).
    pub population: usize,
    /// Generations per island (equal for every cell).
    pub generations: usize,
    /// Migration cadence in completed generations.
    pub migration_every: usize,
    /// Elites each island emits per migration epoch.
    pub migrants: usize,
    /// Hardware threads the host actually exposes — wall-clock speedup
    /// is bounded by this, not by the requested worker budget.
    pub host_threads: usize,
    /// Measurement caveat (single-core hosts cannot show wall-clock
    /// scaling; determinism is the machine-independent claim).
    pub note: String,
    /// The islands × threads grid, in sweep order.
    pub cells: Vec<IslandCell>,
}

/// Run the islands × threads sweep at the given budget.
///
/// # Panics
///
/// Panics if a study fails (the bench presets are valid and nothing
/// cancels them) or if any island count's merged front differs across
/// thread budgets — that would break the determinism contract the
/// island engine is built on.
#[must_use]
pub fn sweep(budget: BudgetPreset, master_seed: u64) -> IslandScalingReport {
    let dataset = Dataset::Pendigits;
    // The preset's single-population config; the builder overrides
    // below pick each cell's island count.
    let config = study_config(budget, master_seed);
    let summary = Arc::new(EvalCacheSummary::default());

    struct Raw {
        islands: usize,
        threads: usize,
        ga_wall_ms: f64,
        outcome: TrainingOutcome,
        fingerprint: u64,
    }
    let mut raws: Vec<Raw> = Vec::new();
    for islands in ISLAND_COUNTS {
        for threads in THREAD_COUNTS {
            let observer = Arc::clone(&summary);
            let pipeline = Study::for_dataset(dataset)
                .config(config.clone())
                .eval_threads(threads)
                .islands(islands)
                .progress(move |event| observer.observe(dataset, event))
                .finish()
                .expect("bench presets are valid");
            let searched = pipeline
                .searched()
                .expect("bench presets are valid and uncancelled");
            let outcome = searched.outcome;
            let ga_wall_ms = outcome.ga_wall.as_secs_f64() * 1e3;
            // Fingerprint everything but the timing: equal hashes mean
            // the merged front, estimated front, history and
            // evaluation count are byte-identical.
            let timeless = TrainingOutcome {
                ga_wall: std::time::Duration::ZERO,
                ..outcome.clone()
            };
            let fingerprint = fingerprint_json(&timeless);
            eprintln!(
                "islands={islands} threads={threads}: ga_wall {ga_wall_ms:.0} ms, \
                 front {}, fingerprint {fingerprint:016x}",
                outcome.front.len(),
            );
            raws.push(Raw {
                islands,
                threads,
                ga_wall_ms,
                outcome,
                fingerprint,
            });
        }
    }
    println!("{}", summary.render());

    // Shared hypervolume reference point: just past the worst corner
    // any cell's front reaches (deterministic — the fronts are).
    let (mut ref_area, mut ref_err) = (0.0_f64, 0.0_f64);
    for raw in &raws {
        for point in &raw.outcome.front {
            ref_area = ref_area.max(point.report.area_cm2);
            ref_err = ref_err.max(1.0 - point.test_accuracy);
        }
    }
    ref_area *= 1.05;
    ref_err = (ref_err + 0.01).min(1.0);

    let wall_of = |islands: usize, threads: usize| {
        raws.iter()
            .find(|r| r.islands == islands && r.threads == threads)
            .map(|r| r.ga_wall_ms)
            .unwrap_or(f64::NAN)
    };
    let serial_wall = wall_of(1, 1);
    let cells: Vec<IslandCell> = raws
        .iter()
        .map(|raw| {
            let identical_across_threads = raws
                .iter()
                .filter(|other| other.islands == raw.islands)
                .all(|other| other.fingerprint == raw.fingerprint);
            IslandCell {
                islands: raw.islands,
                threads: raw.threads,
                ga_wall_ms: raw.ga_wall_ms,
                evaluations: raw.outcome.evaluations,
                front_size: raw.outcome.front.len(),
                hypervolume: hypervolume(&raw.outcome, ref_area, ref_err),
                outcome_fingerprint: format!("{:016x}", raw.fingerprint),
                speedup_vs_single_pop: wall_of(1, raw.threads) / raw.ga_wall_ms.max(1e-9),
                speedup_vs_serial: serial_wall / raw.ga_wall_ms.max(1e-9),
                identical_across_threads,
            }
        })
        .collect();
    assert!(
        cells.iter().all(|c| c.identical_across_threads),
        "island determinism violated: a merged front changed with the worker count",
    );

    let nsga = &config.ga.nsga;
    IslandScalingReport {
        dataset: dataset.spec().short_name.to_owned(),
        seed: master_seed,
        population: nsga.population,
        generations: nsga.generations,
        migration_every: pe_nsga::DEFAULT_MIGRATION_EVERY,
        migrants: pe_nsga::DEFAULT_MIGRANTS,
        host_threads: std::thread::available_parallelism().map_or(1, usize::from),
        note: "wall-clock speedup is bounded by host_threads; on a single-core host the \
               curve is flat and the byte-identical fingerprints are the claim under test"
            .to_owned(),
        cells,
    }
}

/// Dominated 2-objective hypervolume of a front against a reference
/// point, both objectives minimized: area (cm²) and error
/// (1 − test accuracy).
fn hypervolume(outcome: &TrainingOutcome, ref_area: f64, ref_err: f64) -> f64 {
    // Keep the non-dominated subset inside the reference box, sorted
    // by ascending area (ties broken by error).
    let mut points: Vec<(f64, f64)> = outcome
        .front
        .iter()
        .map(|p| (p.report.area_cm2, 1.0 - p.test_accuracy))
        .filter(|&(a, e)| a < ref_area && e < ref_err)
        .collect();
    points.sort_by(|a, b| a.partial_cmp(b).expect("finite objectives"));
    let mut hv = 0.0;
    let mut best_err = f64::INFINITY;
    for i in 0..points.len() {
        let (area, err) = points[i];
        if err >= best_err {
            continue; // dominated by an equal-or-smaller design
        }
        best_err = err;
        // Width up to the next *non-dominated* area (or the reference).
        let next_area = points[i + 1..]
            .iter()
            .find(|&&(_, e)| e < err)
            .map_or(ref_area, |&(a, _)| a);
        hv += (next_area - area) * (ref_err - err);
    }
    hv
}

/// Render the sweep as a table (one row per cell).
#[must_use]
pub fn render(report: &IslandScalingReport) -> String {
    render_table(
        &format!(
            "Island scaling on {} (pop {}, {} gens, migrate every {} x{}; host threads: {})",
            report.dataset,
            report.population,
            report.generations,
            report.migration_every,
            report.migrants,
            report.host_threads,
        ),
        &[
            "Islands",
            "Threads",
            "GA wall (ms)",
            "Front",
            "Hypervolume",
            "Speedup(vs 1-pop)",
            "Speedup(vs serial)",
            "Deterministic",
        ],
        &report
            .cells
            .iter()
            .map(|c| {
                vec![
                    format!("{}", c.islands),
                    format!("{}", c.threads),
                    format!("{:.0}", c.ga_wall_ms),
                    format!("{}", c.front_size),
                    format!("{:.4}", c.hypervolume),
                    format!("{:.2}x", c.speedup_vs_single_pop),
                    format!("{:.2}x", c.speedup_vs_serial),
                    format!("{}", c.identical_across_threads),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_axc::{DesignNetwork, DesignPoint};

    fn outcome_with(points: &[(f64, f64)]) -> TrainingOutcome {
        TrainingOutcome {
            front: points
                .iter()
                .map(|&(area, err)| DesignPoint {
                    network: DesignNetwork::Stochastic,
                    train_accuracy: 1.0 - err,
                    test_accuracy: 1.0 - err,
                    estimated_area: area,
                    report: pe_hw::HardwareReport {
                        name: String::new(),
                        vdd: 0.0,
                        area_cm2: area,
                        power_mw: 0.0,
                        delay_ms: 0.0,
                        cells: pe_hw::CellCounts::default(),
                        critical_fa_depth: 0,
                    },
                })
                .collect(),
            estimated_front: Vec::new(),
            history: Vec::new(),
            evaluations: 0,
            ga_wall: std::time::Duration::ZERO,
        }
    }

    #[test]
    fn hypervolume_of_a_staircase_front() {
        // Two non-dominated points + one dominated straggler against
        // the (10, 1.0) reference box.
        let outcome = outcome_with(&[(2.0, 0.5), (4.0, 0.2), (5.0, 0.4)]);
        let hv = hypervolume(&outcome, 10.0, 1.0);
        // (4-2)*(1-0.5) + (10-4)*(1-0.2) = 1.0 + 4.8
        assert!((hv - 5.8).abs() < 1e-9, "hv {hv}");
    }

    #[test]
    fn hypervolume_ignores_points_outside_the_reference_box() {
        let outcome = outcome_with(&[(12.0, 0.1), (2.0, 1.5)]);
        assert_eq!(hypervolume(&outcome, 10.0, 1.0), 0.0);
    }

    #[test]
    fn render_reports_every_cell() {
        let report = IslandScalingReport {
            dataset: "PD".into(),
            seed: 0,
            population: 32,
            generations: 24,
            migration_every: 5,
            migrants: 2,
            host_threads: 1,
            note: String::new(),
            cells: vec![IslandCell {
                islands: 2,
                threads: 8,
                ga_wall_ms: 123.0,
                evaluations: 800,
                front_size: 7,
                hypervolume: 1.5,
                outcome_fingerprint: "00".into(),
                speedup_vs_single_pop: 1.9,
                speedup_vs_serial: 2.1,
                identical_across_threads: true,
            }],
        };
        let table = render(&report);
        assert!(table.contains("1.90x"), "{table}");
        assert!(table.contains("true"), "{table}");
    }
}
