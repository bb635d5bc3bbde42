//! The NSGA-II main loop.
//!
//! Elitist (μ+λ) evolution with non-dominated sorting, crowding-
//! distance truncation and binary tournaments, as in Deb et al. (2002)
//! — the algorithm the paper picked for its "simplicity, low
//! computational complexity, and enhanced convergence" (§IV-A).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::individual::Individual;
use crate::operators::{crossover, mutate_mixed, random_genome, CrossoverKind};
use crate::problem::IntProblem;
use crate::sort::{annotate, select_mu};

/// NSGA-II hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NsgaConfig {
    /// Population size μ (kept constant across generations).
    pub population: usize,
    /// Number of generations to evolve.
    pub generations: usize,
    /// Probability that a mating pair undergoes crossover.
    pub crossover_prob: f64,
    /// Per-gene mutation probability.
    pub mutation_prob: f64,
    /// Fraction of mutations that are ±1 creep steps instead of uniform
    /// resets (see [`crate::operators::mutate_mixed`]).
    pub creep_fraction: f64,
    /// Crossover flavour.
    pub crossover_kind: CrossoverKind,
    /// RNG seed: runs are fully reproducible.
    pub seed: u64,
}

impl Default for NsgaConfig {
    /// The paper's operator rates: crossover 0.7, mutation 0.2
    /// (interpreted per mating / scaled per gene as is standard), with
    /// a moderate default budget.
    fn default() -> Self {
        Self {
            population: 100,
            generations: 100,
            crossover_prob: 0.7,
            mutation_prob: 0.02,
            creep_fraction: 0.5,
            crossover_kind: CrossoverKind::Uniform,
            seed: 0,
        }
    }
}

/// Per-generation progress snapshot handed to the observer callback.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// Generation index (0-based).
    pub generation: usize,
    /// Size of the current first front.
    pub front_size: usize,
    /// Best (minimum) value of each objective in the population.
    pub best_objectives: Vec<f64>,
    /// Number of evaluations performed so far.
    pub evaluations: u64,
}

/// Result of an NSGA-II run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NsgaResult {
    /// Final population (rank/crowding annotated).
    pub population: Vec<Individual>,
    /// The final first (non-dominated) front.
    pub pareto_front: Vec<Individual>,
    /// Total candidate evaluations, including the initial population.
    pub evaluations: u64,
    /// Generations executed.
    pub generations: usize,
}

/// A serializable snapshot of a run taken right after a completed
/// generation. Restoring it (see [`Nsga2::run_checkpointed`]) resumes
/// the evolution bit-exactly: the population, the RNG stream position
/// and the evaluation counter all continue where the snapshot left off,
/// so a killed-and-resumed run is byte-identical to an uninterrupted
/// one.
///
/// The population's rank/crowding annotations are part of the snapshot
/// and are restored verbatim: survivors carry annotations computed
/// over the full (μ+λ) selection pool, which the μ survivors alone
/// cannot reproduce, and the next generation's tournaments depend on
/// them. The one JSON wrinkle — front-boundary points' `+∞` crowding
/// renders as `null` — is reversed on resume (crowding is never NaN
/// and never `-∞`, so the mapping is lossless).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchCheckpoint {
    /// The configuration of the run that produced this snapshot. A
    /// checkpoint only resumes a run with an identical configuration.
    pub config: NsgaConfig,
    /// Generations completed when the snapshot was taken (1-based:
    /// after generation index `g` completes this is `g + 1`).
    pub generation: usize,
    /// xoshiro256\*\* stream state at the snapshot point.
    pub rng_state: [u64; 4],
    /// Candidate evaluations performed so far.
    pub evaluations: u64,
    /// The surviving population after `generation` generations.
    pub population: Vec<Individual>,
    /// Per-generation stats emitted so far (one per completed
    /// generation), so observers of a resumed run can reconstruct the
    /// full history.
    pub history: Vec<GenerationStats>,
}

impl SearchCheckpoint {
    /// Check that this snapshot can resume a run of `config` over a
    /// problem with the given `bounds`. Returns a human-readable reason
    /// when it cannot (mismatched configuration, wrong population
    /// shape, inconsistent counters, torn data, a NaN objective or
    /// violation, or members with differing objective counts).
    ///
    /// # Errors
    ///
    /// Returns the first integrity violation found.
    pub fn validate(&self, config: &NsgaConfig, bounds: &[u32]) -> Result<(), String> {
        if self.config != *config {
            return Err("checkpoint was taken under a different configuration".into());
        }
        if self.generation == 0 || self.generation > config.generations {
            return Err(format!(
                "checkpoint generation {} outside 1..={}",
                self.generation, config.generations
            ));
        }
        if self.population.len() != config.population {
            return Err(format!(
                "checkpoint population {} != configured {}",
                self.population.len(),
                config.population
            ));
        }
        let objectives = self
            .population
            .first()
            .map_or(0, |ind| ind.evaluation.objectives.len());
        for ind in &self.population {
            if ind.genes.len() != bounds.len() {
                return Err(format!(
                    "checkpoint genome length {} != problem arity {}",
                    ind.genes.len(),
                    bounds.len()
                ));
            }
            if ind.genes.iter().zip(bounds).any(|(&g, &b)| g >= b) {
                return Err("checkpoint genome exceeds problem bounds".into());
            }
            let evaluation = &ind.evaluation;
            if evaluation.objectives.len() != objectives {
                return Err(format!(
                    "checkpoint objective count {} != first member's {objectives}",
                    evaluation.objectives.len()
                ));
            }
            // JSON has no NaN: a `null` objective or violation reads as
            // one, and selection cannot order it.
            if evaluation.violation.is_nan() || evaluation.objectives.iter().any(|v| v.is_nan()) {
                return Err(
                    "checkpoint evaluation holds a NaN (a null objective or violation)".into(),
                );
            }
        }
        if self.rng_state == [0; 4] {
            return Err("checkpoint RNG state is degenerate (all zero)".into());
        }
        if self.history.len() != self.generation {
            return Err(format!(
                "checkpoint history length {} != generation {}",
                self.history.len(),
                self.generation
            ));
        }
        let expected_evals = (self.generation as u64 + 1) * config.population as u64;
        if self.evaluations != expected_evals {
            return Err(format!(
                "checkpoint evaluations {} != expected {expected_evals}",
                self.evaluations
            ));
        }
        Ok(())
    }
}

/// Destination for [`SearchCheckpoint`]s emitted mid-run (a file, a
/// test buffer, …). Implementations must not assume they are called at
/// any particular cadence.
pub trait CheckpointSink {
    /// Persist one snapshot. Failures must be handled internally —
    /// checkpointing is best-effort durability and must never abort the
    /// search itself.
    fn save(&self, checkpoint: &SearchCheckpoint);
}

/// Cadence and destination for mid-run checkpointing.
#[derive(Clone, Copy)]
pub struct CheckpointPlan<'a> {
    /// Emit a snapshot every this many completed generations (`0`
    /// disables cadence-driven snapshots; a stop requested by the
    /// observer and the final generation still flush one).
    pub every: usize,
    /// Where snapshots go.
    pub sink: &'a dyn CheckpointSink,
}

impl std::fmt::Debug for CheckpointPlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointPlan")
            .field("every", &self.every)
            .finish_non_exhaustive()
    }
}

/// The NSGA-II optimizer.
#[derive(Debug, Clone)]
pub struct Nsga2 {
    config: NsgaConfig,
}

impl Nsga2 {
    /// Optimizer with the given configuration.
    #[must_use]
    pub fn new(config: NsgaConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &NsgaConfig {
        &self.config
    }

    /// Run the optimizer with a randomly initialized population.
    pub fn run<P: IntProblem>(&self, problem: &P) -> NsgaResult {
        self.run_seeded(problem, Vec::new(), |_| {})
    }

    /// Run with an initial (possibly partial) seed population and a
    /// per-generation observer.
    ///
    /// `seeds` genomes are injected verbatim (truncated to the
    /// population size); the remainder is drawn uniformly — this is the
    /// hook the paper's "doped" initialization uses (§IV-A: ~10%
    /// nearly non-approximate chromosomes).
    ///
    /// # Panics
    ///
    /// Panics if the population size is zero or a seed genome has the
    /// wrong length.
    pub fn run_seeded<P: IntProblem, F: FnMut(&GenerationStats)>(
        &self,
        problem: &P,
        seeds: Vec<Vec<u32>>,
        mut observer: F,
    ) -> NsgaResult {
        self.run_controlled(problem, seeds, |stats| {
            observer(stats);
            true
        })
    }

    /// Like [`run_seeded`](Self::run_seeded), but the observer also
    /// steers the run: returning `false` stops the evolution after the
    /// current generation (cooperative cancellation).
    ///
    /// The result's `generations` field records how many generations
    /// actually executed; up to that point the run is bit-identical to
    /// an uncancelled one.
    ///
    /// # Panics
    ///
    /// Panics if the population size is zero or a seed genome has the
    /// wrong length.
    pub fn run_controlled<P: IntProblem, F: FnMut(&GenerationStats) -> bool>(
        &self,
        problem: &P,
        seeds: Vec<Vec<u32>>,
        observer: F,
    ) -> NsgaResult {
        self.run_checkpointed(problem, seeds, None, None, observer)
    }

    /// Like [`run_controlled`](Self::run_controlled), plus crash-safe
    /// checkpointing: when `resume` carries a [`SearchCheckpoint`] the
    /// run skips the already-completed generations and continues the
    /// RNG stream, population and evaluation counter exactly where the
    /// snapshot was taken — the resumed run is bit-identical to an
    /// uninterrupted one. When `plan` is set, a snapshot is emitted
    /// through its sink every `plan.every` completed generations, after
    /// the final generation, and whenever the observer requests a stop
    /// (so a cancelled run resumes where it stopped).
    ///
    /// The observer only sees generations actually executed in this
    /// call; replayed history is available in `resume.history`.
    ///
    /// # Panics
    ///
    /// Panics if the population size is below 2, a seed genome has the
    /// wrong length, or `resume` fails [`SearchCheckpoint::validate`]
    /// against this configuration and problem (callers wanting
    /// fallback-to-fresh behaviour should validate before passing it).
    pub fn run_checkpointed<P: IntProblem, F: FnMut(&GenerationStats) -> bool>(
        &self,
        problem: &P,
        seeds: Vec<Vec<u32>>,
        resume: Option<SearchCheckpoint>,
        plan: Option<CheckpointPlan<'_>>,
        mut observer: F,
    ) -> NsgaResult {
        let cfg = &self.config;
        assert!(cfg.population >= 2, "population must be at least 2");
        let bounds = problem.bounds().to_vec();

        let (mut pop, mut rng, mut evaluations, mut history, start);
        if let Some(cp) = resume {
            cp.validate(cfg, &bounds)
                .unwrap_or_else(|reason| panic!("invalid checkpoint: {reason}"));
            rng = StdRng::from_state(cp.rng_state);
            evaluations = cp.evaluations;
            start = cp.generation;
            history = cp.history;
            pop = cp.population;
            for ind in &mut pop {
                // A front-boundary point's +∞ crowding renders as JSON
                // null and deserializes as NaN; map it back so the
                // restored annotations equal the snapshot's exactly.
                if ind.crowding.is_nan() {
                    ind.crowding = f64::INFINITY;
                }
            }
        } else {
            rng = StdRng::seed_from_u64(cfg.seed ^ 0x6c62_272e_07bb_0142);
            evaluations = 0u64;
            start = 0;
            history = Vec::new();

            // Initial population: seeds first, random fill after. All
            // genomes are generated first, then scored as one batch — the
            // RNG stream (and therefore the run) is identical to scoring
            // them one by one, but problems with a fast bulk path (see
            // [`IntProblem::evaluate_batch`]) get the whole wave at once.
            let mut genomes: Vec<Vec<u32>> = Vec::with_capacity(cfg.population);
            for genes in seeds.into_iter().take(cfg.population) {
                assert_eq!(genes.len(), bounds.len(), "seed genome length mismatch");
                genomes.push(genes);
            }
            while genomes.len() < cfg.population {
                genomes.push(random_genome(&bounds, &mut rng));
            }
            pop = evaluate_wave(problem, genomes, &mut evaluations);
            annotate(&mut pop);
        }

        let mut executed = start;
        for generation in start..cfg.generations {
            // Offspring via binary tournaments + crossover + mutation;
            // the wave is bred first, then evaluated as one batch.
            let mut offspring_genomes: Vec<Vec<u32>> = Vec::with_capacity(cfg.population);
            while offspring_genomes.len() < cfg.population {
                let p1 = tournament(&pop, &mut rng);
                let p2 = tournament(&pop, &mut rng);
                let (mut c1, mut c2) = if rng.gen_bool(cfg.crossover_prob.clamp(0.0, 1.0)) {
                    crossover(cfg.crossover_kind, &pop[p1].genes, &pop[p2].genes, &mut rng)
                } else {
                    (pop[p1].genes.clone(), pop[p2].genes.clone())
                };
                mutate_mixed(
                    &mut c1,
                    &bounds,
                    cfg.mutation_prob,
                    cfg.creep_fraction,
                    &mut rng,
                );
                mutate_mixed(
                    &mut c2,
                    &bounds,
                    cfg.mutation_prob,
                    cfg.creep_fraction,
                    &mut rng,
                );
                offspring_genomes.push(c1);
                if offspring_genomes.len() < cfg.population {
                    offspring_genomes.push(c2);
                }
            }
            let offspring = evaluate_wave(problem, offspring_genomes, &mut evaluations);

            // Environmental selection over parents + offspring.
            pop.extend(offspring);
            pop = select_mu(pop, cfg.population);

            let front_size = pop.iter().filter(|i| i.rank == 0).count();
            let m = pop[0].evaluation.objectives.len();
            let best_objectives: Vec<f64> = (0..m)
                .map(|obj| {
                    pop.iter()
                        .map(|i| i.evaluation.objectives[obj])
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            executed = generation + 1;
            let stats = GenerationStats {
                generation,
                front_size,
                best_objectives,
                evaluations,
            };
            history.push(stats.clone());
            let keep_going = observer(&stats);
            if let Some(plan) = plan {
                let due = plan.every > 0 && executed % plan.every == 0;
                let stopping = !keep_going || executed == cfg.generations;
                if due || stopping {
                    plan.sink.save(&SearchCheckpoint {
                        config: cfg.clone(),
                        generation: executed,
                        rng_state: rng.state(),
                        evaluations,
                        population: pop.clone(),
                        history: history.clone(),
                    });
                }
            }
            if !keep_going {
                break;
            }
        }

        let pareto_front: Vec<Individual> = pop.iter().filter(|i| i.rank == 0).cloned().collect();
        NsgaResult {
            population: pop,
            pareto_front,
            evaluations,
            generations: executed,
        }
    }
}

/// Score one wave of genomes through [`IntProblem::evaluate_batch`]
/// and account every genome as one evaluation (cache hits inside a
/// batching problem do not reduce the count: `evaluations` reports
/// candidate evaluations requested, not inner-problem work performed).
///
/// # Panics
///
/// Panics if the problem's `evaluate_batch` returns the wrong number
/// of evaluations.
fn evaluate_wave<P: IntProblem>(
    problem: &P,
    genomes: Vec<Vec<u32>>,
    evaluations: &mut u64,
) -> Vec<Individual> {
    let evals = problem.evaluate_batch(&genomes);
    assert_eq!(
        evals.len(),
        genomes.len(),
        "evaluate_batch must return one Evaluation per genome"
    );
    *evaluations += genomes.len() as u64;
    genomes
        .into_iter()
        .zip(evals)
        .map(|(genes, e)| Individual::new(genes, e))
        .collect()
}

/// Binary tournament by the crowded-comparison operator.
fn tournament(pop: &[Individual], rng: &mut StdRng) -> usize {
    let a = rng.gen_range(0..pop.len());
    let b = rng.gen_range(0..pop.len());
    if pop[a].beats(&pop[b]) {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Evaluation;

    /// Minimize (x - 30)² and (x - 70)² over a single gene: the Pareto
    /// set is exactly 30..=70.
    struct TwoHumps {
        bounds: Vec<u32>,
    }

    impl IntProblem for TwoHumps {
        fn bounds(&self) -> &[u32] {
            &self.bounds
        }
        fn evaluate(&self, genes: &[u32]) -> Evaluation {
            let x = f64::from(genes[0]);
            Evaluation::feasible(vec![(x - 30.0).powi(2), (x - 70.0).powi(2)])
        }
    }

    #[test]
    fn converges_to_the_pareto_segment() {
        let problem = TwoHumps { bounds: vec![101] };
        let result = Nsga2::new(NsgaConfig {
            population: 40,
            generations: 60,
            mutation_prob: 0.2,
            ..NsgaConfig::default()
        })
        .run(&problem);
        assert!(!result.pareto_front.is_empty());
        // Every front member should be inside (or adjacent to) [30, 70].
        for ind in &result.pareto_front {
            let x = ind.genes[0];
            assert!((29..=71).contains(&x), "x = {x}");
        }
        // The front should spread across the segment, not collapse.
        let xs: Vec<u32> = result.pareto_front.iter().map(|i| i.genes[0]).collect();
        let spread = xs.iter().max().unwrap() - xs.iter().min().unwrap();
        assert!(spread >= 20, "front collapsed: {xs:?}");
    }

    #[test]
    fn runs_are_reproducible() {
        let problem = TwoHumps { bounds: vec![101] };
        let cfg = NsgaConfig {
            population: 16,
            generations: 10,
            ..NsgaConfig::default()
        };
        let a = Nsga2::new(cfg.clone()).run(&problem);
        let b = Nsga2::new(cfg).run(&problem);
        assert_eq!(a.population, b.population);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn seeding_injects_genomes() {
        struct CountFirstGene;
        impl IntProblem for CountFirstGene {
            fn bounds(&self) -> &[u32] {
                const B: [u32; 1] = [1000];
                &B
            }
            fn evaluate(&self, genes: &[u32]) -> Evaluation {
                Evaluation::feasible(vec![f64::from(genes[0]), -f64::from(genes[0])])
            }
        }
        let problem = CountFirstGene;
        let mut seen_zero_gen_stats = Vec::new();
        let result = Nsga2::new(NsgaConfig {
            population: 10,
            generations: 1,
            mutation_prob: 0.0,
            crossover_prob: 0.0,
            ..NsgaConfig::default()
        })
        .run_seeded(&problem, vec![vec![999]], |s| {
            seen_zero_gen_stats.push(s.clone())
        });
        // The seeded genome minimizes objective 1; it must survive elitism.
        assert!(result.population.iter().any(|i| i.genes == vec![999]));
        assert_eq!(seen_zero_gen_stats.len(), 1);
    }

    #[test]
    fn controlled_run_stops_when_the_observer_says_so() {
        let problem = TwoHumps { bounds: vec![101] };
        let cfg = NsgaConfig {
            population: 10,
            generations: 50,
            ..NsgaConfig::default()
        };
        let result = Nsga2::new(cfg.clone()).run_controlled(&problem, Vec::new(), |s| {
            s.generation < 3 // continue through generations 0..=3
        });
        assert_eq!(result.generations, 4);
        assert_eq!(result.evaluations, 10 + 4 * 10);
        assert!(!result.pareto_front.is_empty());

        // The prefix of a cancelled run matches the uncancelled run.
        let mut full_gen3 = None;
        let full = Nsga2::new(cfg).run_seeded(&problem, Vec::new(), |s| {
            if s.generation == 3 {
                full_gen3 = Some(s.clone());
            }
        });
        assert_eq!(full.generations, 50);
        assert_eq!(
            full_gen3.expect("generation 3 observed").evaluations,
            result.evaluations
        );
    }

    /// Test sink: captures every snapshot in order.
    #[derive(Default)]
    struct Capture(std::cell::RefCell<Vec<SearchCheckpoint>>);

    impl CheckpointSink for Capture {
        fn save(&self, checkpoint: &SearchCheckpoint) {
            self.0.borrow_mut().push(checkpoint.clone());
        }
    }

    #[test]
    fn resume_from_every_checkpoint_matches_the_uninterrupted_run() {
        let problem = TwoHumps { bounds: vec![101] };
        let cfg = NsgaConfig {
            population: 12,
            generations: 9,
            ..NsgaConfig::default()
        };
        let sink = Capture::default();
        let plan = CheckpointPlan {
            every: 1,
            sink: &sink,
        };
        let baseline = Nsga2::new(cfg.clone()).run_checkpointed(
            &problem,
            Vec::new(),
            None,
            Some(plan),
            |_| true,
        );
        let checkpoints = sink.0.into_inner();
        assert_eq!(checkpoints.len(), cfg.generations);

        for cp in checkpoints {
            // Round-trip through JSON: the persisted form (with its
            // null-ed infinite crowding values) must resume exactly.
            let json = serde_json::to_string(&cp).expect("checkpoint serializes");
            let restored: SearchCheckpoint = serde_json::from_str(&json).expect("round-trips");
            restored
                .validate(&cfg, &[101])
                .expect("round-tripped checkpoint is valid");
            let resumed = Nsga2::new(cfg.clone()).run_checkpointed(
                &problem,
                Vec::new(),
                Some(restored),
                None,
                |_| true,
            );
            assert_eq!(resumed.population, baseline.population);
            assert_eq!(resumed.pareto_front, baseline.pareto_front);
            assert_eq!(resumed.evaluations, baseline.evaluations);
            assert_eq!(resumed.generations, baseline.generations);
        }
    }

    #[test]
    fn observer_stop_flushes_a_final_checkpoint() {
        let problem = TwoHumps { bounds: vec![101] };
        let cfg = NsgaConfig {
            population: 10,
            generations: 50,
            ..NsgaConfig::default()
        };
        // Cadence would fire at 10, 20, …; the stop after generation
        // index 2 must flush a snapshot anyway.
        let sink = Capture::default();
        let plan = CheckpointPlan {
            every: 10,
            sink: &sink,
        };
        let stopped =
            Nsga2::new(cfg.clone())
                .run_checkpointed(&problem, Vec::new(), None, Some(plan), |s| s.generation < 2);
        assert_eq!(stopped.generations, 3);
        let checkpoints = sink.0.into_inner();
        assert_eq!(checkpoints.len(), 1);
        let cp = checkpoints.into_iter().next().expect("one checkpoint");
        assert_eq!(cp.generation, 3);
        assert_eq!(cp.history.len(), 3);
        assert_eq!(cp.evaluations, stopped.evaluations);

        // Resuming the flushed snapshot completes the run identically
        // to an uninterrupted one.
        let resumed =
            Nsga2::new(cfg.clone())
                .run_checkpointed(&problem, Vec::new(), Some(cp), None, |_| true);
        let uninterrupted = Nsga2::new(cfg).run(&problem);
        assert_eq!(resumed.population, uninterrupted.population);
        assert_eq!(resumed.evaluations, uninterrupted.evaluations);
    }

    #[test]
    fn the_final_generation_flushes_a_checkpoint() {
        let problem = TwoHumps { bounds: vec![101] };
        let cfg = NsgaConfig {
            population: 10,
            generations: 7,
            ..NsgaConfig::default()
        };
        // `every: 3` fires at generations 3 and 6; generation 7 is the
        // final one and flushes regardless of cadence.
        let sink = Capture::default();
        let plan = CheckpointPlan {
            every: 3,
            sink: &sink,
        };
        let _ = Nsga2::new(cfg.clone()).run_checkpointed(
            &problem,
            Vec::new(),
            None,
            Some(plan),
            |_| true,
        );
        let generations: Vec<usize> = sink.0.into_inner().iter().map(|c| c.generation).collect();
        assert_eq!(generations, vec![3, 6, 7]);
    }

    #[test]
    fn validate_rejects_torn_or_mismatched_checkpoints() {
        let problem = TwoHumps { bounds: vec![101] };
        let cfg = NsgaConfig {
            population: 8,
            generations: 6,
            ..NsgaConfig::default()
        };
        let sink = Capture::default();
        let plan = CheckpointPlan {
            every: 2,
            sink: &sink,
        };
        let _ = Nsga2::new(cfg.clone()).run_checkpointed(
            &problem,
            Vec::new(),
            None,
            Some(plan),
            |_| true,
        );
        let cp = sink.0.into_inner().into_iter().next().expect("checkpoint");
        assert!(cp.validate(&cfg, &[101]).is_ok());

        let mut other_cfg = cfg.clone();
        other_cfg.seed ^= 1;
        assert!(cp.validate(&other_cfg, &[101]).is_err());
        assert!(cp.validate(&cfg, &[101, 101]).is_err());
        assert!(cp.validate(&cfg, &[5]).is_err());

        let mut torn = cp.clone();
        torn.population.pop();
        assert!(torn.validate(&cfg, &[101]).is_err());

        let mut torn = cp.clone();
        torn.history.pop();
        assert!(torn.validate(&cfg, &[101]).is_err());

        let mut torn = cp.clone();
        torn.evaluations += 1;
        assert!(torn.validate(&cfg, &[101]).is_err());

        let mut torn = cp.clone();
        torn.rng_state = [0; 4];
        assert!(torn.validate(&cfg, &[101]).is_err());

        // A `null` objective or violation reads back as NaN.
        let mut torn = cp.clone();
        torn.population[3].evaluation.objectives[1] = f64::NAN;
        assert!(torn.validate(&cfg, &[101]).is_err());

        let mut torn = cp.clone();
        torn.population[0].evaluation.violation = f64::NAN;
        assert!(torn.validate(&cfg, &[101]).is_err());

        let mut torn = cp.clone();
        torn.population[5].evaluation.objectives.pop();
        assert!(torn.validate(&cfg, &[101]).is_err());

        let mut torn = cp;
        torn.population[0].evaluation.objectives.push(1.0);
        assert!(torn.validate(&cfg, &[101]).is_err());
    }

    #[test]
    fn evaluation_budget_is_accounted() {
        let problem = TwoHumps { bounds: vec![101] };
        let result = Nsga2::new(NsgaConfig {
            population: 10,
            generations: 5,
            ..NsgaConfig::default()
        })
        .run(&problem);
        // init + generations * population.
        assert_eq!(result.evaluations, 10 + 5 * 10);
    }

    #[test]
    fn every_wave_goes_through_evaluate_batch() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct Counting {
            bounds: Vec<u32>,
            batches: AtomicUsize,
            singles: AtomicUsize,
        }
        impl IntProblem for Counting {
            fn bounds(&self) -> &[u32] {
                &self.bounds
            }
            fn evaluate(&self, genes: &[u32]) -> Evaluation {
                self.singles.fetch_add(1, Ordering::Relaxed);
                let x = f64::from(genes[0]);
                Evaluation::feasible(vec![x, 100.0 - x])
            }
            fn evaluate_batch(&self, genomes: &[Vec<u32>]) -> Vec<Evaluation> {
                self.batches.fetch_add(1, Ordering::Relaxed);
                genomes.iter().map(|g| self.evaluate(g)).collect()
            }
        }

        let problem = Counting {
            bounds: vec![101],
            batches: AtomicUsize::new(0),
            singles: AtomicUsize::new(0),
        };
        let result = Nsga2::new(NsgaConfig {
            population: 8,
            generations: 5,
            ..NsgaConfig::default()
        })
        .run(&problem);
        // One batch per wave: the initial population plus one per
        // generation — never one call per genome.
        assert_eq!(problem.batches.load(Ordering::Relaxed), 1 + 5);
        assert_eq!(
            problem.singles.load(Ordering::Relaxed) as u64,
            result.evaluations
        );
    }

    #[test]
    fn infeasible_solutions_are_purged_when_feasible_exist() {
        struct Constrained;
        impl IntProblem for Constrained {
            fn bounds(&self) -> &[u32] {
                const B: [u32; 1] = [100];
                &B
            }
            fn evaluate(&self, genes: &[u32]) -> Evaluation {
                let x = f64::from(genes[0]);
                if genes[0] < 50 {
                    Evaluation::infeasible(vec![x, 100.0 - x], 50.0 - x)
                } else {
                    Evaluation::feasible(vec![x, 100.0 - x])
                }
            }
        }
        let result = Nsga2::new(NsgaConfig {
            population: 20,
            generations: 30,
            mutation_prob: 0.3,
            ..NsgaConfig::default()
        })
        .run(&Constrained);
        for ind in &result.pareto_front {
            assert!(
                ind.evaluation.is_feasible(),
                "infeasible on front: {:?}",
                ind.genes
            );
        }
    }
}
