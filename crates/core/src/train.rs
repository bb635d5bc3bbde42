//! The hardware-approximation-aware GA trainer (paper Fig. 2, left
//! half) plus the hardware-unaware plain-GA reference of Table III.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use pe_datasets::QuantizedData;
use pe_hw::ExactCostModel;
use pe_mlp::columnar::accuracy_columns;
use pe_mlp::{AxMlp, FixedMlp, QReluCfg, QuantMatrix};
use pe_nsga::{Evaluation, GenerationStats, IntProblem, Nsga2};

use crate::config::AxTrainConfig;
use crate::error::FlowError;
use crate::fitness::AxTrainProblem;
use crate::genome::{GenomeSpec, LayerGenomeSpec};
use crate::pareto::{true_pareto_front, DesignCandidate, DesignPoint};
use crate::progress::{RunControl, StageKind};

/// Everything a search run produces (also exported as
/// [`SearchOutcome`](crate::engine::SearchOutcome) — the return type of
/// every [`SearchEngine`](crate::engine::SearchEngine)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingOutcome {
    /// True (hardware-evaluated) Pareto front, ascending area.
    pub front: Vec<DesignPoint>,
    /// The GA's estimated front before hardware analysis (empty for
    /// engines without an estimate/analysis split).
    pub estimated_front: Vec<DesignCandidate>,
    /// Per-generation statistics (empty for non-generational engines).
    pub history: Vec<GenerationStats>,
    /// Total candidate evaluations (`0` when an engine doesn't count).
    pub evaluations: u64,
    /// Wall-clock duration of the search phase proper (for the GA
    /// engines: the evolution loop, excluding seeding, local polish
    /// and hardware analysis — the paper's Table III measurement).
    pub ga_wall: Duration,
}

/// The paper's trainer: NSGA-II over the `(m, s, k, b)` chromosome with
/// the (error, FA-area) objectives, doped initialization and the 10%
/// feasibility bound.
#[derive(Debug, Clone)]
pub struct HwAwareTrainer {
    config: AxTrainConfig,
    eval_threads: Option<usize>,
    variation: Option<pe_hw::VariationConfig>,
    store: Option<crate::store::StoreSink>,
    checkpoint: Option<crate::checkpoint::CheckpointSpec>,
}

impl HwAwareTrainer {
    /// Trainer with the given configuration.
    #[must_use]
    pub fn new(config: AxTrainConfig) -> Self {
        Self {
            config,
            eval_threads: None,
            variation: None,
            store: None,
            checkpoint: None,
        }
    }

    /// Worker budget for batch fitness evaluation (default: the global
    /// [`thread_budget`](crate::eval::thread_budget)). The pipeline's
    /// multi-dataset runs pass their per-study share here so nested
    /// pools never oversubscribe; thread count never affects results.
    #[must_use]
    pub fn with_eval_threads(mut self, threads: usize) -> Self {
        self.eval_threads = Some(threads.max(1));
        self
    }

    /// Train against Monte-Carlo process variation: the fitness
    /// accuracy becomes the configured robust statistic over the
    /// variation trials (see
    /// [`AxTrainProblem::with_variation`]), seeded from the GA seed so
    /// the trials are deterministic per study. `None` (the default)
    /// keeps the nominal fitness bit for bit.
    #[must_use]
    pub fn with_variation(mut self, variation: Option<pe_hw::VariationConfig>) -> Self {
        self.variation = variation;
        self
    }

    /// Attach a design-store sink: every unique design the GA
    /// evaluates is persisted, front members are annotated with their
    /// test accuracy when the run finishes, and — if the sink carries
    /// warm-start candidates — shape-compatible stored designs join
    /// the initial population alongside the doped seeds. Ingest is a
    /// pure side channel (fronts are byte-identical with or without
    /// it); warm-start seeds, by design, *do* steer the search.
    #[must_use]
    pub fn with_store(mut self, store: Option<crate::store::StoreSink>) -> Self {
        self.store = store;
        self
    }

    /// Make the GA loop crash-safe: resume from a valid checkpoint at
    /// the spec's path and flush new checkpoints at its cadence (see
    /// [`crate::checkpoint`]). Checkpointing is pure durability — a
    /// resumed run reproduces the uninterrupted run's outcome byte for
    /// byte. `None` (the default) keeps the single-shot behavior.
    #[must_use]
    pub fn with_checkpoint(
        mut self,
        checkpoint: Option<crate::checkpoint::CheckpointSpec>,
    ) -> Self {
        self.checkpoint = checkpoint;
        self
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &AxTrainConfig {
        &self.config
    }

    /// Derive the genome layout implied by a baseline network: same
    /// topology, same QReLU configuration.
    #[must_use]
    pub fn genome_spec_for(&self, baseline: &FixedMlp) -> GenomeSpec {
        let mut input_bits = baseline.input_bits;
        let layers: Vec<LayerGenomeSpec> = baseline
            .layers
            .iter()
            .map(|l| {
                let spec = LayerGenomeSpec {
                    fan_in: l.weights.first().map_or(0, Vec::len),
                    neurons: l.weights.len(),
                    input_bits,
                    qrelu: l.qrelu,
                };
                if let Some(q) = l.qrelu {
                    input_bits = q.out_bits;
                }
                spec
            })
            .collect();
        GenomeSpec::new(layers, self.config.weight_bits, self.config.bias_bits)
    }

    /// Run the full flow: GA exploration on the training split, then
    /// hardware analysis and true-Pareto extraction with test-split
    /// accuracies.
    ///
    /// `baseline_train_accuracy` anchors the 10% feasibility bound.
    /// `cost` names the conditions the study runs under: its
    /// [`CostScenario`](pe_hw::CostScenario) drives the GA's area/power
    /// objectives and constraints, and the model itself evaluates the
    /// final front — one cost layer from fitness to report.
    ///
    /// # Panics
    ///
    /// Panics if the training data is empty or does not match the
    /// baseline's input width.
    #[must_use]
    pub fn train(
        &self,
        baseline: &FixedMlp,
        baseline_train_accuracy: f64,
        train: &QuantizedData,
        test: &QuantizedData,
        cost: &ExactCostModel,
        name: &str,
    ) -> TrainingOutcome {
        self.train_controlled(
            baseline,
            baseline_train_accuracy,
            train,
            test,
            cost,
            name,
            &RunControl::NONE,
        )
        .expect("a NONE control cannot cancel")
    }

    /// [`train`](Self::train) with progress reporting and cooperative
    /// cancellation: one
    /// [`ProgressEvent::GaGeneration`](crate::ProgressEvent::GaGeneration) per
    /// generation, and cancellation honored at generation granularity.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Cancelled`] when `ctl`'s token is set.
    ///
    /// # Panics
    ///
    /// Panics as [`train`](Self::train) does.
    #[allow(clippy::too_many_arguments)] // mirrors `train` + the control
    pub fn train_controlled(
        &self,
        baseline: &FixedMlp,
        baseline_train_accuracy: f64,
        train: &QuantizedData,
        test: &QuantizedData,
        cost: &ExactCostModel,
        name: &str,
        ctl: &RunControl<'_>,
    ) -> Result<TrainingOutcome, FlowError> {
        ctl.ensure_live(StageKind::Searched)?;
        let spec = self.genome_spec_for(baseline);
        let (rows, labels) = subsample(train, self.config.fitness_subsample);

        // The GA optimizes the same scenario the front is reported
        // under: one cost layer from the fitness objective to the
        // final hardware report.
        let mut problem = AxTrainProblem::new(
            spec.clone(),
            rows,
            labels,
            baseline_train_accuracy,
            self.config.max_accuracy_loss,
        )
        .with_objective(self.config.objective)
        .with_scenario(cost.scenario().clone());
        if let Some(variation) = &self.variation {
            // The GA seed is the per-study master: trials decorrelate
            // across datasets exactly like the GA streams do.
            problem = problem.with_variation(variation, self.config.nsga.seed);
        }
        let problem = problem.with_sink(self.store.clone());

        let doped_count = ((self.config.nsga.population as f64 * self.config.doping_fraction)
            .round() as usize)
            .max(1);
        let refine_n = problem.sample_count().min(600);
        let calibration_rows = train.features.head(train.len().min(1000));
        let refine_rows = train.features.head(refine_n);
        let mut seeds = crate::init::doped_seeds(
            &spec,
            baseline,
            self.config.max_shift(),
            self.config.bias_bits,
            doped_count,
            self.config.nsga.seed,
            &calibration_rows,
            Some((&refine_rows, &train.labels[..refine_n])),
        );
        if let Some(sink) = &self.store {
            append_warm_seeds(&mut seeds, sink, &spec, self.config.nsga.population);
        }
        let seeds = seeds;

        // The evaluation core: every NSGA-II wave is fanned out over
        // the worker budget; results come back in input order, so the
        // run is byte-identical to a serial one.
        let eval_threads = self.eval_threads.unwrap_or_else(crate::eval::thread_budget);
        let mut history = Vec::with_capacity(self.config.nsga.generations);
        let started = Instant::now();
        let result = crate::eval::run_ga(
            &Nsga2::new(self.config.nsga.clone()),
            &problem,
            seeds,
            eval_threads,
            ctl,
            &mut history,
            &|| {
                Some(crate::eval::ProblemCacheStats {
                    cost_misses: problem.gate_count_computations(),
                    store: problem.store_stats(),
                })
            },
            self.checkpoint.as_ref(),
        );
        let ga_wall = started.elapsed();
        ctl.ensure_live(StageKind::Searched)?;

        // Estimated front -> candidates with both-split accuracies. The
        // test split is transposed once and scored on the same columnar
        // engine as the GA fitness.
        let test_columns = test.features.columns();
        let test_accuracy_of = |mlp: &AxMlp| accuracy_columns(mlp, &test_columns, &test.labels);
        let mut estimated_front: Vec<DesignCandidate> = result
            .pareto_front
            .iter()
            .map(|ind| {
                let mlp: AxMlp = spec.decode(&ind.genes);
                let test_accuracy = test_accuracy_of(&mlp);
                DesignCandidate {
                    train_accuracy: 1.0 - ind.evaluation.objectives[0],
                    test_accuracy,
                    estimated_area: ind.evaluation.objectives[1],
                    mlp,
                }
            })
            .collect();

        // Memetic polish of the accuracy end: coordinate-descent sweeps
        // (the same local search used on the doped seeds) applied to the
        // five most accurate front members. This substitutes for the
        // paper's ~26M-evaluation budget near convergence; the hardware
        // Pareto filter below discards any polished design whose area
        // regressed.
        let mut by_acc: Vec<usize> = (0..estimated_front.len()).collect();
        by_acc.sort_by(|&a, &b| {
            estimated_front[b]
                .train_accuracy
                .total_cmp(&estimated_front[a].train_accuracy)
        });
        let refine_n = train.len().min(2500);
        let polish_rows = train.features.head(refine_n);
        let mut problem_view = AxTrainProblem::new(
            spec.clone(),
            polish_rows.clone(),
            train.labels[..refine_n].to_vec(),
            baseline_train_accuracy,
            self.config.max_accuracy_loss,
        )
        .with_objective(self.config.objective)
        .with_scenario(cost.scenario().clone());
        if let Some(variation) = &self.variation {
            // Same statistic, same master seed: the polish view scores
            // candidates the way the GA did (the keyed sampler makes the
            // draws row-subset independent).
            problem_view = problem_view.with_variation(variation, self.config.nsga.seed);
        }
        for &idx in by_acc.iter().take(5) {
            let polished = crate::init::refine_doped(
                &estimated_front[idx].mlp,
                &polish_rows,
                &train.labels[..refine_n],
                self.config.max_shift(),
                self.config.bias_bits,
                3,
            );
            if polished != estimated_front[idx].mlp {
                let (train_acc, area) = problem_view.score(&polished);
                let test_accuracy = test_accuracy_of(&polished);
                estimated_front.push(DesignCandidate {
                    train_accuracy: train_acc,
                    test_accuracy,
                    estimated_area: area,
                    mlp: polished,
                });
            }
        }

        // Front members reach the store with their held-out test
        // accuracy: that is what store-side queries Pareto-filter and
        // what a later warm-started run seeds from.
        if let Some(sink) = &self.store {
            for candidate in &estimated_front {
                sink.annotate_front(candidate);
            }
        }

        let front = true_pareto_front(estimated_front.clone(), cost, name);

        Ok(TrainingOutcome {
            front,
            estimated_front,
            history,
            evaluations: result.evaluations,
            ga_wall,
        })
    }
}

/// Append warm-start seeds from the sink's stored-front pool:
/// shape-compatible designs of the same dataset, best test accuracy
/// first, encoded and deduplicated, capped at a quarter of the
/// population so fresh doped/random exploration still dominates the
/// initial wave.
fn append_warm_seeds(
    seeds: &mut Vec<Vec<u32>>,
    sink: &crate::store::StoreSink,
    spec: &GenomeSpec,
    population: usize,
) {
    let cap = (population / 4).max(1);
    let mut added = 0usize;
    for mlp in sink.warm_candidates() {
        if added >= cap {
            break;
        }
        // `GenomeSpec::encode` asserts on topology mismatch, and a
        // store may hold designs from differently-shaped studies —
        // check first.
        if !shape_matches(spec, mlp) {
            continue;
        }
        let genes = spec.encode(mlp);
        if !seeds.contains(&genes) {
            seeds.push(genes);
            added += 1;
        }
    }
}

/// Whether a stored network has exactly the genome layout's topology
/// (layer count, neurons per layer, fan-in per neuron).
fn shape_matches(spec: &GenomeSpec, mlp: &AxMlp) -> bool {
    let layers = spec.layers();
    mlp.layers.len() == layers.len()
        && mlp.layers.iter().zip(layers).all(|(l, ls)| {
            l.neurons.len() == ls.neurons && l.neurons.iter().all(|n| n.weights.len() == ls.fan_in)
        })
}

/// Deterministic subsample: the first `limit` rows (splits are already
/// shuffled).
fn subsample(data: &QuantizedData, limit: Option<usize>) -> (QuantMatrix, Vec<usize>) {
    let n = limit.unwrap_or(usize::MAX).min(data.len());
    (data.features.head(n), data.labels[..n].to_vec())
}

/// The hardware-unaware GA reference of Table III: same NSGA-II engine,
/// but the genome is the plain 8-bit weight/bias vector, masks are not
/// trained, and accuracy is the only objective.
#[derive(Debug, Clone)]
pub struct PlainGaProblem {
    bounds: Vec<u32>,
    shape: Vec<(usize, usize, u32, Option<QReluCfg>)>,
    rows: QuantMatrix,
    labels: Vec<usize>,
    weight_bits: u32,
    bias_bits: u32,
}

impl PlainGaProblem {
    /// Build the accuracy-only GA problem for a baseline topology.
    ///
    /// # Panics
    ///
    /// Panics if the data is empty.
    #[must_use]
    pub fn new(
        baseline: &FixedMlp,
        train: &QuantizedData,
        subsample_limit: Option<usize>,
        weight_bits: u32,
        bias_bits: u32,
    ) -> Self {
        let (rows, labels) = subsample(train, subsample_limit);
        assert!(!rows.is_empty());
        let mut input_bits = baseline.input_bits;
        let mut shape = Vec::new();
        let mut bounds = Vec::new();
        for l in &baseline.layers {
            let fan_in = l.weights.first().map_or(0, Vec::len);
            let neurons = l.weights.len();
            shape.push((fan_in, neurons, input_bits, l.qrelu));
            for _ in 0..neurons {
                for _ in 0..fan_in {
                    bounds.push(1u32 << weight_bits); // signed weight, offset-encoded
                }
                bounds.push(1u32 << bias_bits);
            }
            if let Some(q) = l.qrelu {
                input_bits = q.out_bits;
            }
        }
        Self {
            bounds,
            shape,
            rows,
            labels,
            weight_bits,
            bias_bits,
        }
    }

    /// Decode genes into the integer network they represent.
    #[must_use]
    pub fn decode(&self, genes: &[u32]) -> FixedMlp {
        let w_off = 1i64 << (self.weight_bits - 1);
        let b_off = 1i64 << (self.bias_bits - 1);
        let mut cursor = 0usize;
        let mut layers = Vec::with_capacity(self.shape.len());
        let mut first_bits = None;
        for &(fan_in, neurons, input_bits, qrelu) in &self.shape {
            first_bits.get_or_insert(input_bits);
            let mut weights = Vec::with_capacity(neurons);
            let mut biases = Vec::with_capacity(neurons);
            for _ in 0..neurons {
                let row: Vec<i32> = (0..fan_in)
                    .map(|_| {
                        let g = i64::from(genes[cursor]);
                        cursor += 1;
                        (g - w_off) as i32
                    })
                    .collect();
                weights.push(row);
                let g = i64::from(genes[cursor]);
                cursor += 1;
                biases.push((g - b_off) as i32);
            }
            layers.push(pe_mlp::FixedLayer {
                weights,
                biases,
                qrelu,
            });
        }
        FixedMlp {
            input_bits: first_bits.unwrap_or(4),
            layers,
        }
    }
}

impl IntProblem for PlainGaProblem {
    fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    fn evaluate(&self, genes: &[u32]) -> Evaluation {
        let mlp = self.decode(genes);
        let acc = mlp.accuracy(&self.rows, &self.labels);
        Evaluation::feasible(vec![1.0 - acc])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_mlp::FixedLayer;
    use pe_nsga::NsgaConfig;

    /// A linearly separable 1-feature problem with a 1-layer baseline.
    fn tiny_setup() -> (FixedMlp, QuantizedData, QuantizedData) {
        let baseline = FixedMlp {
            input_bits: 4,
            layers: vec![FixedLayer {
                weights: vec![vec![-10], vec![10]],
                biases: vec![70, -70],
                qrelu: None,
            }],
        };
        let features: Vec<Vec<u8>> = (0..16u8).map(|v| vec![v]).collect();
        let labels: Vec<usize> = (0..16).map(|v| usize::from(v > 7)).collect();
        let data = QuantizedData {
            features: QuantMatrix::from_rows(&features),
            labels,
            classes: 2,
            input_bits: 4,
        };
        (baseline, data.clone(), data)
    }

    #[test]
    fn trainer_finds_accurate_small_designs() {
        let (baseline, train, test) = tiny_setup();
        let baseline_acc = baseline.accuracy(&train.features, &train.labels);
        assert!(baseline_acc > 0.9);
        let cfg = AxTrainConfig {
            nsga: NsgaConfig {
                population: 24,
                generations: 25,
                mutation_prob: 0.08,
                seed: 5,
                ..NsgaConfig::default()
            },
            ..AxTrainConfig::default()
        };
        let trainer = HwAwareTrainer::new(cfg);
        let model = pe_hw::ExactCostModel::new(pe_hw::CostScenario::default());
        let outcome = trainer.train(&baseline, baseline_acc, &train, &test, &model, "tiny");
        assert!(!outcome.front.is_empty());
        let best_acc = outcome
            .front
            .iter()
            .map(|p| p.test_accuracy)
            .fold(0.0f64, f64::max);
        assert!(
            best_acc >= baseline_acc - 0.10,
            "best {best_acc} vs {baseline_acc}"
        );
        assert_eq!(outcome.history.len(), 25);
        assert!(outcome.evaluations > 0);
        // Front is area-sorted.
        for w in outcome.front.windows(2) {
            assert!(w[0].report.area_cm2 <= w[1].report.area_cm2);
        }
    }

    #[test]
    fn genome_spec_mirrors_baseline_topology() {
        let (baseline, _, _) = tiny_setup();
        let trainer = HwAwareTrainer::new(AxTrainConfig::default());
        let spec = trainer.genome_spec_for(&baseline);
        assert_eq!(spec.layers().len(), 1);
        assert_eq!(spec.layers()[0].fan_in, 1);
        assert_eq!(spec.layers()[0].neurons, 2);
        assert_eq!(spec.layers()[0].input_bits, 4);
    }

    #[test]
    fn plain_ga_learns_the_threshold() {
        let (baseline, train, _) = tiny_setup();
        let problem = PlainGaProblem::new(&baseline, &train, None, 8, 8);
        let result = Nsga2::new(NsgaConfig {
            population: 30,
            generations: 30,
            mutation_prob: 0.15,
            seed: 2,
            ..NsgaConfig::default()
        })
        .run(&problem);
        let best = result
            .pareto_front
            .iter()
            .map(|i| 1.0 - i.evaluation.objectives[0])
            .fold(0.0f64, f64::max);
        assert!(best > 0.85, "plain GA accuracy {best}");
    }

    #[test]
    fn plain_ga_decode_round_trips_shape() {
        let (baseline, train, _) = tiny_setup();
        let problem = PlainGaProblem::new(&baseline, &train, Some(4), 8, 8);
        let genes = vec![128u32; problem.bounds().len()];
        let mlp = problem.decode(&genes);
        assert_eq!(mlp.layers.len(), 1);
        assert_eq!(mlp.layers[0].weights.len(), 2);
        assert_eq!(mlp.layers[0].weights[0][0], 0); // 128 - 128
    }
}
