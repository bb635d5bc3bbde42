//! The multi-objective fitness of Eq. (3):
//! `min [1 − Accuracy(θ, D), Area(θ)]`.
//!
//! Accuracy is the integer-exact inference of Eq. (4) on the training
//! split; area is the configured [`AreaObjective`]: by default the
//! analytic gate-equivalent estimate of the whole circuit
//! ([`AreaObjective::GateEquivalents`]), or the paper's Eq. (2) FA
//! count ([`AreaObjective::FaCount`]). The paper's
//! 10% accuracy-loss bound (§IV-A) is enforced through Deb's
//! constrained domination rather than a penalty term, so infeasible
//! chromosomes are still ordered by how close to feasibility they are.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pe_arith::{tree_gates, NeuronArithSpec, NeuronGateCounts};
use pe_hw::variation::{RobustStat, VariationConfig};
use pe_hw::{argmax_gate_counts, qrelu_gate_counts, CostScenario};
use pe_mlp::columnar::{self, ColumnLabels, ColumnMatrix, ColumnarScratch, QuantMatrix};
use pe_mlp::InferenceScratch;
use pe_nsga::{Evaluation, IntProblem};
use serde::{Deserialize, Serialize};

use crate::genome::GenomeSpec;

/// Which area model the GA minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AreaObjective {
    /// The paper's Eq. (2): per-neuron FA count of the adder trees.
    /// Blind to accumulator width downstream of the trees (QReLU and
    /// argmax comparators), which the paper's far larger GA budget
    /// compensates for.
    FaCount,
    /// Full analytic gate-equivalent estimate: adder trees plus NOT
    /// gates, QReLU saturation units and the argmax comparator tree —
    /// the same formulas the netlist elaborator instantiates, so the
    /// GA's view and the synthesized cost cannot diverge. Default for
    /// this reproduction; the `ablation_objective` bench compares both.
    GateEquivalents,
}

impl Default for AreaObjective {
    /// [`AreaObjective::GateEquivalents`], this reproduction's default.
    fn default() -> Self {
        AreaObjective::GateEquivalents
    }
}

/// The GA training problem: genomes decode to approximate MLPs which
/// are scored on (training error, estimated area).
///
/// Scoring is a pure function of the genes, so the problem composes
/// with [`crate::eval::BatchEvaluator`] for batch-parallel evaluation.
///
/// Internally the accuracy objective runs on the **columnar engine**:
/// the dataset is transposed once into a [`ColumnMatrix`], and every
/// genome runs [`columnar::hits_columns`], one branch-free pass per
/// weight of the platform's analytic column kernel, against a
/// per-thread [`ColumnarScratch`]. Nothing is memoized: every hidden
/// column is recomputed into scratch, because a shared column cache
/// saved no time and held most of a study's memory (the README's
/// "Performance architecture" has the numbers). Per-neuron gate counts
/// are computed directly ([`tree_gates`], the model every reported
/// cost uses) for the same reason. Once
/// its scratch has grown, an evaluation allocates only the objectives
/// vector it returns. The columnar path is bit-exact with the per-row
/// oracle ([`score_with`](Self::score_with), i.e.
/// [`pe_mlp::AxMlp::predict_with`] per sample), which the parity
/// test-suite proves.
#[derive(Debug, Clone)]
pub struct AxTrainProblem {
    spec: GenomeSpec,
    rows: QuantMatrix,
    /// The transposed dataset the columnar kernels stream over.
    columns: ColumnMatrix,
    /// The labels, with their `i16` lanes for the forward pass's
    /// narrowest argmax built once, here.
    labels: ColumnLabels,
    /// Gate-count computations so far (shared by clones).
    gate_counts: Arc<AtomicU64>,
    objective: AreaObjective,
    /// The cost scenario the GA optimizes under: technology (GE
    /// weights and per-GE power), operating supply, and the optional
    /// power budget enforced through constrained domination.
    scenario: CostScenario,
    /// Estimated mW per gate equivalent at the scenario's supply
    /// (precomputed: `power_per_ge_mw × power_scale(supply)`).
    power_per_ge_at_supply: f64,
    /// Exact-baseline accuracy on the same rows.
    baseline_accuracy: f64,
    /// Maximum tolerated accuracy loss during training (0.10).
    max_loss: f64,
    /// Monte-Carlo variation state when the search is robust
    /// ([`with_variation`](Self::with_variation)); `None` keeps the
    /// historical nominal fitness bit for bit.
    robust: Option<RobustContext>,
    /// Design-store ingest hook ([`with_sink`](Self::with_sink)):
    /// offers every evaluated design to the store, which keeps one
    /// record per unique design. A pure side channel —
    /// attaching a sink never changes any evaluation or RNG stream.
    sink: Option<crate::store::StoreSink>,
}

/// Precomputed Monte-Carlo state of a variation-aware problem: the
/// trials (each one's seed and input-perturbed dataset, transposed
/// once) and the statistic over them. Built by
/// [`AxTrainProblem::with_variation`].
#[derive(Debug, Clone)]
struct RobustContext {
    statistic: RobustStat,
    trials: crate::robust::Trials,
}

impl AxTrainProblem {
    /// Create a training problem.
    ///
    /// `rows`/`labels` are the (possibly subsampled) quantized training
    /// split; `baseline_accuracy` is the exact baseline's accuracy used
    /// for the feasibility bound. The dataset is transposed to the
    /// columnar layout once, here.
    ///
    /// # Panics
    ///
    /// Panics if rows and labels differ in length or are empty. (The
    /// accuracy APIs themselves define empty data as `0.0`, but a GA
    /// fitness over zero samples is always a configuration bug, so the
    /// constructor rejects it outright.)
    #[must_use]
    pub fn new(
        spec: GenomeSpec,
        rows: QuantMatrix,
        labels: Vec<usize>,
        baseline_accuracy: f64,
        max_loss: f64,
    ) -> Self {
        assert_eq!(rows.len(), labels.len());
        assert!(!rows.is_empty(), "fitness data must be non-empty");
        let columns = rows.columns();
        let scenario = CostScenario::default();
        let power_per_ge_at_supply = power_per_ge_at_supply(&scenario);
        Self {
            spec,
            rows,
            columns,
            labels: ColumnLabels::new(labels),
            gate_counts: Arc::default(),
            objective: AreaObjective::GateEquivalents,
            scenario,
            power_per_ge_at_supply,
            baseline_accuracy,
            max_loss,
            robust: None,
            sink: None,
        }
    }

    /// Override the area objective (see [`AreaObjective`]).
    #[must_use]
    pub fn with_objective(mut self, objective: AreaObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Optimize under a [`CostScenario`]: the technology supplies the
    /// GE weights and per-GE power, the supply voltage scales the power
    /// estimate, and a power budget (if any) becomes an additional
    /// constrained-domination violation — the GA then searches for
    /// designs a given printed power source can actually drive.
    ///
    /// The default scenario (nominal EGFET, no budget) reproduces the
    /// historical fitness bit for bit.
    #[must_use]
    pub fn with_scenario(mut self, scenario: CostScenario) -> Self {
        self.power_per_ge_at_supply = power_per_ge_at_supply(&scenario);
        self.scenario = scenario;
        self
    }

    /// The active cost scenario.
    #[must_use]
    pub fn scenario(&self) -> &CostScenario {
        &self.scenario
    }

    /// Optimize the robust accuracy statistic over Monte-Carlo
    /// variation trials instead of the nominal accuracy.
    ///
    /// Each of the M trials gets one input-perturbed copy of the
    /// dataset, built here and transposed once, and a robust
    /// evaluation runs the columnar forward pass once per trial with
    /// the trial's per-device gain/offset draws applied to every
    /// accumulator — ~M× a nominal evaluation. `master_seed` keys the
    /// deterministic per-trial samplers
    /// ([`pe_hw::variation::trial_seed`]).
    ///
    /// With a zero-variance model every draw is an exact no-op and
    /// every evaluation equals the nominal one bit for bit (proven by
    /// the `robust_parity` suite).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`VariationConfig::validate`] (the
    /// pipeline rejects such configs before they reach the trainer).
    #[must_use]
    pub fn with_variation(mut self, config: &VariationConfig, master_seed: u64) -> Self {
        config.validate().expect("a valid variation config");
        let input_bits = self.spec.layers().first().map_or(4, |l| l.input_bits);
        let trials = crate::robust::Trials::new(
            &self.rows,
            &config.model,
            master_seed,
            config.trials,
            input_bits,
        );
        self.robust = Some(RobustContext {
            statistic: config.statistic,
            trials,
        });
        self
    }

    /// Attach a design-store sink: every design this problem evaluates
    /// is offered to the store, which keeps one record per unique
    /// design, with its nominal training accuracy, the
    /// robust statistic when the search runs under
    /// [`with_variation`](Self::with_variation), and its area
    /// objective. Ingest is a pure side effect — evaluations, RNG
    /// streams and fronts are byte-identical with or without a sink.
    #[must_use]
    pub fn with_sink(mut self, sink: Option<crate::store::StoreSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Estimated power in mW of `area_ge` gate equivalents at the
    /// scenario's operating supply — the per-cell GE→mW roll-up the
    /// GA's power constraint uses.
    ///
    /// This is a *training-time* estimate: it excludes the netlist's
    /// two shared tie cells (≤ 0.66 GE for the whole design), so it
    /// sits a hair below the evaluated report power. The authoritative
    /// budget check is
    /// [`select_within_budgets`](crate::pareto::select_within_budgets)
    /// on the costed front — a design grazing the budget during
    /// training can still be excluded there, which only tightens the
    /// reported selection, never loosens it.
    #[must_use]
    pub fn estimated_power_mw(&self, area_ge: f64) -> f64 {
        area_ge * self.power_per_ge_at_supply
    }

    /// The genome layout being optimized.
    #[must_use]
    pub fn genome_spec(&self) -> &GenomeSpec {
        &self.spec
    }

    /// Number of fitness samples.
    #[must_use]
    pub fn sample_count(&self) -> usize {
        self.rows.len()
    }

    /// The feasibility threshold: training accuracies below
    /// `baseline − max_loss` violate the constraint.
    #[must_use]
    pub fn accuracy_floor(&self) -> f64 {
        (self.baseline_accuracy - self.max_loss).max(0.0)
    }

    /// Score a decoded network directly (shared by the GA and the
    /// ablation benches). Returns `(accuracy, estimated area)` in the
    /// units of the configured [`AreaObjective`]. Runs on the columnar
    /// engine — bit-exact with the per-row oracle
    /// [`score_with`](Self::score_with). Under
    /// [`with_variation`](Self::with_variation) the accuracy is the
    /// configured robust statistic over the Monte-Carlo trials.
    #[must_use]
    pub fn score(&self, mlp: &pe_mlp::AxMlp) -> (f64, f64) {
        let mut scratch = ColumnarScratch::new();
        (self.fitness_accuracy(mlp, &mut scratch), self.area_of(mlp))
    }

    /// The per-row **nominal reference oracle**: one
    /// [`predict_with`](pe_mlp::AxMlp::predict_with) per sample against
    /// caller-provided scratch buffers. The columnar engine behind
    /// [`score`](Self::score) / [`IntProblem::evaluate`] is proven
    /// bit-exact against this path by the parity test-suite; keep new
    /// scoring fast paths checked against it too. Always nominal: the
    /// robust counterpart is [`crate::robust::mc_accuracy`].
    #[must_use]
    pub fn score_with(&self, mlp: &pe_mlp::AxMlp, scratch: &mut InferenceScratch) -> (f64, f64) {
        let accuracy = mlp.accuracy_batch(&self.rows, self.labels.classes(), scratch);
        (accuracy, self.area_of(mlp))
    }

    /// Estimated area under the configured [`AreaObjective`].
    fn area_of(&self, mlp: &pe_mlp::AxMlp) -> f64 {
        match self.objective {
            AreaObjective::FaCount => mlp
                .layers
                .iter()
                .flat_map(|l| l.neurons.iter().map(|n| (n, l.input_bits)))
                .map(|(n, input_bits)| {
                    let counts = self.gate_counts_of(n, input_bits, i64::from(n.bias), &[]);
                    counts.fa_equivalent()
                })
                .sum(),
            AreaObjective::GateEquivalents => self.gate_equivalents(mlp),
        }
    }

    /// Per-neuron gate-count computations so far, over this problem
    /// and its clones — surfaced per GA generation as the
    /// `cost_misses` counter of
    /// [`ProgressEvent::EvalCache`](crate::ProgressEvent::EvalCache).
    #[must_use]
    pub fn gate_count_computations(&self) -> u64 {
        self.gate_counts.load(Ordering::Relaxed)
    }

    /// Gate counts of one neuron on `input_bits`-wide inputs with its
    /// bias set to `bias` and the inputs `folded` marks as constants
    /// taken out (an empty `folded` takes none), against per-thread spec
    /// and height buffers so the area objective allocates nothing per
    /// neuron.
    fn gate_counts_of(
        &self,
        neuron: &pe_mlp::AxNeuron,
        input_bits: u32,
        bias: i64,
        folded: &[Option<u8>],
    ) -> NeuronGateCounts {
        thread_local! {
            static BUFFERS: std::cell::RefCell<(NeuronArithSpec, Vec<u32>)> =
                const {
                    std::cell::RefCell::new((
                        NeuronArithSpec {
                            input_bits: 0,
                            weights: Vec::new(),
                            bias: 0,
                        },
                        Vec::new(),
                    ))
                };
        }
        self.gate_counts.fetch_add(1, Ordering::Relaxed);
        BUFFERS.with(|buffers| {
            let (spec, heights) = &mut *buffers.borrow_mut();
            neuron.to_arith_spec_into(input_bits, spec);
            spec.bias = bias;
            if folded.iter().any(Option::is_some) {
                let mut input = folded.iter();
                spec.weights
                    .retain(|_| input.next().is_none_or(Option::is_none));
            }
            tree_gates(spec, heights).counts
        })
    }

    /// The attached sink's ingest counters (all zero without a sink) —
    /// surfaced per GA generation as the `store_*` counters of
    /// [`ProgressEvent::EvalCache`](crate::ProgressEvent::EvalCache).
    #[must_use]
    pub fn store_stats(&self) -> pe_store::StoreStats {
        self.sink
            .as_ref()
            .map(crate::store::StoreSink::stats)
            .unwrap_or_default()
    }

    /// The accuracy the GA optimizes: nominal columnar accuracy, or —
    /// under [`with_variation`](Self::with_variation) — the robust
    /// statistic over the Monte-Carlo trials'
    /// ([`crate::robust::Trials`]) accuracies. With a zero-variance
    /// model the two are equal bit for bit.
    fn fitness_accuracy(&self, mlp: &pe_mlp::AxMlp, scratch: &mut ColumnarScratch) -> f64 {
        match &self.robust {
            Some(robust) => {
                let accs = robust.trials.accuracies(mlp, &self.labels, scratch);
                robust.statistic.statistic(&accs)
            }
            None => self.nominal_accuracy(mlp, scratch),
        }
    }

    /// Accuracy of `mlp` over the dataset on the columnar forward pass.
    fn nominal_accuracy(&self, mlp: &pe_mlp::AxMlp, scratch: &mut ColumnarScratch) -> f64 {
        let hits = columnar::hits_columns(mlp, &self.columns, &self.labels, scratch, None);
        hits as f64 / self.labels.len() as f64
    }

    /// Assemble the Eq. (3) [`Evaluation`] from a scored
    /// `(accuracy, area)` pair: minimized objectives plus the 10%
    /// feasibility bound — and, under a power-budgeted
    /// [`CostScenario`], the power excess — as a constrained-domination
    /// violation (Deb's rule sums the normalized violations). The
    /// single definition of the fitness formula — reference oracles
    /// (bench, parity tests) build their evaluations through this too,
    /// so they can never drift from the real path.
    ///
    /// # Panics
    ///
    /// Panics if a power budget is configured together with the
    /// [`AreaObjective::FaCount`] proxy: the FA count carries no
    /// gate-equivalent information, so no power figure can be derived
    /// from it (the pipeline validates this at configuration time).
    #[must_use]
    pub fn evaluation_of(&self, accuracy: f64, area: f64) -> Evaluation {
        let objectives = vec![1.0 - accuracy, area];
        let floor = self.accuracy_floor();
        let mut violation = if accuracy + 1e-12 >= floor {
            0.0
        } else {
            floor - accuracy
        };
        if let Some(budget) = self.scenario.power_budget_mw {
            assert!(
                self.objective == AreaObjective::GateEquivalents,
                "a power budget requires the GateEquivalents area objective"
            );
            let power = self.estimated_power_mw(area);
            if power > budget {
                violation += (power - budget) / budget.max(f64::MIN_POSITIVE);
            }
        }
        if violation > 0.0 {
            Evaluation::infeasible(objectives, violation)
        } else {
            Evaluation::feasible(objectives)
        }
    }

    /// Full evaluation (objectives + feasibility) against reusable
    /// scratch buffers. With a design-store sink attached the scored
    /// design is offered to the store as a side effect — for robust
    /// searches the record additionally carries the nominal accuracy
    /// (one extra columnar pass per evaluation).
    fn evaluate_with(&self, genes: &[u32], scratch: &mut EvalScratch) -> Evaluation {
        let EvalScratch { columnar, decoded } = scratch;
        self.spec.decode_into(genes, decoded);
        let mlp = &*decoded;
        let accuracy = self.fitness_accuracy(mlp, columnar);
        let area = self.area_of(mlp);
        if let Some(sink) = &self.sink {
            let (nominal, robust) = if self.robust.is_some() {
                let nominal = self.nominal_accuracy(mlp, columnar);
                (nominal, Some(accuracy))
            } else {
                (accuracy, None)
            };
            sink.record_evaluation(mlp, nominal, robust, area);
        }
        self.evaluation_of(accuracy, area)
    }

    /// Analytic gate-equivalent area of a decoded network, mirroring
    /// the netlist elaborator: adder-tree FAs, sign-inversion NOTs,
    /// QReLU units, and the argmax comparator over bias-normalized
    /// output accumulators.
    ///
    /// It prices the network [`pe_mlp::fold_constants`] leaves without
    /// building it: a hidden neuron with no live mask bit is the
    /// constant `QReLU(bias)` and costs nothing, each of its products
    /// folds into the next layer's biases, and their weights on it are
    /// gone. Layer by layer, in one forward walk (the fold's fixed
    /// point: a neuron whose every live input folded is constant in
    /// turn), against per-thread buffers of the constants.
    #[must_use]
    pub fn gate_equivalents(&self, mlp: &pe_mlp::AxMlp) -> f64 {
        /// The constants of the layer being priced's inputs, and of its
        /// outputs (`None` for a live neuron).
        type Constants = (Vec<Option<u8>>, Vec<Option<u8>>);
        thread_local! {
            static CONSTANTS: std::cell::RefCell<Constants> =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
        }
        CONSTANTS.with(|constants| {
            let (inputs, outputs) = &mut *constants.borrow_mut();
            inputs.clear();
            let tech = &self.scenario.tech;
            let mut ge = 0.0f64;
            let last = mlp.layers.len().saturating_sub(1);
            for (li, layer) in mlp.layers.iter().enumerate() {
                let folded = |n: &pe_mlp::AxNeuron| folded_bias(n, inputs);
                let bias_shift = if li == last {
                    layer.neurons.iter().map(|n| folded(n).0).min().unwrap_or(0)
                } else {
                    0
                };
                let constant_source = if li < last { layer.qrelu } else { None };
                outputs.clear();
                let mut max_width = 1u32;
                for n in &layer.neurons {
                    let (bias, live) = folded(n);
                    if let Some(q) = constant_source {
                        let constant = (!live).then(|| q.apply(i64::from(bias)));
                        outputs.push(constant);
                        if constant.is_some() {
                            continue;
                        }
                    }
                    let bias = i64::from(bias) - i64::from(bias_shift);
                    let counts = self.gate_counts_of(n, layer.input_bits, bias, inputs);
                    // The single pe-arith → pe-hw gate-count conversion.
                    ge += tech.ge_total(&pe_hw::CellCounts::from(&counts));
                    max_width = max_width.max(counts.accumulator_bits);
                    if let Some(q) = layer.qrelu {
                        let gates = qrelu_gate_counts(counts.accumulator_bits, q.out_bits, q.shift);
                        ge += tech.ge_total(&gates);
                    }
                }
                if layer.qrelu.is_none() {
                    let gates = argmax_gate_counts(layer.neurons.len(), max_width);
                    ge += tech.ge_total(&gates);
                }
                std::mem::swap(inputs, outputs);
            }
            ge
        })
    }
}

/// `neuron`'s bias with the products of its constant inputs (`Some` in
/// `inputs`, which may be shorter than the fan-in) folded in, as
/// [`pe_mlp::fold_constants`] folds them, and whether a weight on a
/// live input keeps a mask bit.
fn folded_bias(neuron: &pe_mlp::AxNeuron, inputs: &[Option<u8>]) -> (i32, bool) {
    let mut bias = i64::from(neuron.bias);
    let mut live = false;
    for (j, w) in neuron.weights.iter().enumerate() {
        match inputs.get(j).copied().flatten() {
            Some(v) => {
                let term = i64::from(u16::from(v) & w.mask) << w.shift;
                bias += if w.negative { -term } else { term };
            }
            None => live |= w.mask != 0,
        }
    }
    let bias = bias.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
    (bias, live)
}

/// Estimated mW per gate equivalent at a scenario's operating supply.
fn power_per_ge_at_supply(scenario: &CostScenario) -> f64 {
    scenario.tech.power_per_ge_mw * scenario.vdd.power_scale(scenario.supply_v)
}

/// Per-thread evaluation buffers: the columnar forward pass's scratch
/// and the decode-in-place network, both reused across genomes so a
/// steady-state evaluation allocates nothing but its objectives.
#[derive(Debug, Default)]
struct EvalScratch {
    columnar: ColumnarScratch,
    decoded: pe_mlp::AxMlp,
}

impl IntProblem for AxTrainProblem {
    fn bounds(&self) -> &[u32] {
        self.spec.bounds()
    }

    fn evaluate(&self, genes: &[u32]) -> Evaluation {
        // One scratch per worker thread, reused across every genome
        // that thread scores — the per-column buffer allocations leave
        // the hot loop entirely.
        thread_local! {
            static SCRATCH: std::cell::RefCell<EvalScratch> =
                std::cell::RefCell::new(EvalScratch::default());
        }
        SCRATCH.with(|scratch| self.evaluate_with(genes, &mut scratch.borrow_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::LayerGenomeSpec;

    /// A threshold problem a single masked neuron can solve: class 1
    /// iff x > 7.
    fn threshold_problem(max_loss: f64) -> AxTrainProblem {
        let spec = GenomeSpec::new(
            vec![LayerGenomeSpec {
                fan_in: 1,
                neurons: 2,
                input_bits: 4,
                qrelu: None,
            }],
            8,
            8,
        );
        let rows: Vec<Vec<u8>> = (0..16u8).map(|v| vec![v]).collect();
        let labels: Vec<usize> = (0..16).map(|v| usize::from(v > 7)).collect();
        AxTrainProblem::new(spec, QuantMatrix::from_rows(&rows), labels, 1.0, max_loss)
    }

    /// Genome: neuron0 = const 0 (zero mask, bias 0), neuron1 = x − 7,
    /// so the argmax (ties to neuron0) flips to class 1 exactly at
    /// x = 8.
    fn good_genes(problem: &AxTrainProblem) -> Vec<u32> {
        let spec = problem.genome_spec();
        let mut genes = vec![0u32; spec.gene_count()];
        // Layout: n0: m,s,k,b  n1: m,s,k,b with bias offset 128.
        genes[3] = 128; // n0 bias = 0
        genes[4] = 0b1111; // n1 mask full
        genes[5] = 0; // positive
        genes[6] = 0; // k = 0
        genes[7] = 128 - 7; // n1 bias = -7
        genes
    }

    #[test]
    fn perfect_classifier_scores_zero_error() {
        let p = threshold_problem(0.10);
        let e = p.evaluate(&good_genes(&p));
        assert!(e.is_feasible());
        assert!(e.objectives[0] < 1e-9, "error {}", e.objectives[0]);
        assert!(e.objectives[1] > 0.0, "area must be positive");
    }

    #[test]
    fn empty_network_is_infeasible_under_tight_bound() {
        let p = threshold_problem(0.10);
        let genes = vec![0u32; p.genome_spec().gene_count()];
        let e = p.evaluate(&genes);
        // All-zero masks with huge negative biases: ~50% accuracy at
        // best, violating the 90% floor.
        assert!(!e.is_feasible());
        assert!(e.violation > 0.0);
    }

    #[test]
    fn area_objective_rewards_pruning() {
        // Three inputs per neuron so kept mask bits stack into 3-high
        // columns (real FAs) and pruning visibly reduces the objective.
        let spec = GenomeSpec::new(
            vec![LayerGenomeSpec {
                fan_in: 3,
                neurons: 2,
                input_bits: 4,
                qrelu: None,
            }],
            8,
            8,
        );
        let rows: Vec<Vec<u8>> = (0..16u8).map(|v| vec![v, v, v]).collect();
        let labels: Vec<usize> = (0..16).map(|v| usize::from(v > 7)).collect();
        let p = AxTrainProblem::new(spec, QuantMatrix::from_rows(&rows), labels, 1.0, 1.0);
        // Neuron 0: three full-mask positive weights; neuron 1 inactive.
        let mut full = vec![0u32; p.genome_spec().gene_count()];
        for w in 0..3 {
            full[w * 3] = 0b1111; // mask
        }
        full[9] = 128; // n0 bias = 0
        full[19] = 128; // n1 bias = 0
        let mut pruned = full.clone();
        for w in 0..3 {
            pruned[w * 3] = 0b1000;
        }
        let e_full = p.evaluate(&full);
        let e_pruned = p.evaluate(&pruned);
        assert!(
            e_pruned.objectives[1] < e_full.objectives[1],
            "pruned {} vs full {}",
            e_pruned.objectives[1],
            e_full.objectives[1]
        );
    }

    #[test]
    fn floor_clamps_at_zero() {
        let p = threshold_problem(5.0);
        assert_eq!(p.accuracy_floor(), 0.0);
    }

    #[test]
    fn default_scenario_reproduces_the_unbudgeted_fitness() {
        // `with_scenario(default)` must be a no-op on the evaluation —
        // the bit-identity guarantee behind the refactor.
        let p = threshold_problem(0.10);
        let scoped = threshold_problem(0.10).with_scenario(pe_hw::CostScenario::default());
        let genes = good_genes(&p);
        assert_eq!(p.evaluate(&genes), scoped.evaluate(&genes));
    }

    #[test]
    fn power_budget_marks_hungry_designs_infeasible() {
        let genes = good_genes(&threshold_problem(0.10));
        // Unconstrained: the perfect classifier is feasible.
        let free = threshold_problem(0.10);
        let e_free = free.evaluate(&genes);
        assert!(e_free.is_feasible());
        let area_ge = e_free.objectives[1];
        let power = free.estimated_power_mw(area_ge);
        assert!(power > 0.0);

        // A budget just above the estimate keeps it feasible (the
        // boundary is inclusive)…
        let roomy = threshold_problem(0.10)
            .with_scenario(pe_hw::CostScenario::default().with_power_budget_mw(power));
        assert!(roomy.evaluate(&genes).is_feasible());

        // …a budget below it pushes the design into constrained
        // domination with a violation that grows with the excess.
        let tight = threshold_problem(0.10)
            .with_scenario(pe_hw::CostScenario::default().with_power_budget_mw(power * 0.5));
        let e_tight = tight.evaluate(&genes);
        assert!(!e_tight.is_feasible());
        assert!(e_tight.violation > 0.0);
        let tighter = threshold_problem(0.10)
            .with_scenario(pe_hw::CostScenario::default().with_power_budget_mw(power * 0.25));
        assert!(tighter.evaluate(&genes).violation > e_tight.violation);
        // Objectives themselves are unchanged — the budget acts purely
        // through Deb's constrained domination.
        assert_eq!(e_tight.objectives, e_free.objectives);
    }

    #[test]
    fn undervolted_scenario_relaxes_the_power_constraint() {
        let genes = good_genes(&threshold_problem(0.10));
        let free = threshold_problem(0.10);
        let area_ge = free.evaluate(&genes).objectives[1];
        let nominal_power = free.estimated_power_mw(area_ge);
        // A budget that is too tight at 1 V…
        let at_1v = threshold_problem(0.10).with_scenario(
            pe_hw::CostScenario::default().with_power_budget_mw(nominal_power * 0.5),
        );
        assert!(!at_1v.evaluate(&genes).is_feasible());
        // …fits at 0.6 V, where power drops ~4.5×.
        let at_0v6 = threshold_problem(0.10).with_scenario(
            pe_hw::CostScenario::default()
                .at_supply(0.6)
                .with_power_budget_mw(nominal_power * 0.5),
        );
        assert!(at_0v6.evaluate(&genes).is_feasible());
    }

    /// A two-layer (hidden QReLU + argmax) problem over the same
    /// threshold data, exercising the hidden-column path.
    fn deep_problem() -> (AxTrainProblem, QuantMatrix, Vec<usize>) {
        let spec = GenomeSpec::new(
            vec![
                LayerGenomeSpec {
                    fan_in: 1,
                    neurons: 3,
                    input_bits: 4,
                    qrelu: Some(pe_mlp::QReluCfg {
                        out_bits: 4,
                        shift: 0,
                    }),
                },
                LayerGenomeSpec {
                    fan_in: 3,
                    neurons: 2,
                    input_bits: 4,
                    qrelu: None,
                },
            ],
            8,
            8,
        );
        let rows: Vec<Vec<u8>> = (0..16u8).map(|v| vec![v]).collect();
        let labels: Vec<usize> = (0..16).map(|v| usize::from(v > 7)).collect();
        let matrix = QuantMatrix::from_rows(&rows);
        let p = AxTrainProblem::new(spec, matrix.clone(), labels.clone(), 1.0, 1.0);
        (p, matrix, labels)
    }

    /// The area of the network [`pe_mlp::fold_constants`] builds,
    /// priced layer by layer: what [`AxTrainProblem::gate_equivalents`]
    /// computes without building it.
    fn folded_network_area(problem: &AxTrainProblem, mlp: &pe_mlp::AxMlp) -> f64 {
        let mlp = pe_mlp::fold_constants(mlp);
        let tech = &problem.scenario.tech;
        let mut ge = 0.0f64;
        let last = mlp.layers.len().saturating_sub(1);
        for (li, layer) in mlp.layers.iter().enumerate() {
            let bias_shift = if li == last {
                layer.neurons.iter().map(|n| n.bias).min().unwrap_or(0)
            } else {
                0
            };
            let mut max_width = 1u32;
            for n in &layer.neurons {
                let bias = i64::from(n.bias) - i64::from(bias_shift);
                let counts = problem.gate_counts_of(n, layer.input_bits, bias, &[]);
                ge += tech.ge_total(&pe_hw::CellCounts::from(&counts));
                max_width = max_width.max(counts.accumulator_bits);
                if let Some(q) = layer.qrelu {
                    ge += tech.ge_total(&qrelu_gate_counts(
                        counts.accumulator_bits,
                        q.out_bits,
                        q.shift,
                    ));
                }
            }
            if layer.qrelu.is_none() {
                ge += tech.ge_total(&argmax_gate_counts(layer.neurons.len(), max_width));
            }
        }
        ge
    }

    /// Random networks of one to three hidden layers, with fully masked
    /// neurons (and, through them, neurons whose every live input is a
    /// constant) in every hidden layer: pricing the folded network
    /// without building it gives the same bits as building it.
    #[test]
    fn gate_equivalents_price_the_folded_network() {
        use rand::{Rng, SeedableRng};
        let problem = threshold_problem(0.10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xf01d);
        let mut folds = 0;
        for _ in 0..400 {
            let widths: Vec<usize> = (0..rng.gen_range(2..=4))
                .map(|_| rng.gen_range(1..=4))
                .collect();
            let mut fan_in = rng.gen_range(1..=5);
            let layers = widths
                .iter()
                .enumerate()
                .map(|(li, &width)| {
                    let hidden = li + 1 < widths.len();
                    let input_bits = if li == 0 { 4 } else { 8 };
                    let neurons = (0..width)
                        .map(|_| pe_mlp::AxNeuron {
                            weights: (0..fan_in)
                                .map(|_| pe_mlp::AxWeight {
                                    mask: if rng.gen_range(0..3) == 0 {
                                        0
                                    } else {
                                        rng.gen_range(0..1 << input_bits)
                                    },
                                    shift: rng.gen_range(0..7),
                                    negative: rng.gen(),
                                })
                                .collect(),
                            bias: rng.gen_range(-300..300),
                        })
                        .collect();
                    let layer = pe_mlp::AxLayer {
                        input_bits,
                        neurons,
                        qrelu: hidden.then_some(pe_mlp::QReluCfg {
                            out_bits: 8,
                            shift: rng.gen_range(0..4),
                        }),
                    };
                    fan_in = width;
                    layer
                })
                .collect();
            let mlp = pe_mlp::AxMlp { layers };
            folds += usize::from(pe_mlp::fold_constants(&mlp) != mlp);
            let (got, want) = (
                problem.gate_equivalents(&mlp),
                folded_network_area(&problem, &mlp),
            );
            assert_eq!(got.to_bits(), want.to_bits(), "{mlp:?}");
        }
        assert!(folds > 100, "only {folds} networks folded");
    }

    #[test]
    fn zero_variance_robust_evaluation_equals_nominal() {
        let nominal = threshold_problem(0.10);
        let genes = good_genes(&nominal);
        for trials in [1, 3, 8] {
            let config = pe_hw::VariationConfig::new(pe_hw::VariationModel::nominal(), trials);
            let robust = threshold_problem(0.10).with_variation(&config, 42);
            assert_eq!(nominal.evaluate(&genes), robust.evaluate(&genes));
            let p95 = threshold_problem(0.10)
                .with_variation(&config.with_statistic(pe_hw::RobustStat::P95), 42);
            assert_eq!(nominal.evaluate(&genes), p95.evaluate(&genes));
        }
        // Deep topology too — the hidden-column path.
        let (deep, _, _) = deep_problem();
        let genes = vec![1u32; deep.genome_spec().gene_count()];
        let (deep_robust, _, _) = deep_problem();
        let deep_robust = deep_robust.with_variation(
            &pe_hw::VariationConfig::new(pe_hw::VariationModel::nominal(), 4),
            11,
        );
        assert_eq!(deep.evaluate(&genes), deep_robust.evaluate(&genes));
    }

    /// Index of the largest value, ties to the lowest index: the
    /// hardware comparator.
    fn argmax<T: PartialOrd + Copy>(values: &[T]) -> usize {
        let mut best = 0;
        for (j, &v) in values.iter().enumerate() {
            if v > values[best] {
                best = j;
            }
        }
        best
    }

    /// The per-row Monte-Carlo oracle: each trial's accuracy, with
    /// every row's inputs perturbed, walked through the network one
    /// neuron at a time with the trial's device draw on every
    /// accumulator, and argmaxed with ties to the lowest class. It
    /// shares no code with the columnar pass the robust fitness and
    /// [`crate::robust::mc_accuracy`] run.
    fn per_row_trial_accuracies(
        mlp: &pe_mlp::AxMlp,
        rows: &QuantMatrix,
        labels: &[usize],
        model: &pe_hw::VariationModel,
        trials: usize,
        master: u64,
    ) -> Vec<f64> {
        let input_bits = mlp.layers[0].input_bits;
        let predict = |seed: u64, s: usize, row: &[u8]| -> usize {
            let mut act: Vec<u8> = row
                .iter()
                .enumerate()
                .map(|(f, &x)| model.perturb_input(seed, s, f, x, input_bits))
                .collect();
            for (li, layer) in mlp.layers.iter().enumerate() {
                let accs: Vec<i64> = layer
                    .neurons
                    .iter()
                    .enumerate()
                    .map(|(ni, n)| {
                        let draw = model.device_draw(seed, li, ni, layer.input_bits);
                        draw.apply(n.accumulate(&act))
                    })
                    .collect();
                match layer.qrelu {
                    Some(q) => act = accs.iter().map(|&a| q.apply(a)).collect(),
                    None => return argmax(&accs),
                }
            }
            argmax(&act)
        };
        crate::robust::trial_seeds(master, trials)
            .into_iter()
            .map(|seed| {
                let hits = rows
                    .iter()
                    .zip(labels)
                    .enumerate()
                    .filter(|&(s, (row, &label))| predict(seed, s, row) == label)
                    .count();
                hits as f64 / labels.len() as f64
            })
            .collect()
    }

    #[test]
    fn cached_robust_path_matches_the_uncached_oracle() {
        let model = pe_hw::VariationModel {
            input_noise_lsb: 1.2,
            threshold_sigma: 0.04,
            mobility_sigma: 0.05,
            supply_droop: 0.08,
        };
        let (master, trials) = (7u64, 9usize);
        let (problem, rows, labels) = deep_problem();
        let problem = problem.with_variation(&pe_hw::VariationConfig::new(model, trials), master);
        // Hidden neuron 0 passes the input through (full mask, +2^0,
        // bias 0); class 1 reads it with bias −7 against class 0's
        // constant 0, so nominally every row is right (class 1 from
        // v = 8) and each trial's noise flips its own rows near the
        // boundary.
        let mut genes = vec![0u32; problem.genome_spec().gene_count()];
        for neuron in 0..3 {
            genes[neuron * 4 + 3] = 128;
        }
        genes[0] = 0b1111;
        genes[21] = 128;
        genes[22] = 0b1111;
        genes[31] = 128 - 7;
        let e = problem.evaluate(&genes);
        let mlp = problem.genome_spec().decode(&genes);
        let oracle = per_row_trial_accuracies(&mlp, &rows, &labels, &model, trials, master);
        // A pass that scored every trial with one trial's draws would
        // pass this test only if the trials agreed.
        assert!(
            oracle.iter().any(|&a| a != oracle[0]),
            "the trials must differ: {oracle:?}"
        );
        let worst = pe_hw::RobustStat::WorstCase.statistic(&oracle);
        let p95 = pe_hw::RobustStat::P95.statistic(&oracle);
        assert_eq!(
            1.0 - e.objectives[0],
            worst,
            "worst-case accuracy must equal the oracle's"
        );
        // Same check for the P95 statistic.
        let (p95_problem, _, _) = deep_problem();
        let p95_problem = p95_problem.with_variation(
            &pe_hw::VariationConfig::new(model, trials).with_statistic(pe_hw::RobustStat::P95),
            master,
        );
        let e95 = p95_problem.evaluate(&genes);
        assert_eq!(1.0 - e95.objectives[0], p95);
        // `mc_accuracy` runs the same per-trial pass.
        let summary = crate::robust::mc_accuracy(&mlp, &rows, &labels, &model, trials, master);
        assert_eq!((summary.worst, summary.p95), (worst, p95));
        let mean = oracle.iter().sum::<f64>() / trials as f64;
        assert_eq!(summary.mean, mean);
    }

    #[test]
    fn duplicate_neurons_get_their_own_position_draws() {
        // Two identical hidden specs at different positions receive
        // *different* per-device draws, so the robust path must give
        // each position its own perturbed column. The zero-variance
        // parity tests cannot see this (identity draws), and it only
        // bites with duplicate specs inside one layer.
        let model = pe_hw::VariationModel {
            threshold_sigma: 0.15,
            mobility_sigma: 0.10,
            supply_droop: 0.05,
            input_noise_lsb: 0.0,
        };
        let (master, trials) = (5u64, 8usize);
        let (problem, rows, labels) = deep_problem();
        let problem = problem.with_variation(&pe_hw::VariationConfig::new(model, trials), master);
        let mut genes = vec![0u32; problem.genome_spec().gene_count()];
        // Hidden layer (genes 0..12): three *identical* neurons —
        // full mask, positive, k = 1, bias 0.
        for ni in 0..3 {
            genes[ni * 4] = 0b1111;
            genes[ni * 4 + 2] = 1;
            genes[ni * 4 + 3] = 128;
        }
        // Output layer (genes 12..32): each class reads different
        // hidden positions, so an aliased hidden column would visibly
        // move the argmax.
        genes[12] = 0b1111; // class 0 ← hidden 0
        genes[21] = 128 - 4; // class-0 bias −4
        genes[25] = 0b1111; // class 1 ← hidden 1
        genes[28] = 0b0011; // … plus the low bits of hidden 2
        genes[31] = 128; // class-1 bias 0
        let mlp = problem.genome_spec().decode(&genes);
        assert_eq!(mlp.layers[0].neurons[0], mlp.layers[0].neurons[1]);
        assert_eq!(mlp.layers[0].neurons[0], mlp.layers[0].neurons[2]);
        let e = problem.evaluate(&genes);
        let oracle = per_row_trial_accuracies(&mlp, &rows, &labels, &model, trials, master);
        let worst = pe_hw::RobustStat::WorstCase.statistic(&oracle);
        assert_eq!(
            1.0 - e.objectives[0],
            worst,
            "robust path must match the oracle with duplicate neurons"
        );
        // The trials disagree here, so this pins `mc_accuracy`'s
        // per-trial values too.
        assert!(oracle.iter().any(|&a| a != oracle[0]));
        let summary = crate::robust::mc_accuracy(&mlp, &rows, &labels, &model, trials, master);
        assert_eq!(summary.worst, worst);
        assert_eq!(summary.mean, oracle.iter().sum::<f64>() / trials as f64);
    }

    #[test]
    #[should_panic(expected = "trials must be >= 1")]
    fn with_variation_rejects_zero_trials() {
        let _ = threshold_problem(0.10).with_variation(
            &pe_hw::VariationConfig::new(pe_hw::VariationModel::nominal(), 0),
            1,
        );
    }

    #[test]
    #[should_panic(expected = "requires the GateEquivalents")]
    fn power_budget_rejects_the_fa_count_proxy() {
        let p = threshold_problem(0.10)
            .with_objective(AreaObjective::FaCount)
            .with_scenario(pe_hw::CostScenario::default().with_power_budget_mw(1.0));
        let genes = vec![0u32; p.genome_spec().gene_count()];
        let _ = p.evaluate(&genes);
    }
}
