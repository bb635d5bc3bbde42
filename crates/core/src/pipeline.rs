//! The staged, resumable pipeline API.
//!
//! [`Study`] is the builder; [`Pipeline`] runs the five stages of one
//! dataset's evaluation — [`Prepared`] → [`FloatTrained`] →
//! [`BaselineCosted`] → [`Searched`] → [`Selected`] — each a
//! first-class serializable artifact that can be inspected, cached to
//! disk and resumed. [`Pipeline::run_many`] executes studies for many
//! datasets on a `std::thread` worker pool with deterministic
//! per-dataset seeds ([`derive_seed`]), so parallel and sequential runs
//! produce byte-identical JSON artifacts.
//!
//! ```no_run
//! use pe_datasets::Dataset;
//! use pe_hw::TechLibrary;
//! use printed_axc::{Budget, Study};
//!
//! let pipeline = Study::for_dataset(Dataset::BreastCancer)
//!     .seed(42)
//!     .budget(Budget::Quick)
//!     .tech(TechLibrary::egfet())
//!     .finish()?;
//! let selected = pipeline.run()?;
//! println!("{} designs on the front", selected.searched.outcome.front.len());
//! # Ok::<(), printed_axc::FlowError>(())
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};

use pe_arith::cache::{fnv1a64, splitmix64};
use pe_datasets::{
    generate, quantize, stratified_split, Dataset, DatasetError, QuantizedData, TabularData,
};
use pe_hw::{CostScenario, ExactCostModel, HardwareReport, PowerSource, TechLibrary, VddModel};
use pe_mlp::{fixed_to_hardware, train_best_of_observed, DenseMlp, FixedMlp, QuantConfig};

use crate::engine::{NsgaEngine, SearchContext, SearchEngine, SearchOutcome};
use crate::error::FlowError;
use crate::fitness::AreaObjective;
use crate::flow::{DatasetStudy, StudyConfig};
use crate::pareto::{select_within_budgets, DesignPoint};
use crate::progress::{
    CancelToken, ProgressEvent, ProgressObserver, RunControl, StageCacheCause, StageKind,
};

// ---------------------------------------------------------------- stages

/// Stage 1: generated data, stratified 70/30 split, quantized inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prepared {
    /// Which dataset.
    pub dataset: Dataset,
    /// The master seed the data was generated and split with.
    pub seed: u64,
    /// Normalized float training split.
    pub float_train: TabularData,
    /// Normalized float test split.
    pub float_test: TabularData,
    /// Quantized training split (the paper's 4-bit inputs).
    pub train: QuantizedData,
    /// Quantized test split.
    pub test: QuantizedData,
}

/// Check that a float split fits `topology`: as many labels as rows,
/// every row as wide as the inputs, every label one of the outputs.
fn check_float_split(data: &TabularData, topology: &pe_mlp::Topology) -> Result<(), DatasetError> {
    check_rows(data.features.len(), data.labels.len())?;
    let expected = topology.inputs();
    if let Some((row, found)) = data
        .features
        .iter()
        .map(Vec::len)
        .enumerate()
        .find(|&(_, found)| found != expected)
    {
        return Err(DatasetError::RaggedRow {
            row,
            expected,
            found,
        });
    }
    check_labels(&data.labels, topology.outputs())
}

/// Check that a quantized split fits `topology`: a flat buffer of
/// `width × rows` bytes, as many labels as rows, rows as wide as the
/// inputs, every label one of the outputs.
fn check_quant_split(
    data: &QuantizedData,
    topology: &pe_mlp::Topology,
) -> Result<(), DatasetError> {
    let features = &data.features;
    let (bytes, width, rows) = (features.as_flat().len(), features.width(), features.len());
    if width.checked_mul(rows) != Some(bytes) {
        return Err(DatasetError::BufferSize { bytes, width, rows });
    }
    check_rows(rows, data.labels.len())?;
    let expected = topology.inputs();
    if width != expected {
        return Err(DatasetError::RaggedRow {
            row: 0,
            expected,
            found: width,
        });
    }
    check_labels(&data.labels, topology.outputs())
}

/// Check that `prepared`'s quantized splits fit its dataset's topology
/// and that the training split has samples: the baseline and the
/// search read them, and a hand-edited stage-cache file can hold
/// splits they would panic on or score wrongly.
fn check_quantized_splits(prepared: &Prepared) -> Result<(), DatasetError> {
    let topology = pe_mlp::Topology::new(prepared.dataset.spec().topology());
    check_quant_split(&prepared.train, &topology)?;
    if prepared.train.is_empty() {
        return Err(DatasetError::NoSamples);
    }
    check_quant_split(&prepared.test, &topology)
}

fn check_rows(features: usize, labels: usize) -> Result<(), DatasetError> {
    if features == labels {
        Ok(())
    } else {
        Err(DatasetError::LengthMismatch { features, labels })
    }
}

fn check_labels(labels: &[usize], classes: usize) -> Result<(), DatasetError> {
    match labels.iter().enumerate().find(|&(_, &l)| l >= classes) {
        Some((row, &label)) => Err(DatasetError::LabelOutOfRange {
            row,
            label,
            classes,
        }),
        None => Ok(()),
    }
}

/// Stage 2: the backprop-trained float MLP at the paper's topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FloatTrained {
    /// The previous stage's artifacts.
    pub prepared: Prepared,
    /// The trained float network (best-of-3 restarts).
    pub float_mlp: DenseMlp,
    /// Float accuracy on the test split.
    pub float_test_accuracy: f64,
}

/// Stage 3: the exact bespoke baseline and its circuit cost (the
/// Table I row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineCosted {
    /// The previous stage's artifacts.
    pub float: FloatTrained,
    /// The exact bespoke baseline network.
    pub baseline: FixedMlp,
    /// Baseline accuracy on the quantized training split.
    pub baseline_train_accuracy: f64,
    /// Baseline accuracy on the quantized test split.
    pub baseline_test_accuracy: f64,
    /// Baseline circuit evaluation.
    pub baseline_report: HardwareReport,
}

impl BaselineCosted {
    /// Borrow this stage (plus the study's cost model) as the generic
    /// [`SearchContext`] every [`SearchEngine`] consumes. The model's
    /// [`CostScenario`] defines the technology, supply voltage and
    /// power budget every engine searches and reports under.
    #[must_use]
    pub fn search_context<'a>(&'a self, model: &'a ExactCostModel) -> SearchContext<'a> {
        let prepared = &self.float.prepared;
        let spec = prepared.dataset.spec();
        SearchContext {
            name: spec.name,
            classes: spec.classes,
            baseline: &self.baseline,
            baseline_train_accuracy: self.baseline_train_accuracy,
            train: &prepared.train,
            test: &prepared.test,
            float_mlp: &self.float.float_mlp,
            float_train: &prepared.float_train,
            float_test: &prepared.float_test,
            cost: model,
            eval_threads: crate::eval::thread_budget(),
            // Nominal and storeless by default; `Pipeline::search`
            // injects the study's variation request and design-store
            // sink. Direct callers (benches, engine comparisons) stay
            // nominal bit for bit.
            variation: None,
            store: None,
            checkpoint: None,
        }
    }
}

/// Stage 4: the engine's searched front.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Searched {
    /// The previous stage's artifacts.
    pub costed: BaselineCosted,
    /// Which engine produced the front
    /// ([`SearchEngine::name`]).
    pub engine: String,
    /// The engine's outcome; `outcome.front` is the evaluated Pareto
    /// front.
    pub outcome: SearchOutcome,
}

/// Stage 5: the reported design — smallest area within the loss budget
/// (the Table II row). Convertible into the legacy [`DatasetStudy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Selected {
    /// The previous stage's artifacts.
    pub searched: Searched,
    /// The accuracy-loss budget the selection was made under (so
    /// downstream comparisons can reuse the study's own budget).
    pub loss_budget: f64,
    /// The selected design, if any front member met the budget.
    pub selected: Option<DesignPoint>,
}

impl Selected {
    /// Flatten the stage chain into the legacy [`DatasetStudy`] record.
    #[must_use]
    pub fn into_study(self) -> DatasetStudy {
        let Searched {
            costed, outcome, ..
        } = self.searched;
        let BaselineCosted {
            float,
            baseline,
            baseline_train_accuracy,
            baseline_test_accuracy,
            baseline_report,
        } = costed;
        DatasetStudy {
            dataset: float.prepared.dataset,
            float_test_accuracy: float.float_test_accuracy,
            baseline,
            baseline_train_accuracy,
            baseline_test_accuracy,
            baseline_report,
            outcome,
            selected: self.selected,
            train: float.prepared.train,
            test: float.prepared.test,
        }
    }
}

// ---------------------------------------------------------------- builder

/// Compute-budget presets for [`Study::budget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Seconds per dataset ([`StudyConfig::quick`]): tests, smoke runs.
    Quick,
    /// [`StudyConfig::default`]: population 100 × 100 generations on a
    /// 2000-row fitness subsample. This is not the bench `Full` preset
    /// (`pe-bench`'s `BudgetPreset::Full`, population 150 × 700
    /// generations), which builds its own [`StudyConfig`].
    Full,
}

/// Builder for a [`Pipeline`]: one dataset's staged study.
///
/// ```no_run
/// use pe_datasets::Dataset;
/// use pe_hw::TechLibrary;
/// use printed_axc::{Budget, Study};
///
/// let pipeline = Study::for_dataset(Dataset::RedWine)
///     .seed(7)
///     .budget(Budget::Quick)
///     .tech(TechLibrary::egfet())
///     .cache_dir("target/experiments/stages")
///     .finish()?;
/// # Ok::<(), printed_axc::FlowError>(())
/// ```
#[must_use = "call `.finish()` to validate and build the pipeline"]
pub struct Study {
    dataset: Dataset,
    seed: Option<u64>,
    budget: Budget,
    config: Option<StudyConfig>,
    tech: Option<TechLibrary>,
    supply_v: Option<f64>,
    power_budget_mw: Option<f64>,
    engine: Option<Arc<dyn SearchEngine + Send + Sync>>,
    progress: Option<ProgressObserver>,
    cancel: Option<CancelToken>,
    cache_dir: Option<PathBuf>,
    eval_threads: Option<usize>,
    variation: Option<pe_hw::VariationConfig>,
    variation_statistic: Option<pe_hw::RobustStat>,
    design_store: Option<PathBuf>,
    store_writer: Option<Arc<pe_store::StoreWriter>>,
    warm_start: bool,
    checkpoint_every: Option<usize>,
}

impl Study {
    /// Start building a study of `dataset`.
    pub fn for_dataset(dataset: Dataset) -> Self {
        Self {
            dataset,
            seed: None,
            budget: Budget::Full,
            config: None,
            tech: None,
            supply_v: None,
            power_budget_mw: None,
            engine: None,
            progress: None,
            cancel: None,
            cache_dir: None,
            eval_threads: None,
            variation: None,
            variation_statistic: None,
            design_store: None,
            store_writer: None,
            warm_start: false,
            checkpoint_every: None,
        }
    }

    /// Master seed (data generation, split, SGD and GA). Overrides the
    /// seed inside a [`config`](Self::config), if both are given.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Compute-budget preset (ignored when a full
    /// [`config`](Self::config) is given).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Full study configuration (takes precedence over
    /// [`budget`](Self::budget)).
    pub fn config(mut self, config: StudyConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Technology library for baseline and approximate circuit
    /// evaluation (defaults to [`TechLibrary::egfet`]). Overrides the
    /// technology inside a [`config`](Self::config)'s scenario, if both
    /// are given, and re-anchors the Vdd scaling laws to the library's
    /// voltage range.
    pub fn tech(mut self, tech: TechLibrary) -> Self {
        self.tech = Some(tech);
        self
    }

    /// Operate (search, cost, report) at `supply_v` volts instead of
    /// the technology's nominal supply — the paper's §V-C low-voltage
    /// regime as a first-class study input.
    pub fn supply(mut self, supply_v: f64) -> Self {
        self.supply_v = Some(supply_v);
        self
    }

    /// Constrain the study to designs the printed `source` can drive:
    /// the GA treats over-budget designs as constraint violators and
    /// the selection stage only reports designs within the budget.
    pub fn power_source(self, source: PowerSource) -> Self {
        self.power_budget_mw(source.budget_mw())
    }

    /// [`power_source`](Self::power_source) with an explicit budget in
    /// mW.
    pub fn power_budget_mw(mut self, budget_mw: f64) -> Self {
        self.power_budget_mw = Some(budget_mw);
        self
    }

    /// Search robustly under process variation: the GA optimizes a
    /// Monte-Carlo robust statistic (worst-case accuracy by default,
    /// see [`variation_statistic`](Self::variation_statistic)) over
    /// `trials` perturbed device instances drawn from `model`, instead
    /// of nominal accuracy. Overrides the variation inside a
    /// [`config`](Self::config), if both are given. A zero-variance
    /// model reproduces the nominal search bit for bit.
    pub fn variation(mut self, model: pe_hw::VariationModel, trials: usize) -> Self {
        self.variation = Some(pe_hw::VariationConfig::new(model, trials));
        self
    }

    /// The robust statistic a [`variation`](Self::variation) search
    /// optimizes (default
    /// [`RobustStat::WorstCase`](pe_hw::RobustStat::WorstCase)).
    /// Applies to the builder's variation and to one carried by a
    /// [`config`](Self::config).
    pub fn variation_statistic(mut self, statistic: pe_hw::RobustStat) -> Self {
        self.variation_statistic = Some(statistic);
        self
    }

    /// Swap the search engine (defaults to the paper's [`NsgaEngine`]
    /// built from the study's GA configuration).
    pub fn engine(mut self, engine: Arc<dyn SearchEngine + Send + Sync>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Observe pipeline progress ([`ProgressEvent`] stream).
    pub fn progress(mut self, observer: impl Fn(&ProgressEvent) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(observer));
        self
    }

    /// Attach a cooperative cancellation token.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Worker budget for the search stage's within-study batch
    /// evaluation (default: the global
    /// [`thread_budget`](crate::eval::thread_budget)).
    /// [`Pipeline::run_many`] sets this to the budget divided by its
    /// dataset workers, so nested pools never oversubscribe. Thread
    /// count never affects results.
    pub fn eval_threads(mut self, threads: usize) -> Self {
        self.eval_threads = Some(threads.max(1));
        self
    }

    /// Record every unique design the search evaluates into the
    /// persistent, deduplicated design store at `path` (a JSON-lines
    /// file, created on first use, appended across runs — see
    /// [`pe_store`]). Ingest is a pure side channel: fronts, seeds and
    /// artifacts are byte-identical with or without a store. Mutually
    /// exclusive with [`design_store_shared`](Self::design_store_shared).
    pub fn design_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.design_store = Some(path.into());
        self
    }

    /// [`design_store`](Self::design_store) through an already-open
    /// writer, so several pipelines (e.g. [`Pipeline::run_many`]
    /// workers) append to one store file concurrently.
    pub fn design_store_shared(mut self, writer: Arc<pe_store::StoreWriter>) -> Self {
        self.store_writer = Some(writer);
        self
    }

    /// Seed the GA's initial population from the design store's saved
    /// front of this dataset (best test accuracy first, capped at a
    /// quarter of the population) in addition to the doped seeds.
    /// Requires a [`design_store`](Self::design_store); unlike plain
    /// ingest, warm-start *does* steer the search, so the stage-cache
    /// key mixes the warm pool's fingerprints whenever it is non-empty.
    pub fn warm_start(mut self, enabled: bool) -> Self {
        self.warm_start = enabled;
        self
    }

    /// Cache stage artifacts as JSON under `dir` and resume from them
    /// on the next run (see [`Pipeline::searched`] and friends).
    ///
    /// Each stage file holds the stage's own payload plus a link to
    /// its parent stage's file, so every stage is written once and
    /// loading a stage walks the chain back to [`Prepared`]; a broken
    /// link recomputes the stage. Cache entries are
    /// keyed by the full [`StudyConfig`] plus the engine's name and
    /// [`SearchEngine::cache_fingerprint`] — a custom engine whose
    /// fingerprint omits part of its configuration can alias entries;
    /// give such pipelines distinct cache directories.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Flush a crash-safety checkpoint of the search stage every
    /// `every` completed GA generations (default
    /// [`DEFAULT_CHECKPOINT_EVERY`](crate::checkpoint::DEFAULT_CHECKPOINT_EVERY);
    /// `0` disables checkpointing). Requires a
    /// [`cache_dir`](Self::cache_dir) — the checkpoint lives next to
    /// the `Searched` stage artifact and is deleted once that artifact
    /// is safely on disk. A killed or cancelled pipeline then resumes
    /// the search from its last checkpoint instead of generation zero,
    /// and produces byte-identical artifacts either way. The cadence
    /// is pure durability policy: it is not part of any stage-cache
    /// key.
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Validate the configuration and build the [`Pipeline`].
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidConfig`] when the configuration cannot run:
    /// GA population below 2, zero generations, non-positive SGD epoch
    /// scale, an accuracy budget outside `[0, 1]`, a weight width
    /// outside `2..=16` bits or a bias width outside `2..=24` bits
    /// (what the genome can encode), an input or activation width
    /// outside `1..=8` bits, a fitness subsample of zero rows, an
    /// operating supply outside the technology's range, a non-positive
    /// power budget, a power budget combined with the FA-count area
    /// proxy (which carries no power information), an invalid
    /// variation request (zero trials, a negative spread, droop outside
    /// `[0, 1)`), a variation statistic without a variation (from the
    /// builder or the config), both a design-store path and a shared
    /// writer, or warm-start without a design store.
    /// [`FlowError::Store`] when the design-store file cannot be
    /// opened or is corrupt.
    pub fn finish(self) -> Result<Pipeline, FlowError> {
        let mut config = match (self.config, self.budget) {
            (Some(config), _) => config,
            (None, Budget::Quick) => StudyConfig::quick(self.seed.unwrap_or(0)),
            (None, Budget::Full) => StudyConfig::default(),
        };
        if let Some(seed) = self.seed {
            config.seed = seed;
            config.ga.nsga.seed = seed;
        }
        // Builder-level scenario knobs override the config's scenario.
        if let Some(tech) = self.tech {
            // Re-anchor the Vdd laws to the new library's voltage range
            // while preserving any custom scaling exponents the config's
            // scenario carried (the exponents are a property of the
            // logic family, not of the library swap).
            config.scenario.vdd = VddModel {
                nominal_vdd: tech.nominal_vdd,
                min_vdd: tech.min_vdd,
                ..config.scenario.vdd
            };
            if config.scenario.supply_v == config.scenario.tech.nominal_vdd {
                config.scenario.supply_v = tech.nominal_vdd;
            }
            config.scenario.tech = tech;
        }
        if let Some(supply_v) = self.supply_v {
            config.scenario.supply_v = supply_v;
        }
        if let Some(budget_mw) = self.power_budget_mw {
            config.scenario.power_budget_mw = Some(budget_mw);
        }
        if let Some(variation) = self.variation {
            config.variation = Some(variation);
        }
        let invalid = |reason: String| Err(FlowError::InvalidConfig { reason });
        if let Some(statistic) = self.variation_statistic {
            match &mut config.variation {
                Some(variation) => variation.statistic = statistic,
                None => return invalid("a variation statistic requires a variation".into()),
            }
        }
        let scenario = &config.scenario;
        if !pe_hw::cost::supply_in_range(&scenario.tech, scenario.supply_v) {
            return invalid(format!(
                "operating supply {} V outside the {} range [{}, {}] V",
                scenario.supply_v,
                scenario.tech.name,
                scenario.tech.min_vdd,
                scenario.tech.nominal_vdd
            ));
        }
        if let Some(budget) = scenario.power_budget_mw {
            if !(budget.is_finite() && budget > 0.0) {
                return invalid(format!("power budget must be positive, got {budget} mW"));
            }
            if config.ga.objective != AreaObjective::GateEquivalents {
                return invalid(
                    "a power budget requires the GateEquivalents area objective \
                     (the FA-count proxy carries no power information)"
                        .into(),
                );
            }
        }
        if config.ga.nsga.population < 2 {
            return invalid(format!(
                "GA population must be at least 2, got {}",
                config.ga.nsga.population
            ));
        }
        if config.ga.nsga.generations == 0 {
            return invalid("GA generation budget must be positive".into());
        }
        if !(config.sgd_epochs_scale > 0.0 && config.sgd_epochs_scale.is_finite()) {
            return invalid(format!(
                "SGD epoch scale must be a positive finite number, got {}",
                config.sgd_epochs_scale
            ));
        }
        if !(0.0..=1.0).contains(&config.accuracy_loss_budget) {
            return invalid(format!(
                "accuracy-loss budget must be within [0, 1], got {}",
                config.accuracy_loss_budget
            ));
        }
        // `GenomeSpec::new` panics on widths the genome cannot encode;
        // reject them here, before SGD spends its time.
        if !(2..=16).contains(&config.ga.weight_bits) {
            return invalid(format!(
                "weight width must be within 2..=16 bits, got {}",
                config.ga.weight_bits
            ));
        }
        if !(2..=24).contains(&config.ga.bias_bits) {
            return invalid(format!(
                "bias width must be within 2..=24 bits, got {}",
                config.ga.bias_bits
            ));
        }
        // Inputs and hidden activations travel as `u8`: a zero width
        // panics in `GenomeSpec::new`, and a width above 8 bits would
        // saturate the quantized features or wrap the QReLU outputs.
        if !(1..=8).contains(&config.ga.input_bits) {
            return invalid(format!(
                "input width must be within 1..=8 bits, got {}",
                config.ga.input_bits
            ));
        }
        if !(1..=8).contains(&config.ga.activation_bits) {
            return invalid(format!(
                "activation width must be within 1..=8 bits, got {}",
                config.ga.activation_bits
            ));
        }
        if config.ga.fitness_subsample == Some(0) {
            return invalid("fitness subsample must keep at least one row".into());
        }
        if let Some(variation) = &config.variation {
            if let Err(reason) = variation.validate() {
                return invalid(format!("invalid variation config: {reason}"));
            }
        }
        let store = match (self.design_store, self.store_writer) {
            (Some(_), Some(_)) => {
                return invalid(
                    "give either a design-store path or a shared writer, not both".into(),
                );
            }
            (Some(path), None) => Some(Arc::new(pe_store::StoreWriter::open(&path)?)),
            (None, writer) => writer,
        };
        if self.warm_start && store.is_none() {
            return invalid("warm-start requires a design store".into());
        }
        // The sink (and with it the warm-start pool) is captured here,
        // before this pipeline writes anything — deterministic even
        // when several pipelines share one writer.
        let store_sink = store.map(|writer| {
            crate::store::StoreSink::new(writer, self.dataset.spec().name, self.warm_start)
        });

        let engine = self
            .engine
            .unwrap_or_else(|| Arc::new(NsgaEngine::new(config.ga.clone())));
        Ok(Pipeline {
            dataset: self.dataset,
            config,
            engine,
            progress: self.progress,
            cancel: self.cancel,
            cache_dir: self.cache_dir,
            eval_threads: self.eval_threads,
            store_sink,
            checkpoint_every: self
                .checkpoint_every
                .unwrap_or(crate::checkpoint::DEFAULT_CHECKPOINT_EVERY),
        })
    }
}

// ---------------------------------------------------------------- pipeline

/// A validated, runnable staged study of one dataset.
///
/// The `prepare`/`train_float`/`cost_baseline`/`search`/`select`
/// methods compute single stages; the `prepared`/`float_trained`/
/// `baseline_costed`/`searched`/`selected` methods additionally load
/// from and store to the stage cache (when one is configured), so a
/// resumed pipeline skips every stage whose artifact is on disk.
pub struct Pipeline {
    dataset: Dataset,
    config: StudyConfig,
    engine: Arc<dyn SearchEngine + Send + Sync>,
    progress: Option<ProgressObserver>,
    cancel: Option<CancelToken>,
    cache_dir: Option<PathBuf>,
    eval_threads: Option<usize>,
    store_sink: Option<crate::store::StoreSink>,
    checkpoint_every: usize,
}

impl Pipeline {
    /// The dataset under study.
    #[must_use]
    pub fn dataset(&self) -> Dataset {
        self.dataset
    }

    /// The resolved study configuration.
    #[must_use]
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The cost scenario the study runs under.
    #[must_use]
    pub fn scenario(&self) -> &CostScenario {
        &self.config.scenario
    }

    /// The study's cost model at its scenario.
    fn cost_model(&self) -> ExactCostModel {
        ExactCostModel::new(self.config.scenario.clone())
    }

    /// The active engine's name.
    #[must_use]
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    fn control(&self) -> RunControl<'_> {
        RunControl::new(
            self.progress.as_deref().map(|f| f as _),
            self.cancel.as_ref(),
        )
    }

    // ------------------------------------------------ stage computation

    /// Compute stage 1: generate the dataset, split 70/30 stratified,
    /// quantize inputs.
    ///
    /// # Errors
    ///
    /// [`FlowError::Dataset`] if splitting fails, or
    /// [`FlowError::Cancelled`].
    pub fn prepare(&self) -> Result<Prepared, FlowError> {
        let ctl = self.control();
        ctl.ensure_live(StageKind::Prepared)?;
        ctl.emit(&ProgressEvent::StageStarted {
            stage: StageKind::Prepared,
        });
        let data = generate(self.dataset, self.config.seed);
        let split = stratified_split(&data, 0.7, self.config.seed)?;
        let train = quantize(&split.train, self.config.ga.input_bits);
        let test = quantize(&split.test, self.config.ga.input_bits);
        let stage = Prepared {
            dataset: self.dataset,
            seed: self.config.seed,
            float_train: split.train,
            float_test: split.test,
            train,
            test,
        };
        ctl.emit(&ProgressEvent::StageFinished {
            stage: StageKind::Prepared,
        });
        Ok(stage)
    }

    /// Compute stage 2: backprop-train the float MLP at the paper's
    /// topology (best-of-3 restarts, in lockstep), reporting one
    /// [`ProgressEvent::SgdEpoch`] per restart and epoch. A cancellation
    /// seen at any of them stops every restart after that epoch.
    ///
    /// # Errors
    ///
    /// [`FlowError::Dataset`] when `prepared`'s float splits do not fit
    /// the topology (no training samples, a row of the wrong width, a
    /// label outside the classes, more rows than labels or fewer) — a
    /// hand-edited stage-cache file can hold such a split.
    /// [`FlowError::Cancelled`] when cancelled mid-training.
    pub fn train_float(&self, prepared: Prepared) -> Result<FloatTrained, FlowError> {
        let ctl = self.control();
        ctl.ensure_live(StageKind::FloatTrained)?;
        let spec = prepared.dataset.spec();
        let topology = pe_mlp::Topology::new(spec.topology());
        check_float_split(&prepared.float_train, &topology)?;
        if prepared.float_train.is_empty() {
            return Err(DatasetError::NoSamples.into());
        }
        check_float_split(&prepared.float_test, &topology)?;
        ctl.emit(&ProgressEvent::StageStarted {
            stage: StageKind::FloatTrained,
        });
        let sgd = self.config.sgd_for(&spec);
        let epochs = sgd.epochs;
        let (float_mlp, _) = train_best_of_observed(
            &topology,
            &prepared.float_train.features,
            &prepared.float_train.labels,
            &sgd,
            3,
            |restart, epoch| {
                ctl.emit(&ProgressEvent::SgdEpoch {
                    restart,
                    epoch,
                    epochs,
                });
                !ctl.is_cancelled()
            },
        );
        ctl.ensure_live(StageKind::FloatTrained)?;
        let float_test_accuracy =
            float_mlp.accuracy(&prepared.float_test.features, &prepared.float_test.labels);
        ctl.emit(&ProgressEvent::StageFinished {
            stage: StageKind::FloatTrained,
        });
        Ok(FloatTrained {
            prepared,
            float_mlp,
            float_test_accuracy,
        })
    }

    /// Compute stage 3: quantize to the exact bespoke baseline and
    /// elaborate its circuit (the Table I row).
    ///
    /// # Errors
    ///
    /// [`FlowError::Dataset`] when the quantized splits do not fit the
    /// topology (a flat buffer that is not `width × rows` bytes, rows of
    /// the wrong width, more rows than labels or fewer, a label outside
    /// the classes, no training samples) — a hand-edited stage-cache
    /// file can hold such a split. [`FlowError::Cancelled`].
    pub fn cost_baseline(&self, float: FloatTrained) -> Result<BaselineCosted, FlowError> {
        let ctl = self.control();
        ctl.ensure_live(StageKind::BaselineCosted)?;
        check_quantized_splits(&float.prepared)?;
        ctl.emit(&ProgressEvent::StageStarted {
            stage: StageKind::BaselineCosted,
        });
        let prepared = &float.prepared;
        let spec = prepared.dataset.spec();
        let baseline = FixedMlp::quantize(
            &float.float_mlp,
            QuantConfig {
                weight_bits: self.config.ga.weight_bits,
                input_bits: self.config.ga.input_bits,
                activation_bits: self.config.ga.activation_bits,
            },
            &prepared.float_train.features,
        );
        let baseline_train_accuracy =
            baseline.accuracy(&prepared.train.features, &prepared.train.labels);
        let baseline_test_accuracy =
            baseline.accuracy(&prepared.test.features, &prepared.test.labels);
        // The baseline costs through the same model the search and the
        // selection use — one cost layer end to end.
        let baseline_report = self
            .cost_model()
            .report(&fixed_to_hardware(&baseline, spec.name));
        ctl.emit(&ProgressEvent::StageFinished {
            stage: StageKind::BaselineCosted,
        });
        Ok(BaselineCosted {
            float,
            baseline,
            baseline_train_accuracy,
            baseline_test_accuracy,
            baseline_report,
        })
    }

    /// Compute stage 4: run the configured [`SearchEngine`].
    ///
    /// # Errors
    ///
    /// [`FlowError::Dataset`] when the quantized splits do not fit the
    /// topology, as in [`cost_baseline`](Self::cost_baseline); whatever
    /// the engine returns ([`FlowError::Cancelled`],
    /// [`FlowError::Engine`]).
    pub fn search(&self, costed: BaselineCosted) -> Result<Searched, FlowError> {
        let ctl = self.control();
        ctl.ensure_live(StageKind::Searched)?;
        check_quantized_splits(&costed.float.prepared)?;
        ctl.emit(&ProgressEvent::StageStarted {
            stage: StageKind::Searched,
        });
        let model = self.cost_model();
        // A checkpoint needs a home and a cadence; without a cache_dir
        // (or with cadence 0) the stage runs exactly as before. The
        // checkpoint file sits next to the `Searched` artifact and
        // shares its config-keyed prefix, so differently-configured
        // runs can never resume each other's snapshots (the loader
        // validates the config again regardless).
        let checkpoint = self.checkpoint_path().map(|path| {
            if let Some(parent) = path.parent() {
                if std::fs::create_dir_all(parent).is_err() {
                    ctl.emit(&ProgressEvent::StageCacheDegraded {
                        stage: StageKind::Searched,
                        cause: StageCacheCause::WriteFailed,
                    });
                }
            }
            crate::checkpoint::CheckpointSpec {
                path,
                every: self.checkpoint_every,
            }
        });
        let outcome = {
            let mut ctx = costed.search_context(&model);
            if let Some(threads) = self.eval_threads {
                ctx.eval_threads = threads;
            }
            ctx.variation = self.config.variation.as_ref();
            ctx.store = self.store_sink.as_ref();
            ctx.checkpoint = checkpoint.as_ref();
            self.engine.search(&ctx, &ctl)?
        };
        ctl.emit(&ProgressEvent::StageFinished {
            stage: StageKind::Searched,
        });
        Ok(Searched {
            costed,
            engine: self.engine.name().to_owned(),
            outcome,
        })
    }

    /// Compute stage 5: select the smallest design within the loss
    /// budget — and, when the scenario carries one, the power budget
    /// (the Table II row; `selected: None` when the feasible set is
    /// empty).
    ///
    /// # Errors
    ///
    /// [`FlowError::Cancelled`].
    pub fn select(&self, searched: Searched) -> Result<Selected, FlowError> {
        let ctl = self.control();
        ctl.ensure_live(StageKind::Selected)?;
        ctl.emit(&ProgressEvent::StageStarted {
            stage: StageKind::Selected,
        });
        let selected = select_within_budgets(
            &searched.outcome.front,
            searched.costed.baseline_test_accuracy,
            self.config.accuracy_loss_budget,
            self.config.scenario.power_budget_mw,
        )
        .cloned();
        // The chosen design is flagged in the design store, so store
        // queries (and `cost_sweep`'s store mode) can reproduce the
        // study's own selection without re-running anything.
        if let (Some(sink), Some(point)) = (&self.store_sink, &selected) {
            sink.mark_selected(point);
        }
        ctl.emit(&ProgressEvent::StageFinished {
            stage: StageKind::Selected,
        });
        Ok(Selected {
            searched,
            loss_budget: self.config.accuracy_loss_budget,
            selected,
        })
    }

    // ------------------------------------------------ cached stage chain

    /// Stage 1 through the cache.
    ///
    /// # Errors
    ///
    /// As [`prepare`](Self::prepare).
    pub fn prepared(&self) -> Result<Prepared, FlowError> {
        self.cached(
            StageKind::Prepared,
            |v: &Prepared| self.stage_is_ours(v),
            || self.prepare(),
        )
    }

    /// Stage 2 through the cache (computing earlier stages as needed).
    ///
    /// # Errors
    ///
    /// As [`train_float`](Self::train_float).
    pub fn float_trained(&self) -> Result<FloatTrained, FlowError> {
        self.cached(
            StageKind::FloatTrained,
            |v: &FloatTrained| self.stage_is_ours(&v.prepared),
            || {
                let prepared = self.prepared()?;
                self.train_float(prepared)
            },
        )
    }

    /// Stage 3 through the cache (computing earlier stages as needed).
    ///
    /// # Errors
    ///
    /// As [`cost_baseline`](Self::cost_baseline), whose check of the
    /// quantized splits a loaded stage also passes.
    pub fn baseline_costed(&self) -> Result<BaselineCosted, FlowError> {
        let costed = self.cached(
            StageKind::BaselineCosted,
            |v: &BaselineCosted| self.stage_is_ours(&v.float.prepared),
            || {
                let float = self.float_trained()?;
                self.cost_baseline(float)
            },
        )?;
        // A stage loaded whole from the cache carries splits no stage
        // of this run has checked, and its callers read them.
        check_quantized_splits(&costed.float.prepared)?;
        Ok(costed)
    }

    /// Stage 4 through the cache (computing earlier stages as needed).
    /// A cache hit skips re-running the engine entirely.
    ///
    /// # Errors
    ///
    /// As [`search`](Self::search), whose check of the quantized splits
    /// a loaded stage also passes.
    pub fn searched(&self) -> Result<Searched, FlowError> {
        let searched = self.cached(
            StageKind::Searched,
            |v: &Searched| {
                v.engine == self.engine.name() && self.stage_is_ours(&v.costed.float.prepared)
            },
            || {
                let costed = self.baseline_costed()?;
                self.search(costed)
            },
        )?;
        check_quantized_splits(&searched.costed.float.prepared)?;
        // The checkpoint's job ends once the stage artifact is on disk
        // (`cached` stored it just above); deleting it only after that
        // write means a kill at *any* point leaves something to resume
        // from. Best-effort: a leftover checkpoint is merely re-read
        // and re-deleted next run.
        if let Some(path) = self.checkpoint_path() {
            let _ = std::fs::remove_file(path);
        }
        Ok(searched)
    }

    /// Stage 5 through the cache (computing earlier stages as needed).
    ///
    /// # Errors
    ///
    /// As [`select`](Self::select); [`FlowError::Dataset`] when the
    /// quantized splits do not fit the topology, as in
    /// [`search`](Self::search).
    pub fn selected(&self) -> Result<Selected, FlowError> {
        let selected = self.cached(
            StageKind::Selected,
            |v: &Selected| {
                v.searched.engine == self.engine.name()
                    && self.stage_is_ours(&v.searched.costed.float.prepared)
            },
            || {
                let searched = self.searched()?;
                self.select(searched)
            },
        )?;
        check_quantized_splits(&selected.searched.costed.float.prepared)?;
        Ok(selected)
    }

    /// Run the whole pipeline (all five stages, cache-aware).
    ///
    /// # Errors
    ///
    /// The first stage error encountered.
    pub fn run(&self) -> Result<Selected, FlowError> {
        self.selected()
    }

    /// Run the whole pipeline and flatten into the legacy
    /// [`DatasetStudy`] record.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_study(&self) -> Result<DatasetStudy, FlowError> {
        self.run().map(Selected::into_study)
    }

    // ------------------------------------------------ cache plumbing

    /// A loaded stage belongs to this pipeline iff dataset and seed
    /// match (the file-name hash already covers the full config, this
    /// guards against hand-renamed files).
    fn stage_is_ours(&self, prepared: &Prepared) -> bool {
        prepared.dataset == self.dataset && prepared.seed == self.config.seed
    }

    /// Load `stage` from the cache if its file chain is usable and
    /// `valid` accepts it; otherwise compute and store it. A file that
    /// exists but cannot be used emits one
    /// [`ProgressEvent::StageCacheDegraded`] before the recompute.
    fn cached<T, V, F>(&self, stage: StageKind, valid: V, compute: F) -> Result<T, FlowError>
    where
        T: Serialize + Deserialize,
        V: FnOnce(&T) -> bool,
        F: FnOnce() -> Result<T, FlowError>,
    {
        let degraded = match self.load_stage::<T>(stage) {
            Ok(Some(value)) => {
                if valid(&value) {
                    self.control().emit(&ProgressEvent::StageLoaded { stage });
                    return Ok(value);
                }
                Some(StageCacheCause::NotOurs)
            }
            Ok(None) => None,
            Err(cause) => Some(cause),
        };
        if let Some(cause) = degraded {
            self.control()
                .emit(&ProgressEvent::StageCacheDegraded { stage, cause });
        }
        let value = compute()?;
        self.store_stage(stage, &value);
        Ok(value)
    }

    fn stage_path(&self, stage: StageKind) -> Option<PathBuf> {
        let dir = self.cache_dir.as_ref()?;
        let spec = self.dataset.spec();
        Some(dir.join(format!(
            "{}-{:016x}-{}.json",
            spec.short_name.to_lowercase(),
            self.cache_key(stage),
            stage.as_str()
        )))
    }

    /// Where the search stage's crash-safety checkpoint lives: next to
    /// the `Searched` artifact, under the same config-keyed prefix
    /// (`{short}-{key:016x}-searched.ckpt.json`). `None` without a
    /// cache directory or with checkpointing disabled.
    fn checkpoint_path(&self) -> Option<PathBuf> {
        if self.checkpoint_every == 0 {
            return None;
        }
        let path = self.stage_path(StageKind::Searched)?;
        Some(path.with_extension("ckpt.json"))
    }

    /// Per-stage cache key: hashes only the inputs the stage chain up
    /// to `stage` consumes, so changing a late-stage-only parameter
    /// (the loss budget, the GA budget, the engine) keeps the expensive
    /// early artifacts — the splits and the SGD-trained float model —
    /// warm in the cache.
    ///
    /// Keys cannot see *code* changes — bump [`STAGE_CACHE_VERSION`]
    /// when an algorithm change invalidates previously cached stages.
    fn cache_key(&self, stage: StageKind) -> u64 {
        let cfg = &self.config;
        let mut h = fnv1a64(&STAGE_CACHE_VERSION.to_le_bytes());
        h ^= crate::engine::fingerprint_json(&(cfg.seed, cfg.ga.input_bits));
        if matches!(stage, StageKind::Prepared) {
            return h;
        }
        h ^= crate::engine::fingerprint_json(&cfg.sgd_epochs_scale).rotate_left(1);
        if matches!(stage, StageKind::FloatTrained) {
            return h;
        }
        h ^= crate::engine::fingerprint_json(&(
            cfg.ga.weight_bits,
            cfg.ga.activation_bits,
            // The full scenario: baseline costing depends on tech and
            // supply, the search additionally on the power budget —
            // hashing it whole keeps every scenario's artifacts apart.
            &cfg.scenario,
        ))
        .rotate_left(2);
        if matches!(stage, StageKind::BaselineCosted) {
            return h;
        }
        h ^= crate::engine::fingerprint_json(&cfg.ga).rotate_left(3);
        h ^= fnv1a64(self.engine.name().as_bytes());
        h ^= self.engine.cache_fingerprint();
        // Only mixed when present, so every nominal key — and with it
        // every artifact cached before variation existed — is unchanged.
        if let Some(variation) = &cfg.variation {
            h ^= crate::engine::fingerprint_json(variation).rotate_left(5);
        }
        // Warm-start seeds steer the search, so the seed pool's
        // identity is part of the key — but only when seeds actually
        // exist: an ingest-only store (or warm-start over an empty
        // store) keys exactly like a storeless run, keeping
        // store-enabled artifacts byte-identical to storeless ones.
        if let Some(sink) = &self.store_sink {
            let fps = sink.warm_fingerprints();
            if !fps.is_empty() {
                h ^= crate::engine::fingerprint_json(&fps).rotate_left(6);
            }
        }
        if matches!(stage, StageKind::Searched) {
            return h;
        }
        h ^ crate::engine::fingerprint_json(&cfg.accuracy_loss_budget).rotate_left(4)
    }

    /// Load `stage` from its file and its parents' files: `Ok(None)`
    /// when there is no cache directory or no file for `stage`.
    fn load_stage<T: Deserialize>(&self, stage: StageKind) -> Result<Option<T>, StageCacheCause> {
        let Some(tree) = self.load_tree(stage)? else {
            return Ok(None);
        };
        serde_json::from_value(&tree)
            .map(Some)
            .map_err(|_| StageCacheCause::Malformed)
    }

    /// `stage`'s whole JSON tree: its own file's payload with the
    /// parent link replaced by the parent's tree, loaded the same way.
    fn load_tree(&self, stage: StageKind) -> Result<Option<Value>, StageCacheCause> {
        let Some(path) = self.stage_path(stage) else {
            return Ok(None);
        };
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                return match e.kind() {
                    std::io::ErrorKind::NotFound => Ok(None),
                    std::io::ErrorKind::InvalidData => Err(StageCacheCause::Malformed),
                    _ => Err(StageCacheCause::Unreadable),
                }
            }
        };
        let mut tree = serde_json::parse_value(&text).map_err(|_| StageCacheCause::Malformed)?;
        let Some((parent, field)) = parent_link(stage) else {
            return Ok(Some(tree));
        };
        let Value::Map(entries) = &mut tree else {
            return Err(StageCacheCause::Malformed);
        };
        let link = entries
            .iter_mut()
            .find(|(key, _)| key == PARENT_KEY)
            .ok_or(StageCacheCause::Malformed)?;
        if link.1 != self.parent_link_value(parent) {
            return Err(StageCacheCause::BrokenParentLink);
        }
        let Ok(Some(parent_tree)) = self.load_tree(parent) else {
            return Err(StageCacheCause::BrokenParentLink);
        };
        *link = (field.to_owned(), parent_tree);
        Ok(Some(tree))
    }

    /// The value a stage file stores under [`PARENT_KEY`]: the parent
    /// stage's cache key, as its file name spells it.
    fn parent_link_value(&self, parent: StageKind) -> Value {
        Value::Str(format!("{:016x}", self.cache_key(parent)))
    }

    /// Best-effort store: a failure emits a
    /// [`ProgressEvent::StageCacheDegraded`] but never fails the
    /// pipeline (the in-memory artifact is the primary result).
    ///
    /// Each stage file holds the stage's own payload plus a parent
    /// link: the field holding the previous stage is replaced by
    /// `"parent"`, that stage's cache key. Loading walks the chain, so
    /// every stage is written once. Files are compact JSON. Writes go
    /// through [`pe_store::atomic_write`], so a kill mid-write can never
    /// leave a torn artifact for the next run to load (a torn cache
    /// entry would fail to parse and recompute, but an
    /// atomically-replaced one keeps its previous good contents).
    fn store_stage<T: Serialize>(&self, stage: StageKind, value: &T) {
        let Some(path) = self.stage_path(stage) else {
            return;
        };
        let written = self.stage_payload(stage, value).is_some_and(|tree| {
            let json = serde_json::value_to_string(&tree);
            path.parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| pe_store::atomic_write(&path, json.as_bytes()))
                .is_ok()
        });
        if !written {
            self.control().emit(&ProgressEvent::StageCacheDegraded {
                stage,
                cause: StageCacheCause::WriteFailed,
            });
        }
    }

    /// `value`'s JSON tree with its parent stage's field replaced by
    /// the parent link (`None` if the tree has no such field).
    fn stage_payload<T: Serialize>(&self, stage: StageKind, value: &T) -> Option<Value> {
        let mut tree = serde_json::to_value(value).ok()?;
        if let Some((parent, field)) = parent_link(stage) {
            let Value::Map(entries) = &mut tree else {
                return None;
            };
            let slot = entries.iter_mut().find(|(key, _)| key == field)?;
            *slot = (PARENT_KEY.to_owned(), self.parent_link_value(parent));
        }
        Some(tree)
    }

    // ------------------------------------------------ multi-dataset runs

    /// Run studies for many datasets on a `std::thread` worker pool.
    ///
    /// Each dataset runs at the seed [`derive_seed`]`(base.seed,
    /// dataset)` — deterministic and independent of scheduling — so the
    /// result (and any JSON serialization of it) is byte-identical
    /// whether `threads` is 1 or many. Results come back in input
    /// order.
    ///
    /// # Errors
    ///
    /// The first (by input order) per-dataset error.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panics (stage code reports
    /// failures as [`FlowError`] instead).
    pub fn run_many(
        datasets: &[Dataset],
        base: &StudyConfig,
        opts: &RunManyOptions,
    ) -> Result<Vec<DatasetStudy>, FlowError> {
        Ok(Self::run_many_selected(datasets, base, opts)?
            .into_iter()
            .map(Selected::into_study)
            .collect())
    }

    /// [`run_many`](Self::run_many), returning the full [`Selected`]
    /// stage artifacts instead of the flattened studies.
    ///
    /// # Errors
    ///
    /// The first (by input order) per-dataset error.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panics.
    pub fn run_many_selected(
        datasets: &[Dataset],
        base: &StudyConfig,
        opts: &RunManyOptions,
    ) -> Result<Vec<Selected>, FlowError> {
        let n = datasets.len();
        let budget = match opts.threads {
            0 => crate::eval::thread_budget(),
            t => t,
        };
        let workers = budget.clamp(1, n.max(1));
        let eval_threads = eval_thread_shares(budget, n);
        crate::eval::in_order(n, workers, |i| {
            Self::run_one_of_many(datasets[i], base, opts, eval_threads[i])
        })
        .into_iter()
        .collect()
    }

    fn run_one_of_many(
        dataset: Dataset,
        base: &StudyConfig,
        opts: &RunManyOptions,
        eval_threads: usize,
    ) -> Result<Selected, FlowError> {
        let mut config = base.clone();
        let seed = derive_seed(base.seed, dataset);
        config.seed = seed;
        config.ga.nsga.seed = seed;

        let mut builder = Study::for_dataset(dataset)
            .config(config)
            .eval_threads(eval_threads);
        if let Some(dir) = &opts.cache_dir {
            builder = builder.cache_dir(dir);
        }
        if let Some(progress) = &opts.progress {
            let progress = progress.clone();
            builder = builder.progress(move |event| progress(dataset, event));
        }
        if let Some(token) = &opts.cancel {
            builder = builder.cancel_token(token.clone());
        }
        if let Some(writer) = &opts.store {
            builder = builder.design_store_shared(Arc::clone(writer));
        }
        builder.finish()?.run()
    }
}

/// Each of `n` studies' evaluation threads under a global `budget`:
/// with `min(budget, n)` studies running at once, each study's batch
/// evaluator gets its share of the budget, so dataset-level and
/// within-study parallelism multiply to `budget` threads instead of
/// oversubscribing to `budget²`. The first `budget % n` studies by
/// input index take one thread more, so the shares sum to the budget;
/// below one thread per study, each gets one.
fn eval_thread_shares(budget: usize, n: usize) -> Vec<usize> {
    let workers = budget.clamp(1, n.max(1));
    let (share, extra) = (budget / workers, budget % workers);
    (0..n)
        .map(|i| (share + usize::from(i < extra)).max(1))
        .collect()
}

/// Options for [`Pipeline::run_many`].
#[derive(Default)]
pub struct RunManyOptions {
    /// Worker threads (`0` = the shared
    /// [`thread_budget`](crate::eval::thread_budget), one per core),
    /// capped at the dataset count.
    pub threads: usize,
    /// Stage-cache directory shared by all datasets.
    pub cache_dir: Option<PathBuf>,
    /// Progress observer; events are tagged with their dataset.
    #[allow(clippy::type_complexity)]
    pub progress: Option<Arc<dyn Fn(Dataset, &ProgressEvent) + Send + Sync>>,
    /// Cancellation token shared by all datasets.
    pub cancel: Option<CancelToken>,
    /// Design-store writer shared by all datasets: every study ingests
    /// its unique designs into the one store file (ingest only — the
    /// [`Study::warm_start`] knob is per-study and not exposed here,
    /// so multi-dataset artifacts stay byte-identical to storeless
    /// runs).
    pub store: Option<Arc<pe_store::StoreWriter>>,
}

impl RunManyOptions {
    /// Options running `threads` workers (0 = one per core).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }
}

impl std::fmt::Debug for RunManyOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunManyOptions")
            .field("threads", &self.threads)
            .field("cache_dir", &self.cache_dir)
            .field("progress", &self.progress.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("store", &self.store.as_ref().map(|w| w.path().to_owned()))
            .finish()
    }
}

/// Version tag mixed into every stage-cache key. Bump whenever a
/// stage-affecting algorithm changes (data generation, SGD, the GA,
/// hardware costing) or the stage-file format does, so stale artifacts
/// from older code are never served as current results. Configuration
/// changes are handled automatically; only *code* changes need a bump.
///
/// Version 2: a stage file holds its own payload plus a `"parent"`
/// link to the previous stage's file, instead of embedding the whole
/// upstream chain.
pub const STAGE_CACHE_VERSION: u32 = 2;

/// The field a stage file stores its parent link under.
const PARENT_KEY: &str = "parent";

/// The stage `stage` is computed from, and the field of `stage`'s
/// artifact that holds it.
fn parent_link(stage: StageKind) -> Option<(StageKind, &'static str)> {
    match stage {
        StageKind::Prepared => None,
        StageKind::FloatTrained => Some((StageKind::Prepared, "prepared")),
        StageKind::BaselineCosted => Some((StageKind::FloatTrained, "float")),
        StageKind::Searched => Some((StageKind::BaselineCosted, "costed")),
        StageKind::Selected => Some((StageKind::Searched, "searched")),
    }
}

// ---------------------------------------------------------------- seeding

/// Deterministic per-dataset seed derivation for
/// [`Pipeline::run_many`]: a splitmix64 finalizer over the master seed
/// mixed with an FNV-1a hash of the dataset's short name.
///
/// Stable across dataset-enum reordering (the name is hashed, not the
/// discriminant); pinned by tests so parallel and sequential runs stay
/// byte-identical across releases.
#[must_use]
pub fn derive_seed(master: u64, dataset: Dataset) -> u64 {
    splitmix64(master ^ fnv1a64(dataset.spec().short_name.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Over five datasets the shares sum to the budget, the first
    /// `budget % 5` taking one more, or are all 1 below one thread per
    /// dataset.
    #[test]
    fn the_thread_budget_splits_over_the_datasets_with_no_thread_idle() {
        let cases: [(usize, [usize; 5]); 6] = [
            (1, [1; 5]),
            (2, [1; 5]),
            (5, [1; 5]),
            (8, [2, 2, 2, 1, 1]),
            (10, [2; 5]),
            (13, [3, 3, 3, 2, 2]),
        ];
        for (budget, want) in cases {
            let shares = eval_thread_shares(budget, 5);
            assert_eq!(shares, want, "budget {budget}");
            if budget >= 5 {
                assert_eq!(shares.iter().sum::<usize>(), budget);
            }
        }
    }

    #[test]
    fn builder_rejects_unrunnable_configs() {
        let bad_pop = StudyConfig {
            ga: crate::AxTrainConfig {
                nsga: pe_nsga::NsgaConfig {
                    population: 1,
                    ..pe_nsga::NsgaConfig::default()
                },
                ..crate::AxTrainConfig::default()
            },
            ..StudyConfig::default()
        };
        assert!(matches!(
            Study::for_dataset(Dataset::BreastCancer)
                .config(bad_pop)
                .finish(),
            Err(FlowError::InvalidConfig { .. })
        ));

        let bad_scale = StudyConfig {
            sgd_epochs_scale: 0.0,
            ..StudyConfig::default()
        };
        assert!(matches!(
            Study::for_dataset(Dataset::Cardio)
                .config(bad_scale)
                .finish(),
            Err(FlowError::InvalidConfig { .. })
        ));

        let bad_budget = StudyConfig {
            accuracy_loss_budget: 1.5,
            ..StudyConfig::default()
        };
        assert!(matches!(
            Study::for_dataset(Dataset::RedWine)
                .config(bad_budget)
                .finish(),
            Err(FlowError::InvalidConfig { .. })
        ));

        let empty_subsample = StudyConfig {
            ga: crate::AxTrainConfig {
                fitness_subsample: Some(0),
                ..crate::AxTrainConfig::default()
            },
            ..StudyConfig::default()
        };
        assert!(matches!(
            Study::for_dataset(Dataset::Pendigits)
                .config(empty_subsample)
                .finish(),
            Err(FlowError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn builder_rejects_widths_the_genome_cannot_encode() {
        // Widths in bits: weight, bias, input, activation.
        let with_widths =
            |[weight_bits, bias_bits, input_bits, activation_bits]: [u32; 4]| StudyConfig {
                ga: crate::AxTrainConfig {
                    weight_bits,
                    bias_bits,
                    input_bits,
                    activation_bits,
                    ..crate::AxTrainConfig::default()
                },
                ..StudyConfig::quick(0)
            };
        for widths in [
            [1, 12, 4, 8],
            [17, 12, 4, 8],
            [20, 12, 4, 8],
            [8, 1, 4, 8],
            [8, 25, 4, 8],
            [8, 30, 4, 8],
            [8, 12, 0, 8],
            [8, 12, 9, 8],
            [8, 12, 13, 8],
            [8, 12, 4, 0],
            [8, 12, 4, 9],
            [8, 12, 4, 12],
        ] {
            let result = Study::for_dataset(Dataset::BreastCancer)
                .config(with_widths(widths))
                .finish();
            assert!(
                matches!(result, Err(FlowError::InvalidConfig { .. })),
                "widths {widths:?}"
            );
        }
        // The encodable extremes pass validation.
        for widths in [[2, 2, 1, 1], [16, 24, 8, 8]] {
            assert!(Study::for_dataset(Dataset::BreastCancer)
                .config(with_widths(widths))
                .finish()
                .is_ok());
        }
    }

    #[test]
    fn train_float_rejects_malformed_float_splits() {
        let pipeline = Study::for_dataset(Dataset::BreastCancer)
            .config(StudyConfig::quick(0))
            .finish()
            .expect("valid");
        let prepared = pipeline.prepare().expect("prepared");
        let rows = prepared.float_train.len();
        let inputs = Dataset::BreastCancer.spec().features;
        let classes = Dataset::BreastCancer.spec().classes;
        type Edit = fn(&mut Prepared);
        let cases: [(Edit, DatasetError); 6] = [
            (
                |p| {
                    p.float_train.features.clear();
                    p.float_train.labels.clear();
                },
                DatasetError::NoSamples,
            ),
            (
                |p| {
                    p.float_train
                        .features
                        .iter_mut()
                        .for_each(|row| row.truncate(9))
                },
                DatasetError::RaggedRow {
                    row: 0,
                    expected: inputs,
                    found: 9,
                },
            ),
            (
                |p| p.float_train.features[3].push(0.5),
                DatasetError::RaggedRow {
                    row: 3,
                    expected: inputs,
                    found: inputs + 1,
                },
            ),
            (
                |p| p.float_train.labels[5] = 2,
                DatasetError::LabelOutOfRange {
                    row: 5,
                    label: 2,
                    classes,
                },
            ),
            (
                |p| {
                    p.float_train.labels.pop();
                },
                DatasetError::LengthMismatch {
                    features: rows,
                    labels: rows - 1,
                },
            ),
            (
                |p| p.float_test.features[2].clear(),
                DatasetError::RaggedRow {
                    row: 2,
                    expected: inputs,
                    found: 0,
                },
            ),
        ];
        for (edit, expected) in cases {
            let mut malformed = prepared.clone();
            edit(&mut malformed);
            let result = pipeline.train_float(malformed);
            assert_eq!(result.err(), Some(FlowError::Dataset(expected)));
        }
    }

    #[test]
    fn seed_overrides_config_and_budget_presets_resolve() {
        let pipeline = Study::for_dataset(Dataset::BreastCancer)
            .config(StudyConfig::quick(0))
            .seed(99)
            .finish()
            .expect("valid");
        assert_eq!(pipeline.config().seed, 99);
        assert_eq!(pipeline.config().ga.nsga.seed, 99);

        let quick = Study::for_dataset(Dataset::BreastCancer)
            .seed(5)
            .budget(Budget::Quick)
            .finish()
            .expect("valid");
        assert_eq!(quick.config().ga.nsga.population, 24);
        assert_eq!(quick.engine_name(), "nsga2-axc");
    }

    #[test]
    fn derived_seeds_are_pinned() {
        // Frozen values: parallel and sequential runs must derive the
        // same per-dataset seeds forever, or cached artifacts and
        // regression JSONs silently shift.
        let pinned: Vec<u64> = Dataset::ALL.iter().map(|&d| derive_seed(0, d)).collect();
        assert_eq!(
            pinned,
            [
                0xeb49_dc4c_c013_4230, // BreastCancer
                0x7371_6e54_3ed2_fb41, // Cardio
                0xd771_9ef5_e5bb_bc47, // Pendigits
                0xf2f8_6562_fdf8_cc2f, // RedWine
                0xf0cd_d55a_7f39_10d3, // WhiteWine
            ]
        );
        // Distinct across datasets and master seeds.
        let mut uniq = pinned.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), pinned.len());
        assert_ne!(derive_seed(1, Dataset::BreastCancer), pinned[0]);
    }

    #[test]
    fn cache_key_distinguishes_configs() {
        let a = Study::for_dataset(Dataset::BreastCancer)
            .config(StudyConfig::quick(1))
            .finish()
            .expect("valid");
        let b = Study::for_dataset(Dataset::BreastCancer)
            .config(StudyConfig::quick(2))
            .finish()
            .expect("valid");
        // The seed feeds every stage: all five keys must differ.
        for stage in StageKind::ALL {
            assert_ne!(a.cache_key(stage), b.cache_key(stage), "{stage}");
        }
    }

    #[test]
    fn cache_key_distinguishes_engine_configs() {
        // Same StudyConfig, same engine *name*, different engine
        // configuration: the fingerprint must keep the entries apart.
        let base = StudyConfig::quick(1);
        let default_engine = Study::for_dataset(Dataset::BreastCancer)
            .config(base.clone())
            .finish()
            .expect("valid");
        let fa_engine = Study::for_dataset(Dataset::BreastCancer)
            .config(base.clone())
            .engine(Arc::new(crate::engine::NsgaEngine::new(
                crate::AxTrainConfig {
                    objective: crate::AreaObjective::FaCount,
                    ..base.ga
                },
            )))
            .finish()
            .expect("valid");
        assert_eq!(default_engine.engine_name(), fa_engine.engine_name());
        assert_ne!(
            default_engine.cache_key(StageKind::Searched),
            fa_engine.cache_key(StageKind::Searched)
        );
        // ...while the engine-independent early stages stay shared.
        for stage in [
            StageKind::Prepared,
            StageKind::FloatTrained,
            StageKind::BaselineCosted,
        ] {
            assert_eq!(
                default_engine.cache_key(stage),
                fa_engine.cache_key(stage),
                "{stage}"
            );
        }
    }

    #[test]
    fn cache_key_distinguishes_scenarios_but_keeps_early_stages() {
        // Tech / supply / power budget are search-and-costing inputs:
        // they must re-key BaselineCosted onward while the expensive
        // data and SGD artifacts stay shared.
        let base = StudyConfig::quick(1);
        let nominal = Study::for_dataset(Dataset::BreastCancer)
            .config(base.clone())
            .finish()
            .expect("valid");
        for build in [
            Study::for_dataset(Dataset::BreastCancer)
                .config(base.clone())
                .tech(TechLibrary::egfet_lowpower()),
            Study::for_dataset(Dataset::BreastCancer)
                .config(base.clone())
                .supply(0.6),
            Study::for_dataset(Dataset::BreastCancer)
                .config(base.clone())
                .power_source(PowerSource::Harvester),
        ] {
            let scoped = build.finish().expect("valid");
            for stage in [StageKind::Prepared, StageKind::FloatTrained] {
                assert_eq!(nominal.cache_key(stage), scoped.cache_key(stage), "{stage}");
            }
            for stage in [
                StageKind::BaselineCosted,
                StageKind::Searched,
                StageKind::Selected,
            ] {
                assert_ne!(
                    nominal.cache_key(stage),
                    scoped.cache_key(stage),
                    "{stage} under {}",
                    scoped.scenario().label()
                );
            }
        }
    }

    #[test]
    fn builder_rejects_invalid_scenarios() {
        // Undervolted supply.
        assert!(matches!(
            Study::for_dataset(Dataset::BreastCancer)
                .config(StudyConfig::quick(0))
                .supply(0.2)
                .finish(),
            Err(FlowError::InvalidConfig { .. })
        ));
        // Non-positive power budget.
        assert!(matches!(
            Study::for_dataset(Dataset::BreastCancer)
                .config(StudyConfig::quick(0))
                .power_budget_mw(0.0)
                .finish(),
            Err(FlowError::InvalidConfig { .. })
        ));
        // Power budget with the FA-count proxy (no power information).
        let fa_cfg = StudyConfig {
            ga: crate::AxTrainConfig {
                objective: crate::AreaObjective::FaCount,
                ..StudyConfig::quick(0).ga
            },
            ..StudyConfig::quick(0)
        };
        assert!(matches!(
            Study::for_dataset(Dataset::BreastCancer)
                .config(fa_cfg)
                .power_source(PowerSource::Molex)
                .finish(),
            Err(FlowError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn cache_key_distinguishes_variation_but_keeps_nominal_keys() {
        // A robust study must never be served a nominal cached front
        // (or vice versa), while the data/SGD/baseline artifacts stay
        // shared — and a config with `variation: None` must key exactly
        // like one predating the field, so pre-variation caches and the
        // nominal artifact set survive untouched.
        let base = StudyConfig::quick(1);
        let nominal = Study::for_dataset(Dataset::BreastCancer)
            .config(base.clone())
            .finish()
            .expect("valid");
        let robust = Study::for_dataset(Dataset::BreastCancer)
            .config(base.clone())
            .variation(pe_hw::VariationModel::printed_egfet(), 8)
            .finish()
            .expect("valid");
        for stage in [
            StageKind::Prepared,
            StageKind::FloatTrained,
            StageKind::BaselineCosted,
        ] {
            assert_eq!(nominal.cache_key(stage), robust.cache_key(stage), "{stage}");
        }
        for stage in [StageKind::Searched, StageKind::Selected] {
            assert_ne!(nominal.cache_key(stage), robust.cache_key(stage), "{stage}");
        }
        // The statistic and the trial count are part of the key too.
        let p95 = Study::for_dataset(Dataset::BreastCancer)
            .config(base.clone())
            .variation(pe_hw::VariationModel::printed_egfet(), 8)
            .variation_statistic(pe_hw::RobustStat::P95)
            .finish()
            .expect("valid");
        let more_trials = Study::for_dataset(Dataset::BreastCancer)
            .config(base)
            .variation(pe_hw::VariationModel::printed_egfet(), 16)
            .finish()
            .expect("valid");
        assert_ne!(
            robust.cache_key(StageKind::Searched),
            p95.cache_key(StageKind::Searched)
        );
        assert_ne!(
            robust.cache_key(StageKind::Searched),
            more_trials.cache_key(StageKind::Searched)
        );
    }

    #[test]
    fn builder_rejects_invalid_variation() {
        // Zero Monte-Carlo trials.
        assert!(matches!(
            Study::for_dataset(Dataset::BreastCancer)
                .config(StudyConfig::quick(0))
                .variation(pe_hw::VariationModel::printed_egfet(), 0)
                .finish(),
            Err(FlowError::InvalidConfig { .. })
        ));
        // Negative spread.
        let negative = pe_hw::VariationModel {
            threshold_sigma: -0.1,
            ..pe_hw::VariationModel::nominal()
        };
        assert!(matches!(
            Study::for_dataset(Dataset::BreastCancer)
                .config(StudyConfig::quick(0))
                .variation(negative, 4)
                .finish(),
            Err(FlowError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn a_variation_statistic_needs_a_variation() {
        let statistic = pe_hw::RobustStat::P95;
        let result = Study::for_dataset(Dataset::BreastCancer)
            .config(StudyConfig::quick(0))
            .variation_statistic(statistic)
            .finish();
        assert_eq!(
            result.err(),
            Some(FlowError::InvalidConfig {
                reason: "a variation statistic requires a variation".into()
            })
        );
        // A variation carried by the config takes the statistic.
        let config = StudyConfig {
            variation: Some(pe_hw::VariationConfig::new(
                pe_hw::VariationModel::printed_egfet(),
                4,
            )),
            ..StudyConfig::quick(0)
        };
        let pipeline = Study::for_dataset(Dataset::BreastCancer)
            .config(config)
            .variation_statistic(statistic)
            .finish()
            .expect("valid");
        let variation = pipeline.config().variation.as_ref().expect("a variation");
        assert_eq!(variation.statistic, statistic);
    }

    #[test]
    fn cache_keys_are_stage_scoped() {
        // Changing a late-stage-only parameter must not invalidate the
        // expensive early artifacts.
        let base = StudyConfig::quick(1);
        let a = Study::for_dataset(Dataset::BreastCancer)
            .config(base.clone())
            .finish()
            .expect("valid");
        let b = Study::for_dataset(Dataset::BreastCancer)
            .config(StudyConfig {
                accuracy_loss_budget: 0.02,
                ..base.clone()
            })
            .finish()
            .expect("valid");
        for stage in [
            StageKind::Prepared,
            StageKind::FloatTrained,
            StageKind::BaselineCosted,
            StageKind::Searched,
        ] {
            assert_eq!(a.cache_key(stage), b.cache_key(stage), "{stage}");
        }
        assert_ne!(
            a.cache_key(StageKind::Selected),
            b.cache_key(StageKind::Selected)
        );

        // A bigger GA budget re-searches but keeps the float model.
        let c = Study::for_dataset(Dataset::BreastCancer)
            .config(StudyConfig {
                ga: crate::AxTrainConfig {
                    nsga: pe_nsga::NsgaConfig {
                        generations: 99,
                        ..base.ga.nsga.clone()
                    },
                    ..base.ga.clone()
                },
                ..base.clone()
            })
            .finish()
            .expect("valid");
        for stage in [
            StageKind::Prepared,
            StageKind::FloatTrained,
            StageKind::BaselineCosted,
        ] {
            assert_eq!(a.cache_key(stage), c.cache_key(stage), "{stage}");
        }
        assert_ne!(
            a.cache_key(StageKind::Searched),
            c.cache_key(StageKind::Searched)
        );
    }

    fn store_scratch(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "printed-axc-pipeline-store-{}-{tag}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn store_rekeys_only_when_warm_seeds_exist() {
        let base = StudyConfig::quick(1);
        let storeless = Study::for_dataset(Dataset::BreastCancer)
            .config(base.clone())
            .finish()
            .expect("valid");

        // Ingest-only store: every key identical to storeless (the
        // byte-identity guarantee behind store-attached artifact runs).
        let path = store_scratch("ingest");
        let ingest_only = Study::for_dataset(Dataset::BreastCancer)
            .config(base.clone())
            .design_store(&path)
            .finish()
            .expect("valid");
        for stage in StageKind::ALL {
            assert_eq!(
                storeless.cache_key(stage),
                ingest_only.cache_key(stage),
                "{stage}"
            );
        }

        // Warm-start over an *empty* store: still identical.
        let warm_empty = Study::for_dataset(Dataset::BreastCancer)
            .config(base.clone())
            .design_store(&path)
            .warm_start(true)
            .finish()
            .expect("valid");
        for stage in StageKind::ALL {
            assert_eq!(
                storeless.cache_key(stage),
                warm_empty.cache_key(stage),
                "{stage}"
            );
        }

        // Populate the store with one front member of this dataset;
        // warm-start now re-keys the search (and selection) but never
        // the data/SGD/baseline stages.
        {
            let writer = Arc::new(pe_store::StoreWriter::open(&path).expect("open for population"));
            let sink = crate::store::StoreSink::new(
                Arc::clone(&writer),
                Dataset::BreastCancer.spec().name,
                false,
            );
            sink.annotate_front(&crate::pareto::DesignCandidate {
                mlp: pe_mlp::AxMlp {
                    layers: vec![pe_mlp::AxLayer {
                        input_bits: 4,
                        neurons: vec![pe_mlp::AxNeuron {
                            weights: vec![pe_mlp::AxWeight {
                                mask: 0b1111,
                                shift: 1,
                                negative: false,
                            }],
                            bias: 2,
                        }],
                        qrelu: None,
                    }],
                },
                train_accuracy: 0.9,
                test_accuracy: 0.88,
                estimated_area: 10.0,
            });
        }
        let warm_full = Study::for_dataset(Dataset::BreastCancer)
            .config(base)
            .design_store(&path)
            .warm_start(true)
            .finish()
            .expect("valid");
        for stage in [
            StageKind::Prepared,
            StageKind::FloatTrained,
            StageKind::BaselineCosted,
        ] {
            assert_eq!(
                storeless.cache_key(stage),
                warm_full.cache_key(stage),
                "{stage}"
            );
        }
        for stage in [StageKind::Searched, StageKind::Selected] {
            assert_ne!(
                storeless.cache_key(stage),
                warm_full.cache_key(stage),
                "{stage}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn builder_rejects_inconsistent_store_configs() {
        // Warm-start without a store.
        assert!(matches!(
            Study::for_dataset(Dataset::BreastCancer)
                .config(StudyConfig::quick(0))
                .warm_start(true)
                .finish(),
            Err(FlowError::InvalidConfig { .. })
        ));
        // Both a path and a shared writer.
        let path = store_scratch("both");
        let writer = Arc::new(pe_store::StoreWriter::open(&path).expect("open"));
        assert!(matches!(
            Study::for_dataset(Dataset::BreastCancer)
                .config(StudyConfig::quick(0))
                .design_store(&path)
                .design_store_shared(writer)
                .finish(),
            Err(FlowError::InvalidConfig { .. })
        ));
        // An unreadable store path surfaces as a store error.
        assert!(matches!(
            Study::for_dataset(Dataset::BreastCancer)
                .config(StudyConfig::quick(0))
                .design_store("/proc/definitely/not/writable/designs.jsonl")
                .finish(),
            Err(FlowError::Store { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }
}
