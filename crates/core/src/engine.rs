//! The generic search-engine interface of the staged pipeline.
//!
//! A [`SearchEngine`] takes the objectives — the prepared data, the
//! exact baseline that anchors the accuracy budget, and the technology
//! model — and returns a front of evaluated [`DesignPoint`]s. The
//! DATE'24 NSGA-II flow, the hardware-unaware plain GA (Table III) and
//! the three `pe-baselines` prior-work methods all implement it, so
//! experiment code iterates engines generically instead of hand-wiring
//! each one.

use std::time::Instant;

use pe_datasets::{QuantizedData, TabularData};
use pe_hw::{ExactCostModel, TechLibrary};
use pe_mlp::{fixed_to_hardware, DenseMlp, FixedMlp};
use pe_nsga::{Nsga2, NsgaConfig};

use crate::config::AxTrainConfig;
use crate::error::FlowError;
use crate::pareto::{DesignNetwork, DesignPoint};
use crate::progress::{RunControl, StageKind};
use crate::train::{HwAwareTrainer, PlainGaProblem};

/// Everything a search run produces; re-exported name for
/// [`TrainingOutcome`](crate::train::TrainingOutcome) in its role as
/// the [`SearchEngine`] contract. The `front` field is the engine's
/// deliverable: the evaluated designs, ascending in area.
pub use crate::train::TrainingOutcome as SearchOutcome;

/// The inputs every engine searches against: one dataset's prepared
/// splits, the float and exact-baseline lineage, and the shared cost
/// model. Borrowed from the pipeline's stage artifacts (see
/// [`BaselineCosted::search_context`](crate::pipeline::BaselineCosted::search_context)).
#[derive(Clone, Copy)]
pub struct SearchContext<'a> {
    /// Circuit-name prefix (the dataset's display name).
    pub name: &'a str,
    /// Number of classes.
    pub classes: usize,
    /// The exact bespoke baseline network.
    pub baseline: &'a FixedMlp,
    /// Baseline accuracy on the quantized training split (anchors the
    /// training-time feasibility bound).
    pub baseline_train_accuracy: f64,
    /// Quantized training split.
    pub train: &'a QuantizedData,
    /// Quantized test split.
    pub test: &'a QuantizedData,
    /// The float network the baseline was quantized from (used by
    /// engines that start from the float model, e.g. stochastic
    /// computing).
    pub float_mlp: &'a DenseMlp,
    /// Normalized float training split.
    pub float_train: &'a TabularData,
    /// Normalized float test split.
    pub float_test: &'a TabularData,
    /// The study's cost model — the single costing interface all
    /// engines report through. Its
    /// [`scenario`](ExactCostModel::scenario) is the one the study runs
    /// under: technology, Vdd model, operating supply and the optional
    /// power budget. Engines must report their designs under these
    /// conditions — with one carve-out: an engine whose *method* is
    /// defined by its own operating voltage (the TCAD'23
    /// voltage-over-scaling search) reports at the voltage its search
    /// selects, since pinning it to the scenario supply would
    /// misrepresent the prior work being reproduced.
    pub cost: &'a ExactCostModel,
    /// Worker budget for the engine's within-study batch evaluation
    /// (see [`crate::eval`]).
    /// [`Pipeline::run_many`](crate::Pipeline::run_many) divides the
    /// global
    /// [`thread_budget`](crate::eval::thread_budget) across its
    /// concurrent dataset workers, so the two pool levels multiply to
    /// the budget instead of oversubscribing it. Thread count never
    /// affects results.
    pub eval_threads: usize,
    /// Monte-Carlo variation request of a robust study
    /// ([`StudyConfig::variation`](crate::flow::StudyConfig)). `None`
    /// — the default every
    /// [`search_context`](crate::pipeline::BaselineCosted::search_context)
    /// starts from — keeps every engine's nominal behavior bit for
    /// bit; the GA engines under `Some` optimize the robust statistic
    /// instead of nominal accuracy. Engines that don't understand
    /// variation simply ignore it (their fronts are then evaluated
    /// under variation downstream, e.g. by the `fig_robust` bench).
    pub variation: Option<&'a pe_hw::VariationConfig>,
    /// Design-store sink of a store-enabled study
    /// ([`Study::design_store`](crate::Study::design_store)). `None` —
    /// the default every
    /// [`search_context`](crate::pipeline::BaselineCosted::search_context)
    /// starts from — runs storeless. Ingest is a pure side channel
    /// (fronts are byte-identical either way); engines that don't
    /// understand stores simply ignore it.
    pub store: Option<&'a crate::store::StoreSink>,
    /// Crash-safety checkpoint request
    /// ([`Study::checkpoint_every`](crate::Study::checkpoint_every)).
    /// `None` — the default every
    /// [`search_context`](crate::pipeline::BaselineCosted::search_context)
    /// starts from — runs without durability, exactly as before.
    /// Checkpointing never steers the search: a resumed run is
    /// byte-identical to an uninterrupted one, so engines that ignore
    /// this field are merely not crash-safe, never wrong.
    pub checkpoint: Option<&'a crate::checkpoint::CheckpointSpec>,
}

impl SearchContext<'_> {
    /// The technology library costs are reported in (the cost model's
    /// scenario's).
    #[must_use]
    pub fn tech(&self) -> &TechLibrary {
        &self.cost.scenario().tech
    }
}

impl std::fmt::Debug for SearchContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchContext")
            .field("name", &self.name)
            .field("scenario", &self.cost.scenario().label())
            .field("eval_threads", &self.eval_threads)
            .field("variation", &self.variation)
            .field("store", &self.store)
            .field("checkpoint", &self.checkpoint)
            .finish_non_exhaustive()
    }
}

/// A design-space search strategy: objectives in, evaluated
/// [`DesignPoint`]s out (as `SearchOutcome::front`).
///
/// Implementations must be deterministic in their configuration plus
/// the context (wall-clock fields excepted), so cached `Searched`
/// stages and parallel [`run_many`](crate::pipeline::Pipeline::run_many)
/// runs reproduce sequential ones.
pub trait SearchEngine {
    /// Short stable identifier (used in cache keys and reports).
    fn name(&self) -> &'static str;

    /// A stable hash of this engine's own configuration, mixed into the
    /// pipeline's stage-cache key alongside [`name`](Self::name) so
    /// differently-configured engines never alias each other's cached
    /// `Searched`/`Selected` artifacts. Engines whose behavior is fully
    /// determined by their name may keep the default (`0`); engines
    /// with configuration should hash it (see [`fingerprint_json`]).
    fn cache_fingerprint(&self) -> u64 {
        0
    }

    /// Search the design space described by `ctx`.
    ///
    /// # Errors
    ///
    /// [`FlowError::Cancelled`] when `ctl` reports cancellation at a
    /// checkpoint; [`FlowError::Engine`] for engine-specific failures.
    fn search(
        &self,
        ctx: &SearchContext<'_>,
        ctl: &RunControl<'_>,
    ) -> Result<SearchOutcome, FlowError>;
}

/// FNV-1a hash of a value's JSON serialization: the standard way to
/// implement [`SearchEngine::cache_fingerprint`] for an engine with a
/// serializable configuration.
#[must_use]
pub fn fingerprint_json<T: serde::Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).unwrap_or_default();
    pe_arith::cache::fnv1a64(json.as_bytes())
}

/// The paper's engine: hardware-approximation-aware NSGA-II training
/// ([`HwAwareTrainer`]) over the `(m, s, k, b)` chromosome.
#[derive(Debug, Clone, Default)]
pub struct NsgaEngine {
    /// GA training configuration.
    pub config: AxTrainConfig,
}

impl NsgaEngine {
    /// Engine with the given configuration.
    #[must_use]
    pub fn new(config: AxTrainConfig) -> Self {
        Self { config }
    }
}

impl SearchEngine for NsgaEngine {
    fn name(&self) -> &'static str {
        "nsga2-axc"
    }

    fn cache_fingerprint(&self) -> u64 {
        fingerprint_json(&self.config)
    }

    fn search(
        &self,
        ctx: &SearchContext<'_>,
        ctl: &RunControl<'_>,
    ) -> Result<SearchOutcome, FlowError> {
        HwAwareTrainer::new(self.config.clone())
            .with_eval_threads(ctx.eval_threads)
            .with_variation(ctx.variation.copied())
            .with_store(ctx.store.cloned())
            .with_checkpoint(ctx.checkpoint.cloned())
            .train_controlled(
                ctx.baseline,
                ctx.baseline_train_accuracy,
                ctx.train,
                ctx.test,
                ctx.cost,
                ctx.name,
                ctl,
            )
    }
}

/// The hardware-unaware GA reference of Table III: the same NSGA-II
/// loop over the plain 8-bit weight/bias chromosome with accuracy as
/// the only objective (no approximations trained).
#[derive(Debug, Clone)]
pub struct PlainGaEngine {
    /// Weight gene width in bits.
    pub weight_bits: u32,
    /// Bias gene width in bits.
    pub bias_bits: u32,
    /// Fitness subsample cap (`None` = all training rows).
    pub subsample: Option<usize>,
    /// NSGA-II settings.
    pub nsga: NsgaConfig,
}

impl PlainGaEngine {
    /// Engine matching the paper's Table III reference setup.
    #[must_use]
    pub fn new(nsga: NsgaConfig, subsample: Option<usize>) -> Self {
        Self {
            weight_bits: 8,
            bias_bits: 12,
            subsample,
            nsga,
        }
    }
}

impl SearchEngine for PlainGaEngine {
    fn name(&self) -> &'static str {
        "plain-ga"
    }

    fn cache_fingerprint(&self) -> u64 {
        fingerprint_json(&(self.weight_bits, self.bias_bits, self.subsample, &self.nsga))
    }

    fn search(
        &self,
        ctx: &SearchContext<'_>,
        ctl: &RunControl<'_>,
    ) -> Result<SearchOutcome, FlowError> {
        ctl.ensure_live(StageKind::Searched)?;
        let problem = PlainGaProblem::new(
            ctx.baseline,
            ctx.train,
            self.subsample,
            self.weight_bits,
            self.bias_bits,
        );
        let mut history = Vec::with_capacity(self.nsga.generations);
        let started = Instant::now();
        let result = crate::eval::run_ga(
            &Nsga2::new(self.nsga.clone()),
            &problem,
            Vec::new(),
            ctx.eval_threads,
            ctl,
            &mut history,
            &|| None,
            ctx.checkpoint,
        );
        let ga_wall = started.elapsed();
        ctl.ensure_live(StageKind::Searched)?;

        // Accuracy is the only objective, so the "front" is the single
        // best individual, evaluated in hardware like any other design.
        let front = result
            .pareto_front
            .iter()
            .min_by(|a, b| a.evaluation.objectives[0].total_cmp(&b.evaluation.objectives[0]))
            .map(|best| {
                let mlp = problem.decode(&best.genes);
                let report = ctx
                    .cost
                    .report(&fixed_to_hardware(&mlp, format!("{}_plain_ga", ctx.name)));
                let trunc_bits = vec![0; mlp.layers.len()];
                DesignPoint {
                    network: DesignNetwork::Truncated {
                        mlp: mlp.clone(),
                        trunc_bits,
                    },
                    train_accuracy: 1.0 - best.evaluation.objectives[0],
                    test_accuracy: mlp.accuracy(&ctx.test.features, &ctx.test.labels),
                    estimated_area: report.area_cm2,
                    report,
                }
            })
            .into_iter()
            .collect();

        Ok(SearchOutcome {
            front,
            estimated_front: Vec::new(),
            history,
            evaluations: result.evaluations,
            ga_wall,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Study;
    use crate::progress::CancelToken;
    use pe_datasets::Dataset;
    use pe_hw::CostScenario;

    fn tiny_context_stage() -> crate::pipeline::BaselineCosted {
        let pipeline = Study::for_dataset(Dataset::BreastCancer)
            .config(crate::flow::StudyConfig {
                sgd_epochs_scale: 0.05,
                ..crate::flow::StudyConfig::quick(3)
            })
            .tech(TechLibrary::egfet())
            .finish()
            .expect("valid config");
        let prepared = pipeline.prepare().expect("prepare");
        let float = pipeline.train_float(prepared).expect("train");
        pipeline.cost_baseline(float).expect("cost")
    }

    #[test]
    fn plain_ga_engine_returns_an_evaluated_design() {
        let costed = tiny_context_stage();
        let model = pe_hw::ExactCostModel::new(CostScenario::default());
        let ctx = costed.search_context(&model);
        let engine = PlainGaEngine::new(
            NsgaConfig {
                population: 12,
                generations: 5,
                ..NsgaConfig::default()
            },
            Some(200),
        );
        let outcome = engine
            .search(&ctx, &RunControl::NONE)
            .expect("uncancelled search succeeds");
        assert_eq!(outcome.front.len(), 1);
        assert_eq!(outcome.history.len(), 5);
        assert!(outcome.front[0].report.area_cm2 > 0.0);
        assert!(outcome.front[0].network.ax().is_none());
    }

    #[test]
    fn engines_honor_cancellation() {
        let costed = tiny_context_stage();
        let model = pe_hw::ExactCostModel::new(CostScenario::default());
        let ctx = costed.search_context(&model);
        let token = CancelToken::new();
        token.cancel();
        let ctl = RunControl::new(None, Some(&token));
        let nsga = NsgaEngine::default();
        assert_eq!(
            nsga.search(&ctx, &ctl),
            Err(FlowError::Cancelled {
                stage: StageKind::Searched
            })
        );
    }
}
