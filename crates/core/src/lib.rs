//! `printed-axc` — GA-based, hardware-approximation-aware training for
//! bespoke printed MLPs.
//!
//! This crate is the reproduction of the DATE'24 paper's primary
//! contribution: a discrete, genetic (NSGA-II) training framework that
//! embeds two hardware approximations *into* training —
//!
//! 1. **power-of-two weights** `s·2^k` (multiplier-less neurons), and
//! 2. **fine-grained unstructured pruning** via per-weight bit masks
//!    `m` (hard-wired zeros that delete full adders),
//!
//! and optimizes `min [1 − Accuracy(θ,D), Area(θ)]` (Eq. (3)) where
//! `Area` is the fast FA-count estimate of Eq. (2).
//!
//! Modules follow the paper's Fig. 2 flow:
//!
//! * [`genome`] — the chromosome encoding of Fig. 3 (`m, s, k, b` genes
//!   grouped by weight, neuron, layer).
//! * [`fitness`] — the two-objective evaluation with the 10% accuracy
//!   feasibility bound (and, under a power-budgeted
//!   [`pe_hw::CostScenario`], the power excess) as a
//!   constrained-domination violation; the area/power models use the
//!   column-height formulas `pe-hw`'s cost model prices reports with.
//! * [`init`] — semi-random initial populations doped with ~10% nearly
//!   non-approximate (baseline-derived) chromosomes.
//! * [`train`] — the NSGA-II training loop ([`HwAwareTrainer`]) and the
//!   hardware-unaware plain-GA reference of Table III.
//! * [`pareto`] — hardware analysis of the estimated front and
//!   extraction of the true area/accuracy Pareto front.
//! * [`pipeline`] — the staged per-dataset pipeline ([`Study`] →
//!   [`Pipeline`]): five serializable, cacheable, resumable stage
//!   artifacts, progress/cancellation, and parallel multi-dataset runs
//!   ([`Pipeline::run_many`]).
//! * [`engine`] — the [`SearchEngine`] abstraction the pipeline's
//!   search stage runs; implemented here by [`NsgaEngine`] /
//!   [`PlainGaEngine`] and by the three prior-work methods in
//!   `pe-baselines`.
//! * [`eval`] — the shared evaluation core: one deterministic worker
//!   pool (results in input order, byte-identical to serial) that runs
//!   both [`BatchEvaluator`]'s evaluation waves of any `IntProblem` and
//!   [`Pipeline::run_many`]'s datasets, and [`thread_budget`], the
//!   default worker count (one per core) both fall back to. This crate
//!   reads no environment variables: worker budgets and checkpoint
//!   cadences are explicit parameters chosen by the caller.
//! * [`checkpoint`] — crash-safe search checkpointing: the pipeline
//!   persists a generation-level GA snapshot (atomically, next to the
//!   `Searched` stage artifact) and resumes a killed or cancelled
//!   search from it, byte-identical to an uninterrupted run.
//! * [`robust`] — Monte-Carlo variation-aware evaluation: the
//!   per-trial forward pass shared by the robust fitness and
//!   [`robust::mc_accuracy`], which reports how a design holds up over
//!   trials (the variation corner itself is
//!   [`pe_hw::VariationModel`]).
//! * [`store`] — design-store integration over `pe-store`: the
//!   [`StoreSink`] eval hook that persists every unique design a
//!   search encounters (a pure side channel — fronts and artifacts
//!   stay byte-identical), warm-start candidate capture, and scenario
//!   queries ([`store::store_front`] / [`store::select_from_store`])
//!   that reuse this crate's own Pareto selection over stored designs.
//! * [`progress`] / [`error`] — [`ProgressEvent`] + [`CancelToken`]
//!   observability and the [`FlowError`] error surface.
//! * [`flow`] — the [`StudyConfig`] / [`DatasetStudy`] record types of
//!   a complete one-dataset study.
//!
//! # Example
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
//! let study = pipeline.run_study()?;
//! if let Some(best) = &study.selected {
//!     println!(
//!         "area {:.3} cm² ({}x smaller), accuracy {:.3}",
//!         best.report.area_cm2,
//!         study.area_reduction().unwrap_or(1.0),
//!         best.test_accuracy,
//!     );
//! }
//! # Ok::<(), printed_axc::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod error;
pub mod eval;
pub mod fitness;
pub mod flow;
pub mod genome;
pub mod init;
pub mod pareto;
pub mod pipeline;
pub mod progress;
pub mod robust;
pub mod store;
pub mod train;

pub use checkpoint::{CheckpointSpec, DEFAULT_CHECKPOINT_EVERY};
pub use config::AxTrainConfig;
pub use engine::{
    fingerprint_json, NsgaEngine, PlainGaEngine, SearchContext, SearchEngine, SearchOutcome,
};
pub use error::FlowError;
pub use eval::{thread_budget, BatchEvaluator};
pub use fitness::{AreaObjective, AxTrainProblem};
pub use flow::{DatasetStudy, StudyConfig};
pub use genome::{GenomeSpec, LayerGenomeSpec};
pub use init::{doped_seeds, refine_doped};
pub use pareto::{
    select_within_budgets, select_within_loss, true_pareto_front, DesignCandidate, DesignNetwork,
    DesignPoint,
};
pub use pipeline::{
    derive_seed, BaselineCosted, Budget, FloatTrained, Pipeline, Prepared, RunManyOptions,
    Searched, Selected, Study, STAGE_CACHE_VERSION,
};
pub use progress::{CancelToken, ProgressEvent, RunControl, StageCacheCause, StageKind};
pub use robust::{mc_accuracy, RobustSummary};
pub use store::{select_from_store, store_front, StoreSink};
pub use train::{HwAwareTrainer, PlainGaProblem, TrainingOutcome};
