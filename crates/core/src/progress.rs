//! Progress reporting and cooperative cancellation for the staged
//! pipeline.
//!
//! Long-running stages (SGD epochs, GA generations) emit
//! [`ProgressEvent`]s through a [`RunControl`] and poll a
//! [`CancelToken`] between units of work, so interactive frontends can
//! render progress bars and abort studies without killing the process.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::FlowError;

/// The five stages of the staged pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Data generation, stratified split and input quantization.
    Prepared,
    /// Backprop training of the float MLP at the paper's topology.
    FloatTrained,
    /// Quantization to the exact bespoke baseline and its circuit cost.
    BaselineCosted,
    /// The design-space search (NSGA-II by default; any
    /// [`SearchEngine`](crate::engine::SearchEngine)).
    Searched,
    /// Selection of the smallest design within the loss budget.
    Selected,
}

impl StageKind {
    /// All stages, in execution order.
    pub const ALL: [StageKind; 5] = [
        StageKind::Prepared,
        StageKind::FloatTrained,
        StageKind::BaselineCosted,
        StageKind::Searched,
        StageKind::Selected,
    ];

    /// Stable snake-case name (used in cache file names).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            StageKind::Prepared => "prepared",
            StageKind::FloatTrained => "float_trained",
            StageKind::BaselineCosted => "baseline_costed",
            StageKind::Searched => "searched",
            StageKind::Selected => "selected",
        }
    }
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why the stage cache took a degraded path
/// ([`ProgressEvent::StageCacheDegraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageCacheCause {
    /// The stage file exists but could not be read.
    Unreadable,
    /// The stage file is not UTF-8 JSON, or not a stage artifact of
    /// the current format.
    Malformed,
    /// The stage's parent link names another parent than this
    /// pipeline's, or the parent's own file is missing or unusable.
    BrokenParentLink,
    /// The loaded artifact belongs to another dataset, seed or engine.
    NotOurs,
    /// The stage artifact (or the search checkpoint's directory) could
    /// not be written.
    WriteFailed,
}

/// A cloneable cancellation flag shared between the caller and a
/// running pipeline. Cancellation is cooperative: stages poll the token
/// at epoch/generation granularity and return
/// [`FlowError::Cancelled`] at the next checkpoint.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; callable from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// One unit of observable pipeline progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressEvent {
    /// A stage began computing.
    StageStarted {
        /// Which stage.
        stage: StageKind,
    },
    /// A stage finished computing.
    StageFinished {
        /// Which stage.
        stage: StageKind,
    },
    /// A stage artifact was loaded from the cache instead of computed.
    StageLoaded {
        /// Which stage.
        stage: StageKind,
    },
    /// The stage cache took a degraded path for a stage: a cached file
    /// existed but could not be used, so the stage is recomputed, or
    /// the stage could not be written back. A plain miss, with no file
    /// for the stage, emits nothing.
    StageCacheDegraded {
        /// Which stage.
        stage: StageKind,
        /// What went wrong.
        cause: StageCacheCause,
    },
    /// One SGD epoch of one restart of the float-training stage
    /// completed. The restarts train in lockstep, so the events
    /// interleave them: each epoch's events come for restart 0, 1, … in
    /// order, before any event of the next epoch.
    SgdEpoch {
        /// Restart index within the best-of-N loop.
        restart: u64,
        /// 0-based epoch within this restart.
        epoch: usize,
        /// Configured epochs per restart.
        epochs: usize,
    },
    /// One GA generation of the search stage completed.
    GaGeneration {
        /// 0-based generation index.
        generation: usize,
        /// Configured generation budget.
        generations: usize,
        /// Chromosome evaluations so far.
        evaluations: u64,
    },
    /// Cumulative counters of the search stage's evaluation layers —
    /// the batch evaluator ([`crate::eval::BatchEvaluator`]), the area
    /// objective's per-neuron gate counts and the design-store ingest —
    /// emitted once per GA generation right after its
    /// [`GaGeneration`](ProgressEvent::GaGeneration) event. Engines
    /// whose problems have no gate counts (e.g. the plain GA) report
    /// them as zero.
    EvalCache {
        /// Always 0: every requested genome is computed, duplicates
        /// within a wave included.
        hits: u64,
        /// Genome evaluations the inner problem computed, so far (in
        /// this process: a resumed search counts from 0).
        misses: u64,
        /// Always 0: no genome memo is kept across waves.
        entries: usize,
        /// Always 0: no neuron-column cache is kept.
        column_hits: u64,
        /// Always 0: no neuron-column cache is kept.
        column_misses: u64,
        /// Always 0: no neuron-column cache is kept.
        column_entries: usize,
        /// Always 0: no neuron-column cache is kept.
        column_contended: u64,
        /// Always 0: no neuron-column cache is kept.
        column_shards: usize,
        /// Always 0: gate counts are computed, not memoized.
        cost_hits: u64,
        /// Neuron gate-count computations the area objective ran.
        cost_misses: u64,
        /// Unique designs this search has inserted into its design
        /// store (zero when no store is attached).
        store_ingested: u64,
        /// Ingest calls deduplicated against an already-stored design.
        store_deduplicated: u64,
        /// Bytes this search has appended to the design store file.
        store_bytes: u64,
    },
    /// A search checkpoint was persisted to disk (see
    /// [`Study::checkpoint_every`](crate::Study::checkpoint_every)): a
    /// killed or cancelled run can now resume from this generation
    /// instead of generation zero.
    Checkpoint {
        /// Completed generations captured by the checkpoint (1-based).
        generation: usize,
        /// Chromosome evaluations captured by the checkpoint.
        evaluations: u64,
    },
}

/// A shared, thread-safe progress observer (what
/// [`Study::progress`](crate::Study::progress) stores).
pub type ProgressObserver = std::sync::Arc<dyn Fn(&ProgressEvent) + Send + Sync>;

/// Borrowed observer + cancellation pair threaded through stage code
/// and [`SearchEngine`](crate::engine::SearchEngine) implementations.
///
/// The no-op value [`RunControl::NONE`] never reports and never
/// cancels, so library code can unconditionally thread a control.
#[derive(Clone, Copy, Default)]
pub struct RunControl<'a> {
    progress: Option<&'a (dyn Fn(&ProgressEvent) + Sync)>,
    cancel: Option<&'a CancelToken>,
}

impl<'a> RunControl<'a> {
    /// A control that never reports progress and never cancels.
    pub const NONE: RunControl<'static> = RunControl {
        progress: None,
        cancel: None,
    };

    /// Build a control from optional parts.
    #[must_use]
    pub fn new(
        progress: Option<&'a (dyn Fn(&ProgressEvent) + Sync)>,
        cancel: Option<&'a CancelToken>,
    ) -> Self {
        Self { progress, cancel }
    }

    /// Report one progress event (no-op without an observer).
    pub fn emit(&self, event: &ProgressEvent) {
        if let Some(observer) = self.progress {
            observer(event);
        }
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Checkpoint: `Err(FlowError::Cancelled)` if cancellation was
    /// requested, attributing the abort to `stage`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Cancelled`] when the token is set.
    pub fn ensure_live(&self, stage: StageKind) -> Result<(), FlowError> {
        if self.is_cancelled() {
            Err(FlowError::Cancelled { stage })
        } else {
            Ok(())
        }
    }
}

impl fmt::Debug for RunControl<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunControl")
            .field("progress", &self.progress.is_some())
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_cancels_once_for_all_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn none_control_never_cancels() {
        assert!(!RunControl::NONE.is_cancelled());
        assert!(RunControl::NONE.ensure_live(StageKind::Searched).is_ok());
        RunControl::NONE.emit(&ProgressEvent::StageStarted {
            stage: StageKind::Prepared,
        });
    }

    #[test]
    fn control_reports_and_checkpoints() {
        use std::sync::Mutex;
        let events: Mutex<Vec<ProgressEvent>> = Mutex::new(Vec::new());
        let observer = |e: &ProgressEvent| events.lock().expect("unpoisoned").push(e.clone());
        let token = CancelToken::new();
        let ctl = RunControl::new(Some(&observer), Some(&token));
        ctl.emit(&ProgressEvent::StageStarted {
            stage: StageKind::Prepared,
        });
        assert!(ctl.ensure_live(StageKind::Prepared).is_ok());
        token.cancel();
        assert_eq!(
            ctl.ensure_live(StageKind::Searched),
            Err(FlowError::Cancelled {
                stage: StageKind::Searched
            })
        );
        assert_eq!(events.lock().expect("unpoisoned").len(), 1);
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = StageKind::ALL.iter().map(|s| s.as_str()).collect();
        assert_eq!(
            names,
            [
                "prepared",
                "float_trained",
                "baseline_costed",
                "searched",
                "selected"
            ]
        );
    }
}
