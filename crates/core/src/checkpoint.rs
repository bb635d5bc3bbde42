//! Crash-safe search checkpointing for the pipeline's search stage.
//!
//! A GA search is by far the longest stage of a study, and until this
//! module existed a kill (OOM, SIGKILL, power loss) threw the whole
//! stage away. The pieces here wire `pe_nsga`'s generation-level
//! [`SearchCheckpoint`] protocol into the staged pipeline:
//!
//! * [`CheckpointSpec`] names *where* a search persists its checkpoint
//!   and *how often* (every `every` completed generations, plus a final
//!   flush on completion or cancellation).
//! * `FileSink` (crate-internal) is the [`CheckpointSink`] that writes
//!   each snapshot through
//!   [`pe_store::atomic_write`] — a torn checkpoint write can never
//!   destroy the previous good checkpoint — and reports a
//!   [`ProgressEvent::Checkpoint`] per flush.
//! * `load` (crate-internal) reads a checkpoint back, validating it
//!   against the run's configuration and genome bounds; anything stale,
//!   torn or foreign loads as `None`, is reported as a
//!   [`ProgressEvent::StageCacheDegraded`], and the search starts
//!   fresh.
//!
//! The cadence is pure durability policy: it is **not** part of any
//! stage-cache key, and a resumed run reproduces the uninterrupted
//! run's artifacts byte for byte (the RNG stream, population
//! annotations and evaluation counters are all part of the snapshot).

use std::path::PathBuf;

use pe_nsga::{CheckpointSink, NsgaConfig, SearchCheckpoint};

use crate::progress::{ProgressEvent, RunControl, StageCacheCause, StageKind};

/// Default checkpoint cadence in completed generations (what
/// [`Study::checkpoint_every`](crate::Study::checkpoint_every)
/// overrides).
pub const DEFAULT_CHECKPOINT_EVERY: usize = 5;

/// Where and how often a search persists its generation checkpoint.
///
/// Built by [`Pipeline::search`](crate::Pipeline::search) next to the
/// `Searched` stage-cache entry; direct engine callers can carry their
/// own spec through
/// [`SearchContext::checkpoint`](crate::SearchContext::checkpoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Checkpoint file (written atomically, deleted once the stage's
    /// artifact is safely cached).
    pub path: PathBuf,
    /// Flush cadence in completed generations (`0` disables periodic
    /// flushes; completion/cancellation still flushes nothing because
    /// the whole plan is skipped — use [`DEFAULT_CHECKPOINT_EVERY`]
    /// instead of `0` unless checkpointing is meant to be off).
    pub every: usize,
}

impl CheckpointSpec {
    /// Whether this spec asks for checkpointing at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.every > 0
    }
}

/// Load and validate the checkpoint at `spec.path`.
///
/// Returns `None` — and the caller starts a fresh search — when the
/// file is missing, unreadable, unparsable (torn writes cannot happen
/// thanks to [`pe_store::atomic_write`], but hand-edited or foreign
/// files can), or fails [`SearchCheckpoint::validate`] against this
/// run's configuration and bounds. A file that exists but is not used
/// is reported through `ctl` as a
/// [`ProgressEvent::StageCacheDegraded`] for the `Searched` stage; a
/// missing file emits nothing.
#[must_use]
pub(crate) fn load(
    spec: &CheckpointSpec,
    config: &NsgaConfig,
    bounds: &[u32],
    ctl: &RunControl<'_>,
) -> Option<SearchCheckpoint> {
    let parsed = match std::fs::read_to_string(&spec.path) {
        Ok(text) => serde_json::from_str::<SearchCheckpoint>(&text)
            .map_err(|_| StageCacheCause::Malformed)
            .and_then(|checkpoint| match checkpoint.validate(config, bounds) {
                Ok(()) => Ok(checkpoint),
                Err(_) => Err(StageCacheCause::NotOurs),
            }),
        Err(e) => match e.kind() {
            std::io::ErrorKind::NotFound => return None,
            std::io::ErrorKind::InvalidData => Err(StageCacheCause::Malformed),
            _ => Err(StageCacheCause::Unreadable),
        },
    };
    parsed.map_err(|cause| degraded(ctl, cause)).ok()
}

/// Report a checkpoint the search could not use or write.
fn degraded(ctl: &RunControl<'_>, cause: StageCacheCause) {
    ctl.emit(&ProgressEvent::StageCacheDegraded {
        stage: StageKind::Searched,
        cause,
    });
}

/// The pipeline's [`CheckpointSink`]: snapshots go to disk through
/// [`pe_store::atomic_write`] and each flush is reported as a
/// [`ProgressEvent::Checkpoint`]. A failed write is reported as a
/// [`ProgressEvent::StageCacheDegraded`] with
/// [`StageCacheCause::WriteFailed`] — a full disk degrades durability,
/// it does not kill the search.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FileSink<'a> {
    path: &'a std::path::Path,
    ctl: &'a RunControl<'a>,
}

impl<'a> FileSink<'a> {
    pub(crate) fn new(path: &'a std::path::Path, ctl: &'a RunControl<'a>) -> Self {
        Self { path, ctl }
    }
}

impl CheckpointSink for FileSink<'_> {
    fn save(&self, checkpoint: &SearchCheckpoint) {
        let written = serde_json::to_string(checkpoint)
            .ok()
            .is_some_and(|json| pe_store::atomic_write(self.path, json.as_bytes()).is_ok());
        if !written {
            degraded(self.ctl, StageCacheCause::WriteFailed);
            return;
        }
        self.ctl.emit(&ProgressEvent::Checkpoint {
            generation: checkpoint.generation,
            evaluations: checkpoint.evaluations,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_nsga::{CheckpointPlan, IntProblem, Nsga2};

    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "pe-core-ckpt-{}-{tag}-{unique}.json",
            std::process::id()
        ))
    }

    struct Sphere;
    impl IntProblem for Sphere {
        fn bounds(&self) -> &[u32] {
            &[32, 32, 32]
        }
        fn evaluate(&self, genes: &[u32]) -> pe_nsga::Evaluation {
            let s: f64 = genes.iter().map(|&g| f64::from(g) * f64::from(g)).sum();
            pe_nsga::Evaluation::feasible(vec![s, 96.0 - s])
        }
    }

    fn config() -> NsgaConfig {
        NsgaConfig {
            population: 8,
            generations: 6,
            seed: 11,
            ..NsgaConfig::default()
        }
    }

    #[test]
    fn file_sink_round_trips_through_load() {
        let path = scratch("roundtrip");
        let spec = CheckpointSpec {
            path: path.clone(),
            every: 2,
        };
        let ctl = RunControl::NONE;
        let sink = FileSink::new(&spec.path, &ctl);
        let nsga = Nsga2::new(config());
        let plan = CheckpointPlan {
            every: spec.every,
            sink: &sink,
        };
        let uninterrupted = nsga.run_checkpointed(&Sphere, Vec::new(), None, None, |_| true);
        let _ = nsga.run_checkpointed(&Sphere, Vec::new(), None, Some(plan), |_| true);

        let loaded = load(&spec, &config(), Sphere.bounds(), &ctl).expect("checkpoint loads");
        assert_eq!(loaded.generation, 6);
        // Resuming from the final flush reproduces the full run.
        let resumed = nsga.run_checkpointed(&Sphere, Vec::new(), Some(loaded), None, |_| true);
        assert_eq!(resumed.pareto_front, uninterrupted.pareto_front);
        assert_eq!(resumed.evaluations, uninterrupted.evaluations);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_rejects_missing_torn_and_foreign_checkpoints() {
        use std::sync::Mutex;
        let events: Mutex<Vec<ProgressEvent>> = Mutex::new(Vec::new());
        let observer = |e: &ProgressEvent| events.lock().expect("unpoisoned").push(e.clone());
        let ctl = RunControl::new(Some(&observer), None);
        // The degraded causes reported since the last call.
        let drain = || -> Vec<StageCacheCause> {
            std::mem::take(&mut *events.lock().expect("unpoisoned"))
                .into_iter()
                .filter_map(|e| match e {
                    ProgressEvent::StageCacheDegraded {
                        stage: StageKind::Searched,
                        cause,
                    } => Some(cause),
                    _ => None,
                })
                .collect()
        };

        // A missing checkpoint is an ordinary fresh start: no event.
        let missing = CheckpointSpec {
            path: scratch("missing"),
            every: 2,
        };
        assert!(load(&missing, &config(), Sphere.bounds(), &ctl).is_none());
        assert!(drain().is_empty());

        let torn = CheckpointSpec {
            path: scratch("torn"),
            every: 2,
        };
        std::fs::write(&torn.path, "{\"generation\": 3, \"trunc").expect("write");
        assert!(load(&torn, &config(), Sphere.bounds(), &ctl).is_none());
        assert_eq!(drain(), [StageCacheCause::Malformed]);
        let _ = std::fs::remove_file(&torn.path);

        // A directory where the file should be cannot be read.
        let unreadable = CheckpointSpec {
            path: scratch("unreadable"),
            every: 2,
        };
        std::fs::create_dir(&unreadable.path).expect("mkdir");
        assert!(load(&unreadable, &config(), Sphere.bounds(), &ctl).is_none());
        assert_eq!(drain(), [StageCacheCause::Unreadable]);
        let _ = std::fs::remove_dir(&unreadable.path);

        // A valid checkpoint from a *different* configuration must not
        // resume this one.
        let path = scratch("foreign");
        let spec = CheckpointSpec {
            path: path.clone(),
            every: 1,
        };
        let sink = FileSink::new(&spec.path, &RunControl::NONE);
        let nsga = Nsga2::new(config());
        let _ = nsga.run_checkpointed(
            &Sphere,
            Vec::new(),
            None,
            Some(CheckpointPlan {
                every: 1,
                sink: &sink,
            }),
            |_| true,
        );
        let other = NsgaConfig {
            seed: 999,
            ..config()
        };
        assert!(load(&spec, &other, Sphere.bounds(), &ctl).is_none());
        assert_eq!(drain(), [StageCacheCause::NotOurs]);
        let valid = load(&spec, &config(), Sphere.bounds(), &ctl).expect("checkpoint loads");
        assert!(drain().is_empty());

        // A `null` objective parses as NaN, which selection cannot
        // order: the checkpoint must not resume the search.
        let mut nulled = valid.clone();
        nulled.population[0].evaluation.objectives[0] = f64::NAN;
        let json = serde_json::to_string(&nulled).expect("checkpoint serializes");
        assert!(json.contains("\"objectives\":[null,"), "{json}");
        std::fs::write(&path, json).expect("write");
        assert!(load(&spec, &config(), Sphere.bounds(), &ctl).is_none());
        assert_eq!(drain(), [StageCacheCause::NotOurs]);
        let _ = std::fs::remove_file(&path);

        // A checkpoint that cannot be written is reported, not flushed.
        let unwritable = scratch("no-such-dir").join("checkpoint.json");
        FileSink::new(&unwritable, &ctl).save(&valid);
        assert_eq!(drain(), [StageCacheCause::WriteFailed]);
    }

    #[test]
    fn default_cadence_is_active_and_zero_disables() {
        let spec = CheckpointSpec {
            path: scratch("active"),
            every: DEFAULT_CHECKPOINT_EVERY,
        };
        assert!(spec.is_active());
        assert!(!CheckpointSpec { every: 0, ..spec }.is_active());
    }

    #[test]
    fn sink_reports_progress_per_flush() {
        use std::sync::Mutex;
        let path = scratch("events");
        let events: Mutex<Vec<ProgressEvent>> = Mutex::new(Vec::new());
        let observer = |e: &ProgressEvent| events.lock().expect("unpoisoned").push(e.clone());
        let ctl = RunControl::new(Some(&observer), None);
        let sink = FileSink::new(&path, &ctl);
        let nsga = Nsga2::new(config());
        let _ = nsga.run_checkpointed(
            &Sphere,
            Vec::new(),
            None,
            Some(CheckpointPlan {
                every: 3,
                sink: &sink,
            }),
            |_| true,
        );
        let generations: Vec<usize> = events
            .lock()
            .expect("unpoisoned")
            .iter()
            .filter_map(|e| match e {
                ProgressEvent::Checkpoint { generation, .. } => Some(*generation),
                _ => None,
            })
            .collect();
        assert_eq!(generations, [3, 6]);
        let _ = std::fs::remove_file(&path);
    }
}
