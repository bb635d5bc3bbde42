//! The staged pipeline API end to end: stage artifacts round-trip
//! through serde, cache to disk and resume without re-running the GA,
//! a corrupt or broken stage cache recomputes exactly the stages it
//! cannot serve, parallel `run_many` reproduces sequential output
//! byte-for-byte, and cancellation aborts mid-run.

use std::sync::{Arc, Mutex};

use printed_mlps::axc::{
    AxTrainConfig, CancelToken, FlowError, Pipeline, Prepared, ProgressEvent, RunManyOptions,
    StageCacheCause, StageKind, Study, StudyConfig,
};
use printed_mlps::datasets::{Dataset, DatasetError};
use printed_mlps::hw::TechLibrary;
use printed_mlps::mlp::QuantMatrix;
use printed_mlps::nsga::NsgaConfig;

/// A micro GA budget: the whole five-stage pipeline runs in well under
/// a second per dataset.
fn micro_config(seed: u64) -> StudyConfig {
    StudyConfig {
        seed,
        ga: AxTrainConfig {
            fitness_subsample: Some(100),
            nsga: NsgaConfig {
                population: 8,
                generations: 4,
                seed,
                ..NsgaConfig::default()
            },
            ..AxTrainConfig::default()
        },
        sgd_epochs_scale: 0.05, // clamps to the 10-epoch floor
        ..StudyConfig::default()
    }
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pe-stage-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

type EventLog = Arc<Mutex<Vec<ProgressEvent>>>;

fn recording_pipeline(
    dataset: Dataset,
    seed: u64,
    cache: Option<&std::path::Path>,
) -> (Pipeline, EventLog) {
    let events: EventLog = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let mut builder = Study::for_dataset(dataset)
        .config(micro_config(seed))
        .tech(TechLibrary::egfet())
        .progress(move |e| sink.lock().expect("unpoisoned").push(e.clone()));
    if let Some(dir) = cache {
        builder = builder.cache_dir(dir);
    }
    (builder.finish().expect("valid micro config"), events)
}

fn ga_generations(events: &EventLog) -> usize {
    events
        .lock()
        .expect("unpoisoned")
        .iter()
        .filter(|e| matches!(e, ProgressEvent::GaGeneration { .. }))
        .count()
}

fn loaded_stages(events: &EventLog) -> Vec<StageKind> {
    events
        .lock()
        .expect("unpoisoned")
        .iter()
        .filter_map(|e| match e {
            ProgressEvent::StageLoaded { stage } => Some(*stage),
            _ => None,
        })
        .collect()
}

#[test]
fn stage_artifacts_round_trip_through_serde() {
    let (pipeline, _) = recording_pipeline(Dataset::BreastCancer, 17, None);
    let prepared = pipeline.prepare().expect("prepare");
    let float = pipeline.train_float(prepared.clone()).expect("train");
    let costed = pipeline.cost_baseline(float.clone()).expect("cost");
    let searched = pipeline.search(costed.clone()).expect("search");
    let selected = pipeline.select(searched.clone()).expect("select");

    macro_rules! round_trip {
        ($value:expr, $ty:ty) => {{
            let json = serde_json::to_string_pretty(&$value).expect("serialize");
            let back: $ty = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, $value);
        }};
    }
    round_trip!(prepared, printed_mlps::axc::Prepared);
    round_trip!(float, printed_mlps::axc::FloatTrained);
    round_trip!(costed, printed_mlps::axc::BaselineCosted);
    round_trip!(searched, printed_mlps::axc::Searched);
    round_trip!(selected, printed_mlps::axc::Selected);
}

#[test]
fn cached_searched_stage_resumes_without_rerunning_the_ga() {
    let dir = fresh_dir("resume");

    // First run computes and stores every stage up to `Searched`.
    let (first, first_events) = recording_pipeline(Dataset::BreastCancer, 23, Some(&dir));
    let searched_once = first.searched().expect("first run");
    assert!(ga_generations(&first_events) > 0, "the GA actually ran");
    assert!(loaded_stages(&first_events).is_empty());

    // A fresh pipeline over the same cache resumes: the GA must not run
    // again, and the full run completes from the cached stage.
    let (second, second_events) = recording_pipeline(Dataset::BreastCancer, 23, Some(&dir));
    let selected = second.run().expect("resumed run");
    assert_eq!(ga_generations(&second_events), 0, "resume must skip the GA");
    assert_eq!(loaded_stages(&second_events), vec![StageKind::Searched]);
    assert_eq!(selected.searched, searched_once);

    // A different seed misses the cache (distinct key) and recomputes.
    let (third, third_events) = recording_pipeline(Dataset::BreastCancer, 24, Some(&dir));
    let _ = third.searched().expect("different-seed run");
    assert!(ga_generations(&third_events) > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nominal_cached_search_is_not_reused_by_a_robust_study() {
    use printed_mlps::hw::VariationModel;
    let dir = fresh_dir("robust-key");

    // Seed the cache with a nominal search.
    let (nominal, nominal_events) = recording_pipeline(Dataset::BreastCancer, 29, Some(&dir));
    let nominal_searched = nominal.searched().expect("nominal run");
    assert!(ga_generations(&nominal_events) > 0);

    // The same study with a variation request must miss the Searched
    // cache entry (its key covers the variation config) and re-run the
    // GA — while still resuming the variation-independent early stages.
    let events: EventLog = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let robust = Study::for_dataset(Dataset::BreastCancer)
        .config(micro_config(29))
        .tech(TechLibrary::egfet())
        .variation(VariationModel::printed_egfet(), 2)
        .progress(move |e| sink.lock().expect("unpoisoned").push(e.clone()))
        .cache_dir(&dir)
        .finish()
        .expect("valid robust micro config");
    let robust_searched = robust.searched().expect("robust run");
    assert!(
        ga_generations(&events) > 0,
        "the robust study must re-search, not reuse the nominal front"
    );
    let loaded = loaded_stages(&events);
    assert!(
        !loaded.contains(&StageKind::Searched),
        "the nominal Searched artifact must not satisfy a robust study, loaded {loaded:?}"
    );
    assert!(
        loaded.contains(&StageKind::BaselineCosted),
        "variation-independent early stages must still resume, loaded {loaded:?}"
    );
    assert_ne!(
        serde_json::to_string(&robust_searched.outcome.front).expect("serialize"),
        serde_json::to_string(&nominal_searched.outcome.front).expect("serialize"),
        "a real variation corner must reshape the front"
    );

    // And the nominal pipeline keeps hitting its own entry: the robust
    // run wrote beside it, not over it.
    let (again, again_events) = recording_pipeline(Dataset::BreastCancer, 29, Some(&dir));
    let _ = again.searched().expect("nominal resume");
    assert_eq!(ga_generations(&again_events), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Zero the only non-deterministic field (wall-clock search time) so
/// equality means "same computation", not "same machine load". The
/// table artifacts the bins write never include this field.
fn untimed(mut selected: printed_mlps::axc::Selected) -> printed_mlps::axc::Selected {
    selected.searched.outcome.ga_wall = std::time::Duration::ZERO;
    selected
}

#[test]
fn a_hand_edited_prepared_cache_file_is_a_typed_error() {
    let dir = fresh_dir("edited-prepared");
    let (pipeline, _) = recording_pipeline(Dataset::BreastCancer, 3, Some(&dir));
    let original = pipeline.prepared().expect("prepared");
    let path = stage_file(&dir, StageKind::Prepared);
    // Dataset and seed still match, so the pipeline loads the file.
    type Edit = fn(&mut Prepared);
    let edits: [(Edit, DatasetError); 2] = [
        (
            |p| p.float_train.labels[0] = 7,
            DatasetError::LabelOutOfRange {
                row: 0,
                label: 7,
                classes: 2,
            },
        ),
        (
            |p| {
                p.float_train.features[4].pop();
            },
            DatasetError::RaggedRow {
                row: 4,
                expected: 10,
                found: 9,
            },
        ),
    ];
    for (edit, expected) in edits {
        let mut edited = original.clone();
        edit(&mut edited);
        std::fs::write(&path, serde_json::to_string(&edited).expect("json")).expect("write");
        let (pipeline, events) = recording_pipeline(Dataset::BreastCancer, 3, Some(&dir));
        let result = pipeline.float_trained();
        assert_eq!(result.err(), Some(FlowError::Dataset(expected)));
        assert_eq!(loaded_stages(&events), vec![StageKind::Prepared]);
    }

    // The quantized splits: the baseline and the search read them, so
    // each stage checks them first, whichever of the two runs on top of
    // the cache.
    std::fs::write(&path, serde_json::to_string(&original).expect("json")).expect("write");
    pipeline.baseline_costed().expect("baseline");
    let baseline_path = stage_file(&dir, StageKind::BaselineCosted);
    let baseline = std::fs::read(&baseline_path).expect("baseline file");
    let (train_rows, test_rows) = (original.train.len(), original.test.len());
    let edits: [(Edit, DatasetError); 4] = [
        (
            |p| {
                let rows: Vec<Vec<u8>> = p.train.features.iter().map(|r| r[1..].to_vec()).collect();
                p.train.features = QuantMatrix::from_rows(&rows);
            },
            DatasetError::RaggedRow {
                row: 0,
                expected: 10,
                found: 9,
            },
        ),
        (
            |p| {
                p.train.labels.pop();
            },
            DatasetError::LengthMismatch {
                features: train_rows,
                labels: train_rows - 1,
            },
        ),
        (
            |p| p.test.labels[2] = 2,
            DatasetError::LabelOutOfRange {
                row: 2,
                label: 2,
                classes: 2,
            },
        ),
        (
            // Rewritten in the JSON text below: no API builds such a
            // matrix.
            |_| {},
            DatasetError::BufferSize {
                bytes: 10 * test_rows,
                width: 10,
                rows: test_rows + 1,
            },
        ),
    ];
    for (edit, expected) in edits {
        let mut edited = original.clone();
        edit(&mut edited);
        let mut json = serde_json::to_string(&edited).expect("json");
        if let DatasetError::BufferSize { .. } = expected {
            let rows = format!("\"width\":10,\"rows\":{test_rows}}}");
            assert_eq!(json.matches(&rows).count(), 1, "{rows}");
            json = json.replace(&rows, &format!("\"width\":10,\"rows\":{}}}", test_rows + 1));
        }
        std::fs::write(&path, json).expect("write");
        let expected = Some(FlowError::Dataset(expected));
        // The search, over a cached baseline.
        let (pipeline, events) = recording_pipeline(Dataset::BreastCancer, 3, Some(&dir));
        assert_eq!(pipeline.searched().err(), expected);
        assert_eq!(loaded_stages(&events), vec![StageKind::BaselineCosted]);
        // The baseline, over a cached float model.
        std::fs::remove_file(&baseline_path).expect("remove");
        let (pipeline, events) = recording_pipeline(Dataset::BreastCancer, 3, Some(&dir));
        assert_eq!(pipeline.baseline_costed().err(), expected);
        assert_eq!(loaded_stages(&events), vec![StageKind::FloatTrained]);
        std::fs::write(&baseline_path, &baseline).expect("restore");
    }

    // Bench code reads the splits of a stage loaded whole from the
    // cache, so each later stage checks them when it loads: over a
    // fully cached chain, a test split one label short is the same
    // typed error.
    std::fs::write(&path, serde_json::to_string(&original).expect("json")).expect("write");
    pipeline.selected().expect("selected");
    let mut edited = original.clone();
    edited.test.labels.pop();
    std::fs::write(&path, serde_json::to_string(&edited).expect("json")).expect("write");
    let expected = Some(FlowError::Dataset(DatasetError::LengthMismatch {
        features: test_rows,
        labels: test_rows - 1,
    }));
    let (pipeline, events) = recording_pipeline(Dataset::BreastCancer, 3, Some(&dir));
    assert_eq!(pipeline.selected().err(), expected);
    assert_eq!(pipeline.searched().err(), expected);
    assert_eq!(pipeline.baseline_costed().err(), expected);
    assert_eq!(
        loaded_stages(&events),
        vec![
            StageKind::Selected,
            StageKind::Searched,
            StageKind::BaselineCosted
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stage file of `stage` in a one-dataset cache directory.
fn stage_file(dir: &std::path::Path, stage: StageKind) -> std::path::PathBuf {
    let suffix = format!("-{stage}.json");
    std::fs::read_dir(dir)
        .expect("cache dir")
        .map(|entry| entry.expect("entry").path())
        .find(|path| path.to_string_lossy().ends_with(&suffix))
        .unwrap_or_else(|| panic!("a {stage} stage file"))
}

fn truncate_half(path: &std::path::Path) {
    let bytes = std::fs::read(path).expect("read");
    std::fs::write(path, &bytes[..bytes.len() / 2]).expect("write");
}

/// A fresh directory tagged `tag` holding a copy of every file in
/// `from`.
fn copy_cache(from: &std::path::Path, tag: &str) -> std::path::PathBuf {
    let dir = fresh_dir(tag);
    std::fs::create_dir_all(&dir).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("cache dir") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, dir.join(path.file_name().expect("name"))).expect("copy");
    }
    dir
}

/// The degraded-cache events a run must emit, in order.
type Degraded = Vec<(StageKind, StageCacheCause)>;

/// Check a run's degraded-cache events against `degraded`, and that it
/// computed exactly the stages from `first` onward.
fn assert_cache_trail(case: &str, events: &EventLog, degraded: &Degraded, first: StageKind) {
    let events = events.lock().expect("unpoisoned");
    let seen: Degraded = events
        .iter()
        .filter_map(|e| match *e {
            ProgressEvent::StageCacheDegraded { stage, cause } => Some((stage, cause)),
            _ => None,
        })
        .collect();
    assert_eq!(&seen, degraded, "{case}");
    let started: Vec<StageKind> = events
        .iter()
        .filter_map(|e| match *e {
            ProgressEvent::StageStarted { stage } => Some(stage),
            _ => None,
        })
        .collect();
    let from = StageKind::ALL
        .iter()
        .position(|&s| s == first)
        .expect("stage");
    assert_eq!(started, StageKind::ALL[from..], "{case}");
}

#[test]
fn a_corrupt_stage_cache_recomputes_from_the_first_broken_link() {
    use StageCacheCause::{BrokenParentLink, Malformed};
    use StageKind::{BaselineCosted, FloatTrained, Prepared, Searched, Selected};
    let seed = 11;
    let quick = |cache: Option<&std::path::Path>| {
        let events: EventLog = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let mut builder = Study::for_dataset(Dataset::BreastCancer)
            .config(StudyConfig::quick(seed))
            .tech(TechLibrary::egfet())
            .progress(move |e| sink.lock().expect("unpoisoned").push(e.clone()));
        if let Some(dir) = cache {
            builder = builder.cache_dir(dir);
        }
        (builder.finish().expect("valid quick config"), events)
    };
    let expected = untimed(quick(None).0.run().expect("uncached run"));
    let pristine = fresh_dir("corpus-pristine");
    let (cached, _) = quick(Some(&pristine));
    cached.run().expect("cold cached run");
    // The version-1 layout: the whole upstream chain inside the file.
    let v1_searched =
        serde_json::to_string(&cached.searched().expect("cached searched")).expect("serialize");

    type Corrupt = Box<dyn Fn(&std::path::Path)>;
    // Each case: what breaks, the degraded events it must cause, and
    // the first stage that has to be recomputed.
    let cases: Vec<(&str, Corrupt, Degraded, StageKind)> = vec![
        (
            "truncated Selected file",
            Box::new(|dir| truncate_half(&stage_file(dir, Selected))),
            vec![(Selected, Malformed)],
            Selected,
        ),
        (
            "truncated Prepared file",
            Box::new(|dir| truncate_half(&stage_file(dir, Prepared))),
            vec![
                (Selected, BrokenParentLink),
                (Searched, BrokenParentLink),
                (BaselineCosted, BrokenParentLink),
                (FloatTrained, BrokenParentLink),
                (Prepared, Malformed),
            ],
            Prepared,
        ),
        (
            // A plain miss emits nothing for the missing stage itself.
            "deleted FloatTrained file",
            Box::new(|dir| std::fs::remove_file(stage_file(dir, FloatTrained)).expect("rm")),
            vec![
                (Selected, BrokenParentLink),
                (Searched, BrokenParentLink),
                (BaselineCosted, BrokenParentLink),
            ],
            FloatTrained,
        ),
        (
            "rewritten parent key of the Searched file",
            Box::new(|dir| {
                let path = stage_file(dir, Searched);
                let text = std::fs::read_to_string(&path).expect("read");
                let link = "\"parent\":\"";
                let at = text.find(link).expect("a parent link") + link.len();
                let edited = format!("{}{}{}", &text[..at], "0".repeat(16), &text[at + 16..]);
                assert_ne!(edited, text);
                std::fs::write(&path, edited).expect("write");
            }),
            vec![(Selected, BrokenParentLink), (Searched, BrokenParentLink)],
            Searched,
        ),
        (
            "version-1 Searched file under its version-2 name",
            Box::new(move |dir| {
                std::fs::write(stage_file(dir, Searched), &v1_searched).expect("write");
            }),
            vec![(Selected, BrokenParentLink), (Searched, Malformed)],
            Searched,
        ),
        (
            "BaselineCosted file that is not a JSON object",
            Box::new(|dir| {
                std::fs::write(stage_file(dir, BaselineCosted), "[1,2,3]").expect("write");
            }),
            vec![
                (Selected, BrokenParentLink),
                (Searched, BrokenParentLink),
                (BaselineCosted, Malformed),
            ],
            BaselineCosted,
        ),
    ];
    for (case, corrupt, degraded, first) in cases {
        let dir = copy_cache(&pristine, "corpus-case");
        corrupt(&dir);
        let (pipeline, events) = quick(Some(&dir));
        let selected = pipeline.run().expect("a corrupt cache recomputes");
        assert_eq!(untimed(selected), expected, "{case}");
        assert_cache_trail(case, &events, &degraded, first);
        // The recompute repaired the chain: the next run loads it whole.
        let (again, again_events) = quick(Some(&dir));
        assert_eq!(
            untimed(again.run().expect("repaired run")),
            expected,
            "{case}"
        );
        assert_eq!(loaded_stages(&again_events), vec![Selected], "{case}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&pristine);
}

#[test]
fn foreign_unreadable_and_unwritable_stage_files_are_reported() {
    use StageCacheCause::{NotOurs, Unreadable, WriteFailed};
    let seed = 13;
    let pristine = fresh_dir("causes-pristine");
    let (first, _) = recording_pipeline(Dataset::BreastCancer, seed, Some(&pristine));
    let expected = untimed(first.run().expect("cold cached run"));

    type Corrupt = fn(&std::path::Path);
    let cases: [(&str, Corrupt, Degraded, StageKind); 3] = [
        (
            // The chain still links, but every stage's rebuilt value
            // now carries another seed.
            "Prepared file of another seed",
            |dir| {
                let path = stage_file(dir, StageKind::Prepared);
                let text = std::fs::read_to_string(&path).expect("read");
                let mut prepared: Prepared = serde_json::from_str(&text).expect("parse");
                prepared.seed += 1;
                std::fs::write(&path, serde_json::to_string(&prepared).expect("json"))
                    .expect("write");
            },
            StageKind::ALL
                .iter()
                .rev()
                .map(|&stage| (stage, NotOurs))
                .collect(),
            StageKind::Prepared,
        ),
        (
            "Searched file of another engine",
            |dir| {
                let path = stage_file(dir, StageKind::Searched);
                let text = std::fs::read_to_string(&path).expect("read");
                let edited = text.replacen("\"engine\":\"nsga2-axc\"", "\"engine\":\"other\"", 1);
                assert_ne!(edited, text);
                std::fs::write(&path, edited).expect("write");
            },
            vec![
                (StageKind::Selected, NotOurs),
                (StageKind::Searched, NotOurs),
            ],
            StageKind::Searched,
        ),
        (
            // A directory in the file's place can be neither read nor
            // replaced.
            "directory in place of the Selected file",
            |dir| {
                let path = stage_file(dir, StageKind::Selected);
                std::fs::remove_file(&path).expect("rm");
                std::fs::create_dir(&path).expect("mkdir");
                std::fs::write(path.join("occupied"), "x").expect("write");
            },
            vec![
                (StageKind::Selected, Unreadable),
                (StageKind::Selected, WriteFailed),
            ],
            StageKind::Selected,
        ),
    ];
    for (case, corrupt, degraded, first) in cases {
        let dir = copy_cache(&pristine, "causes-case");
        corrupt(&dir);
        let (pipeline, events) = recording_pipeline(Dataset::BreastCancer, seed, Some(&dir));
        let selected = pipeline.run().expect("a degraded cache still runs");
        assert_eq!(untimed(selected), expected, "{case}");
        assert_cache_trail(case, &events, &degraded, first);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&pristine);
}

#[test]
fn cached_results_equal_uncached_results() {
    let dir = fresh_dir("equal");
    let (cached, _) = recording_pipeline(Dataset::RedWine, 31, Some(&dir));
    let (plain, _) = recording_pipeline(Dataset::RedWine, 31, None);
    let a = cached.run().expect("cached run");
    let warm = cached.run().expect("warm-cache run");
    let b = plain.run().expect("plain run");
    // The warm run loads the stored artifact: equal to the first run
    // exactly, timing included (cache fidelity).
    assert_eq!(a, warm);
    // An uncached pipeline computes the same result up to wall-clock.
    assert_eq!(untimed(a), untimed(b));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_many_is_parallel_scheduling_invariant() {
    let datasets = [Dataset::BreastCancer, Dataset::RedWine, Dataset::Cardio];
    let base = micro_config(5);

    let mut sequential = Pipeline::run_many(&datasets, &base, &RunManyOptions::with_threads(1))
        .expect("sequential run");
    let mut parallel = Pipeline::run_many(&datasets, &base, &RunManyOptions::with_threads(3))
        .expect("parallel run");

    // Byte-identical JSON artifacts regardless of scheduling, once the
    // wall-clock metadata (never part of the table artifacts) is
    // normalized out.
    for study in sequential.iter_mut().chain(parallel.iter_mut()) {
        study.outcome.ga_wall = std::time::Duration::ZERO;
    }
    let sequential_json = serde_json::to_string_pretty(&sequential).expect("serialize");
    let parallel_json = serde_json::to_string_pretty(&parallel).expect("serialize");
    assert_eq!(sequential_json, parallel_json);

    // Per-dataset seeds are derived, not shared: distinct across rows.
    assert_eq!(sequential.len(), 3);
    assert_eq!(sequential[0].dataset, Dataset::BreastCancer);
    assert_eq!(sequential[1].dataset, Dataset::RedWine);
}

#[test]
fn cancellation_aborts_the_float_training_stage() {
    let token = CancelToken::new();
    let cancel_after = 3usize;
    let seen = Arc::new(Mutex::new(0usize));
    let counter = Arc::clone(&seen);
    let trip = token.clone();
    let pipeline = Study::for_dataset(Dataset::BreastCancer)
        .config(micro_config(41))
        .tech(TechLibrary::egfet())
        .progress(move |e| {
            if matches!(e, ProgressEvent::SgdEpoch { .. }) {
                let mut n = counter.lock().expect("unpoisoned");
                *n += 1;
                if *n == cancel_after {
                    trip.cancel();
                }
            }
        })
        .cancel_token(token)
        .finish()
        .expect("valid micro config");

    match pipeline.run() {
        Err(FlowError::Cancelled { stage }) => assert_eq!(stage, StageKind::FloatTrained),
        other => panic!("expected cancellation, got {other:?}"),
    }
    assert_eq!(*seen.lock().expect("unpoisoned"), cancel_after);
}

#[test]
fn cancelled_search_flushes_a_checkpoint_and_resumes_byte_identically() {
    let dir = fresh_dir("cancel-resume");
    let seed = 47;

    // Cancel mid-GA. The stop-flush must leave a search checkpoint in
    // the stage-cache directory even though the cadence (5 > the 4
    // micro-config generations) never fired on its own.
    let token = CancelToken::new();
    let trip = token.clone();
    let cancelled = Study::for_dataset(Dataset::BreastCancer)
        .config(micro_config(seed))
        .tech(TechLibrary::egfet())
        .progress(move |e| {
            if matches!(e, ProgressEvent::GaGeneration { generation: 1, .. }) {
                trip.cancel();
            }
        })
        .cancel_token(token)
        .cache_dir(&dir)
        .checkpoint_every(5)
        .finish()
        .expect("valid micro config");
    match cancelled.run() {
        Err(FlowError::Cancelled { stage }) => assert_eq!(stage, StageKind::Searched),
        other => panic!("expected cancellation, got {other:?}"),
    }
    let checkpoint_file = |dir: &std::path::Path| {
        std::fs::read_dir(dir).ok().and_then(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .find(|p| p.to_string_lossy().ends_with(".ckpt.json"))
        })
    };
    let flushed = checkpoint_file(&dir).expect("cancellation must flush a search checkpoint");
    let checkpoint: printed_mlps::nsga::SearchCheckpoint =
        serde_json::from_str(&std::fs::read_to_string(&flushed).expect("checkpoint reads"))
            .expect("checkpoint parses");
    assert_eq!(
        checkpoint.generation, 2,
        "cancelling at generation index 1 snapshots two completed generations"
    );

    // A fresh pipeline over the same cache resumes the cancelled
    // search: only the remaining generations run.
    let (resumed, resumed_events) = recording_pipeline(Dataset::BreastCancer, seed, Some(&dir));
    let resumed_selected = resumed.run().expect("resumed run");
    assert_eq!(
        ga_generations(&resumed_events),
        micro_config(seed).ga.nsga.generations - checkpoint.generation,
        "the resumed search must skip the checkpointed generations"
    );
    assert!(
        checkpoint_file(&dir).is_none(),
        "a completed search must clean its checkpoint up"
    );

    // And the result is byte-identical to an uninterrupted run's.
    let (uninterrupted, _) = recording_pipeline(Dataset::BreastCancer, seed, None);
    let baseline_selected = uninterrupted.run().expect("uninterrupted run");
    assert_eq!(
        serde_json::to_string(&untimed(resumed_selected)).expect("serialize"),
        serde_json::to_string(&untimed(baseline_selected)).expect("serialize"),
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancellation_aborts_the_search_stage_mid_ga() {
    let token = CancelToken::new();
    let trip = token.clone();
    let pipeline = Study::for_dataset(Dataset::BreastCancer)
        .config(micro_config(43))
        .tech(TechLibrary::egfet())
        .progress(move |e| {
            if matches!(e, ProgressEvent::GaGeneration { generation: 1, .. }) {
                trip.cancel();
            }
        })
        .cancel_token(token)
        .finish()
        .expect("valid micro config");

    match pipeline.run() {
        Err(FlowError::Cancelled { stage }) => assert_eq!(stage, StageKind::Searched),
        other => panic!("expected cancellation, got {other:?}"),
    }
}
