//! The design store's contract: evaluations deduplicate by weight
//! signature, store files round-trip (and fail cleanly when corrupt),
//! re-costing a stored design is bit-equal to costing the live one,
//! store queries reproduce the pipeline's own selections, and
//! attaching an ingest-only store never perturbs the search.

use std::path::PathBuf;
use std::sync::Arc;

use printed_mlps::axc::{
    select_from_store, AxTrainConfig, FlowError, Pipeline, Selected, StoreSink, Study, StudyConfig,
};
use printed_mlps::datasets::Dataset;
use printed_mlps::hw::{CostScenario, ExactCostModel};
use printed_mlps::mlp::{ax_to_hardware, AxLayer, AxMlp, AxNeuron, AxWeight};
use printed_mlps::nsga::NsgaConfig;
use printed_mlps::store::{counts_of_spec, DesignStore, StoreWriter};

fn scratch_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "printed-mlps-design-store-{}-{tag}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// A small-but-real GA budget (the robust-parity suite's scale).
fn base_config(seed: u64) -> StudyConfig {
    StudyConfig {
        seed,
        ga: AxTrainConfig {
            fitness_subsample: Some(100),
            nsga: NsgaConfig {
                population: 12,
                generations: 5,
                seed,
                ..NsgaConfig::default()
            },
            ..AxTrainConfig::default()
        },
        sgd_epochs_scale: 0.05,
        ..StudyConfig::default()
    }
}

fn run(study: Study) -> Selected {
    study
        .finish()
        .expect("store configs are valid")
        .run()
        .expect("uncancelled study succeeds")
}

/// The full stage artifact as JSON with the GA's wall-clock zeroed, so
/// the rest compares byte for byte.
fn json(selected: &Selected) -> String {
    let mut untimed = selected.clone();
    untimed.searched.outcome.ga_wall = std::time::Duration::ZERO;
    serde_json::to_string(&untimed).expect("serializable stage artifact")
}

/// A tiny two-neuron network with enough live weights to elaborate
/// real adder columns (single-summand accumulators cost zero adders).
fn tiny_mlp(mask: u16) -> AxMlp {
    AxMlp {
        layers: vec![AxLayer {
            input_bits: 4,
            neurons: vec![
                AxNeuron {
                    weights: vec![
                        AxWeight {
                            mask,
                            shift: 0,
                            negative: false,
                        };
                        3
                    ],
                    bias: 5,
                },
                AxNeuron {
                    weights: vec![
                        AxWeight {
                            mask: 1,
                            shift: 1,
                            negative: true,
                        };
                        3
                    ],
                    bias: -3,
                },
            ],
            qrelu: None,
        }],
    }
}

#[test]
fn identical_designs_at_different_positions_collapse_to_one_record() {
    let path = scratch_path("dedup");
    let writer = Arc::new(StoreWriter::open(&path).expect("fresh store opens"));
    let sink = StoreSink::new(Arc::clone(&writer), "Dedup", false);

    // The same network evaluated at three population positions (and a
    // distinct sibling) must produce exactly two stored designs.
    for _position in 0..3 {
        sink.record_evaluation(&tiny_mlp(0b11), 0.9, None, 40.0);
    }
    sink.record_evaluation(&tiny_mlp(0b111), 0.8, None, 60.0);

    let stats = sink.stats();
    assert_eq!(stats.ingested, 2, "two unique designs");
    assert_eq!(stats.deduplicated, 2, "two repeat evaluations collapsed");
    assert!(stats.bytes_written > 0);
    drop(sink);
    drop(writer);

    let store = DesignStore::load(&path).expect("store round-trips");
    assert_eq!(store.records().len(), 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_store_files_fail_cleanly_not_by_panic() {
    // Garbage content: loading and opening both surface clean errors.
    let path = scratch_path("corrupt");
    std::fs::write(&path, "this is not json\n").expect("can write scratch file");
    assert!(DesignStore::load(&path).is_err(), "corrupt load must error");
    let err = Study::for_dataset(Dataset::BreastCancer)
        .config(base_config(3))
        .design_store(&path)
        .finish()
        .err()
        .expect("corrupt store must fail the builder");
    assert!(
        matches!(err, FlowError::Store { .. }),
        "expected FlowError::Store, got {err:?}"
    );

    // A truncated final line (torn write) is also a clean error.
    let torn_src = scratch_path("torn-src");
    let writer = StoreWriter::open(&torn_src).expect("fresh store opens");
    let sink = StoreSink::new(Arc::new(writer), "Torn", false);
    sink.record_evaluation(&tiny_mlp(0b11), 0.9, None, 40.0);
    let full = std::fs::read_to_string(&torn_src).expect("store file readable");
    let torn = scratch_path("torn");
    std::fs::write(&torn, &full[..full.len() / 2]).expect("can write scratch file");
    assert!(
        DesignStore::load(&torn).is_err(),
        "truncated load must error"
    );
    for path in [path, torn_src, torn] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn recosting_a_stored_design_is_bit_equal_to_live_costing() {
    let path = scratch_path("recost");
    let writer = Arc::new(StoreWriter::open(&path).expect("fresh store opens"));
    let sink = StoreSink::new(writer, "Recost", false);
    let mlp = tiny_mlp(0b101);
    sink.record_evaluation(&mlp, 0.9, None, 40.0);
    drop(sink);

    let store = DesignStore::load(&path).expect("store round-trips");
    let record = &store.records()[0];

    // Stored gate counts == a fresh elaboration of the same design.
    let live_spec = ax_to_hardware(&mlp, "recost");
    assert_eq!(record.counts, counts_of_spec(&live_spec));

    // Re-costing the reconstructed spec == costing the live one,
    // bit for bit, at nominal and at a scaled supply.
    for scenario in [
        CostScenario::default(),
        CostScenario::default().at_supply(0.8),
    ] {
        let model = ExactCostModel::new(scenario);
        let stored = model.costed(&record.hardware_spec("recost")).report;
        let live = model.costed(&live_spec).report;
        assert_eq!(stored, live, "stored/live cost reports must be bit-equal");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn store_query_reproduces_the_pipelines_own_selection() {
    let dataset = Dataset::BreastCancer;
    let path = scratch_path("parity");
    let config = base_config(7);
    let selected = run(Study::for_dataset(dataset)
        .config(config.clone())
        .design_store(&path));

    let store = DesignStore::load(&path).expect("store round-trips");
    let from_store = select_from_store(
        &store,
        dataset.spec().name,
        config.scenario.clone(),
        selected.searched.costed.baseline_test_accuracy,
        selected.loss_budget,
        config.scenario.power_budget_mw,
    );
    let live = selected.selected.as_ref().expect("tiny run selects");
    let stored = from_store.expect("store query selects");
    // The costed circuits' labels legitimately differ (live fronts
    // name points `_pN`, store fronts `_store_pN`); everything else
    // must be bit-equal.
    let mut relabeled = stored.report.clone();
    relabeled.name.clone_from(&live.report.name);
    assert_eq!(live.report, relabeled, "same design, bit-equal cost");
    assert_eq!(live.test_accuracy, stored.test_accuracy);
    assert_eq!(live.network.ax(), stored.network.ax());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn ingest_only_store_never_perturbs_the_search() {
    let dataset = Dataset::Cardio;
    let storeless = run(Study::for_dataset(dataset).config(base_config(11)));
    let path = scratch_path("inert");
    let with_store = run(Study::for_dataset(dataset)
        .config(base_config(11))
        .design_store(&path));
    assert_eq!(
        json(&storeless),
        json(&with_store),
        "ingest-only store must leave the whole stage artifact byte-identical"
    );
    let store = DesignStore::load(&path).expect("store round-trips");
    assert!(!store.records().is_empty(), "the search was recorded");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn warm_started_searches_are_deterministic() {
    let dataset = Dataset::BreastCancer;
    let seed_store = scratch_path("warm-seed");
    let _ = run(Study::for_dataset(dataset)
        .config(base_config(13))
        .design_store(&seed_store));

    // Each warm run appends its own evaluations, so determinism is
    // checked against identical *copies* of the seed store.
    let mut artifacts = Vec::new();
    for tag in ["warm-a", "warm-b"] {
        let copy = scratch_path(tag);
        std::fs::copy(&seed_store, &copy).expect("can copy scratch store");
        let warmed = run(Study::for_dataset(dataset)
            .config(base_config(13))
            .design_store(&copy)
            .warm_start(true));
        assert!(!warmed.searched.outcome.front.is_empty());
        artifacts.push(json(&warmed));
        let _ = std::fs::remove_file(&copy);
    }
    assert_eq!(
        artifacts[0], artifacts[1],
        "warm-started runs from identical stores must be byte-identical"
    );
    let _ = std::fs::remove_file(&seed_store);
}

#[test]
fn shared_writer_ingests_across_parallel_studies() {
    let path = scratch_path("shared");
    let writer = Arc::new(StoreWriter::open(&path).expect("fresh store opens"));
    let mut opts = printed_mlps::axc::RunManyOptions::with_threads(2);
    opts.store = Some(Arc::clone(&writer));
    let datasets = [Dataset::BreastCancer, Dataset::Cardio];
    let studies = Pipeline::run_many(&datasets, &base_config(17), &opts)
        .expect("uncancelled studies succeed");
    assert_eq!(studies.len(), 2);
    drop(opts);
    let stats = writer.stats();
    assert!(stats.ingested > 0);
    drop(writer);

    let store = DesignStore::load(&path).expect("store round-trips");
    let mut names: Vec<&str> = store.datasets();
    names.sort_unstable();
    let mut expected: Vec<&str> = datasets.iter().map(|d| d.spec().name).collect();
    expected.sort_unstable();
    assert_eq!(names, expected, "both studies recorded into one store");
    let _ = std::fs::remove_file(&path);
}
