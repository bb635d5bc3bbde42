//! Crash/resume drill (`BENCH_fault.json`): deterministic fault
//! injection against the live pipeline and store.
//!
//! The drill re-executes its own binary as short-lived child processes
//! with a seeded `PE_FAULT` plan armed (see [`pe_store::fault`]), so
//! every "crash" is a real `abort()` — no destructors, no flushes —
//! at a reproducible, seed-chosen point. Each cycle then proves the
//! recovery contract:
//!
//! * **search** — a quick study is killed mid-GA (at a seeded
//!   generation or evaluation wave, or failed through the error path),
//!   restarted, and must resume from its checkpoint to a `Selected`
//!   artifact byte-identical (wall-clock zeroed) to an uninterrupted
//!   baseline run's.
//! * **atomic-write** — [`pe_store::atomic_write`] is killed after
//!   half its temp-file bytes; the destination must keep its previous
//!   contents, and a retry must fully replace them.
//! * **store-append** — a [`pe_store::StoreWriter`] ingest loop is
//!   killed mid-append; the torn trailing line must salvage away
//!   ([`pe_store::StoreWriter::open_salvaged`]) keeping every intact
//!   record, and a re-run must land the full record set.
//! * **concurrent-append** — two *processes* append overlapping record
//!   ranges to one store file; the advisory file locks must keep the
//!   file tear-free and lose no records.
//!
//! Recovery latency (the resume run's wall-clock) is measured per
//! cycle; a cycle is **green** only when the crash fired as planned
//! and every recovery assertion held.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use pe_datasets::Dataset;
use pe_mlp::{AxLayer, AxMlp, AxNeuron, AxWeight, QReluCfg};
use pe_nsga::NsgaConfig;
use pe_store::{DesignRecord, DesignStore, StoreError, StoreWriter};
use printed_axc::{AxTrainConfig, ProgressEvent, StageKind, Study, StudyConfig};

use crate::format::render_table;
use crate::knobs::Knobs;

/// Environment variable selecting a child role (internal protocol
/// between the drill parent and its re-executed children).
const ROLE_VAR: &str = "PE_DRILL_ROLE";

/// One crash/resume cycle's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrillCycle {
    /// What was drilled: `search`, `atomic-write`, `store-append`,
    /// `concurrent-append`.
    pub stage: String,
    /// The `PE_FAULT` plan the crash run was armed with (empty for the
    /// faultless concurrency cycles).
    pub fault: String,
    /// Whether the armed child died as planned (always true for the
    /// concurrency cycles, which must *not* die).
    pub crashed: bool,
    /// Completed generations in the checkpoint the resume started from
    /// (`None` when no checkpoint survived — the resume then restarts
    /// from scratch, which must still reproduce the baseline — or for
    /// non-search stages).
    pub resumed_from_generation: Option<usize>,
    /// Wall-clock of the recovery run in milliseconds.
    pub recovery_ms: f64,
    /// Whether every recovery assertion held (for `search`: the
    /// resumed `Selected` artifact is byte-identical to the
    /// uninterrupted baseline's, wall-clock zeroed).
    pub identical: bool,
    /// Human-readable note (what was asserted, or what went wrong).
    pub detail: String,
}

impl DrillCycle {
    /// A cycle counts as green when the fault fired as planned and
    /// recovery restored the invariant.
    #[must_use]
    pub fn green(&self) -> bool {
        self.crashed && self.identical
    }
}

/// The full `BENCH_fault.json` report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultDrillReport {
    /// Wall-clock of the uninterrupted baseline study in milliseconds.
    pub baseline_ms: f64,
    /// Every crash/resume cycle, in execution order.
    pub cycles: Vec<DrillCycle>,
    /// Cycles with both a planned crash and a clean recovery.
    pub green: usize,
    /// Total cycles executed.
    pub total: usize,
}

/// The quick one-dataset study every search drill runs: small enough
/// for tens of child processes, large enough that a seeded mid-GA kill
/// lands at a nontrivial generation.
#[must_use]
pub fn drill_config(seed: u64) -> StudyConfig {
    StudyConfig {
        seed,
        ga: AxTrainConfig {
            fitness_subsample: Some(300),
            nsga: NsgaConfig {
                population: 16,
                generations: 12,
                mutation_prob: 0.05,
                seed,
                ..NsgaConfig::default()
            },
            ..AxTrainConfig::default()
        },
        sgd_epochs_scale: 0.1,
        ..StudyConfig::default()
    }
}

/// Generations in [`drill_config`] (the seeded kill spans derive from
/// it).
const DRILL_GENERATIONS: u64 = 12;

/// The master seed of every search-drill study.
const DRILL_SEED: u64 = 9;

/// Records per store-append drill.
const APPEND_COUNT: usize = 6;

fn drill_mlp(bias: i32) -> AxMlp {
    AxMlp {
        layers: vec![AxLayer {
            input_bits: 4,
            neurons: vec![AxNeuron {
                weights: vec![AxWeight {
                    mask: 0b1011,
                    shift: 2,
                    negative: false,
                }],
                bias,
            }],
            qrelu: Some(QReluCfg {
                out_bits: 8,
                shift: 1,
            }),
        }],
    }
}

fn drill_record(bias: i32) -> DesignRecord {
    DesignRecord::new("drill", drill_mlp(bias), 0.9, 10.0)
}

// ---------------------------------------------------------------- children

/// Dispatch a child role if this process was spawned by the drill
/// parent (`PE_DRILL_ROLE` set). Returns `true` when a role ran — the
/// caller's `main` should then return immediately. Call this before
/// doing anything else in the `fault_drill` binary. A study child runs
/// its batch evaluation on `knobs`' worker budget.
///
/// # Panics
///
/// Panics on malformed role parameters — the parent always sets them
/// correctly, so a panic here is a drill bug (and, conveniently, a
/// non-zero child exit the parent will flag).
pub fn child_dispatch(knobs: &Knobs) -> bool {
    let Some(role) = std::env::var(ROLE_VAR).ok() else {
        return false;
    };
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| panic!("{name} unset"));
    match role.as_str() {
        "study" => {
            let cache: PathBuf = var("PE_DRILL_CACHE").into();
            let seed: u64 = var("PE_DRILL_SEED").parse().expect("seed parses");
            // Cadence 1 maximizes resume coverage: every generation is
            // a potential resume point. Cadence never affects results.
            let selected = Study::for_dataset(Dataset::BreastCancer)
                .config(drill_config(seed))
                .cache_dir(cache)
                .checkpoint_every(1)
                .eval_threads(knobs.thread_budget())
                .finish()
                .expect("drill config is valid")
                .run()
                .expect("drill study succeeds");
            // Touch the result so the run cannot be optimized away.
            assert!(!selected.searched.outcome.front.is_empty());
        }
        "append" => {
            let store: PathBuf = var("PE_DRILL_STORE").into();
            let lo: i32 = var("PE_DRILL_LO").parse().expect("lo parses");
            let hi: i32 = var("PE_DRILL_HI").parse().expect("hi parses");
            let writer = StoreWriter::open(&store).expect("drill store opens");
            for bias in lo..hi {
                writer.ingest(drill_record(bias)).expect("ingest succeeds");
            }
        }
        "write" => {
            let target: PathBuf = var("PE_DRILL_TARGET").into();
            let payload = var("PE_DRILL_PAYLOAD").repeat(64);
            pe_store::atomic_write(&target, payload.as_bytes()).expect("atomic write succeeds");
        }
        other => panic!("unknown drill role `{other}`"),
    }
    true
}

/// Spawn this binary as a child in `role`, with exactly the given
/// extra environment (any ambient `PE_FAULT` is scrubbed first so only
/// the drill's plan is armed). Returns the child's success flag,
/// wall-clock, and captured stderr.
fn spawn_child(role: &str, envs: &[(&str, String)]) -> std::io::Result<ChildRun> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.env_remove("PE_FAULT").env(ROLE_VAR, role);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    let started = Instant::now();
    let output = cmd.output()?;
    Ok(ChildRun {
        success: output.status.success(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    })
}

struct ChildRun {
    success: bool,
    wall_ms: f64,
    stderr: String,
}

// ---------------------------------------------------------------- parent

/// The first file in `dir` whose name ends with `suffix`.
fn find_suffix(dir: &Path, suffix: &str) -> Option<PathBuf> {
    let entries = std::fs::read_dir(dir).ok()?;
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().ends_with(suffix) {
            return Some(entry.path());
        }
    }
    None
}

/// Load the drill study's `Selected` artifact from the stage cache
/// under `dir`, through a pipeline of the same configuration, and
/// re-serialize it with the search wall-clock zeroed — the canonical
/// form two runs of the same study must agree on byte for byte. Any
/// stage the pipeline has to compute instead of load is an error, so
/// a recompute cannot pass as a resume.
fn zeroed_selected(dir: &Path) -> Result<String, String> {
    let recomputed: Arc<Mutex<Option<StageKind>>> = Arc::default();
    let seen = Arc::clone(&recomputed);
    let selected = Study::for_dataset(Dataset::BreastCancer)
        .config(drill_config(DRILL_SEED))
        .cache_dir(dir)
        .progress(move |event| {
            if let ProgressEvent::StageStarted { stage } = *event {
                seen.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(stage);
            }
        })
        .finish()
        .and_then(|pipeline| pipeline.run());
    if let Some(stage) = *recomputed.lock().unwrap_or_else(PoisonError::into_inner) {
        return Err(format!("the cached study recomputed its {stage} stage"));
    }
    let mut selected = selected.map_err(|e| format!("the cached study does not load: {e}"))?;
    selected.searched.outcome.ga_wall = Duration::ZERO;
    serde_json::to_string(&selected).map_err(|e| e.to_string())
}

/// Completed generations in the checkpoint left under `dir`, if one
/// survived the crash.
fn checkpoint_generation(dir: &Path) -> Option<usize> {
    let path = find_suffix(dir, ".ckpt.json")?;
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str::<pe_nsga::SearchCheckpoint>(&text)
        .ok()
        .map(|cp| cp.generation)
}

fn study_envs(cache: &Path, seed: u64, fault: Option<&str>) -> Vec<(&'static str, String)> {
    let mut envs = vec![
        ("PE_DRILL_CACHE", cache.display().to_string()),
        ("PE_DRILL_SEED", seed.to_string()),
    ];
    if let Some(plan) = fault {
        envs.push(("PE_FAULT", plan.to_owned()));
    }
    envs
}

/// One search crash/resume cycle: arm `fault`, expect the child to
/// die, resume without the fault, compare artifacts against
/// `baseline_json`.
fn search_cycle(scratch: &Path, index: usize, fault: &str, baseline_json: &str) -> DrillCycle {
    let dir = scratch.join(format!("search-{index}"));
    let _ = std::fs::remove_dir_all(&dir);

    let mut cycle = DrillCycle {
        stage: "search".to_owned(),
        fault: fault.to_owned(),
        crashed: false,
        resumed_from_generation: None,
        recovery_ms: 0.0,
        identical: false,
        detail: String::new(),
    };
    let crash = match spawn_child("study", &study_envs(&dir, DRILL_SEED, Some(fault))) {
        Ok(run) => run,
        Err(e) => {
            cycle.detail = format!("cannot spawn crash child: {e}");
            return cycle;
        }
    };
    cycle.crashed = !crash.success;
    if crash.success {
        cycle.detail = "armed child survived its fault plan".to_owned();
        return cycle;
    }
    cycle.resumed_from_generation = checkpoint_generation(&dir);

    let resume = match spawn_child("study", &study_envs(&dir, DRILL_SEED, None)) {
        Ok(run) => run,
        Err(e) => {
            cycle.detail = format!("cannot spawn resume child: {e}");
            return cycle;
        }
    };
    cycle.recovery_ms = resume.wall_ms;
    if !resume.success {
        cycle.detail = format!("resume run failed: {}", resume.stderr.trim());
        return cycle;
    }
    match zeroed_selected(&dir) {
        Ok(json) if json == baseline_json => {
            cycle.identical = true;
            cycle.detail = format!(
                "resumed from generation {} to a byte-identical Selected artifact",
                cycle
                    .resumed_from_generation
                    .map_or_else(|| "scratch".to_owned(), |g| g.to_string())
            );
        }
        Ok(_) => cycle.detail = "resumed Selected artifact differs from baseline".to_owned(),
        Err(e) => cycle.detail = e,
    }
    cycle
}

/// One torn-temp-file cycle: kill `atomic_write` mid-write, assert the
/// destination kept its previous contents, retry, assert replacement.
fn atomic_write_cycle(scratch: &Path, index: usize) -> DrillCycle {
    let target = scratch.join(format!("atomic-{index}.json"));
    let previous = format!("previous good contents {index}");
    let payload = format!("{{\"cycle\": {index}}}");
    let fault = "kill@atomic_write:1".to_owned();
    let mut cycle = DrillCycle {
        stage: "atomic-write".to_owned(),
        fault: fault.clone(),
        crashed: false,
        resumed_from_generation: None,
        recovery_ms: 0.0,
        identical: false,
        detail: String::new(),
    };
    if let Err(e) = std::fs::write(&target, &previous) {
        cycle.detail = format!("cannot seed target: {e}");
        return cycle;
    }
    let envs = |fault: Option<&str>| {
        let mut envs = vec![
            ("PE_DRILL_TARGET", target.display().to_string()),
            ("PE_DRILL_PAYLOAD", payload.clone()),
        ];
        if let Some(plan) = fault {
            envs.push(("PE_FAULT", plan.to_owned()));
        }
        envs
    };
    match spawn_child("write", &envs(Some(&fault))) {
        Ok(run) => cycle.crashed = !run.success,
        Err(e) => {
            cycle.detail = format!("cannot spawn crash child: {e}");
            return cycle;
        }
    }
    if !cycle.crashed {
        cycle.detail = "armed child survived its fault plan".to_owned();
        return cycle;
    }
    let after_crash = std::fs::read_to_string(&target).unwrap_or_default();
    if after_crash != previous {
        cycle.detail = "destination was torn by the killed write".to_owned();
        return cycle;
    }
    match spawn_child("write", &envs(None)) {
        Ok(run) => {
            cycle.recovery_ms = run.wall_ms;
            if !run.success {
                cycle.detail = format!("retry failed: {}", run.stderr.trim());
                return cycle;
            }
        }
        Err(e) => {
            cycle.detail = format!("cannot spawn retry child: {e}");
            return cycle;
        }
    }
    let after_retry = std::fs::read_to_string(&target).unwrap_or_default();
    cycle.identical = after_retry == payload.repeat(64);
    cycle.detail = if cycle.identical {
        "destination survived the torn temp write and the retry replaced it".to_owned()
    } else {
        "retry did not replace the destination".to_owned()
    };
    cycle
}

/// One torn-append cycle: kill a store append mid-line, assert the
/// store refuses to load, salvage it (keeping every intact record),
/// re-append, assert the full record set landed.
fn store_append_cycle(scratch: &Path, index: usize, kill_occurrence: usize) -> DrillCycle {
    let store = scratch.join(format!("append-{index}.jsonl"));
    let _ = std::fs::remove_file(&store);
    let fault = format!("kill@store_append:{kill_occurrence}");
    let mut cycle = DrillCycle {
        stage: "store-append".to_owned(),
        fault: fault.clone(),
        crashed: false,
        resumed_from_generation: None,
        recovery_ms: 0.0,
        identical: false,
        detail: String::new(),
    };
    let envs = |fault: Option<&str>| {
        let mut envs = vec![
            ("PE_DRILL_STORE", store.display().to_string()),
            ("PE_DRILL_LO", "0".to_owned()),
            ("PE_DRILL_HI", APPEND_COUNT.to_string()),
        ];
        if let Some(plan) = fault {
            envs.push(("PE_FAULT", plan.to_owned()));
        }
        envs
    };
    match spawn_child("append", &envs(Some(&fault))) {
        Ok(run) => cycle.crashed = !run.success,
        Err(e) => {
            cycle.detail = format!("cannot spawn crash child: {e}");
            return cycle;
        }
    }
    if !cycle.crashed {
        cycle.detail = "armed child survived its fault plan".to_owned();
        return cycle;
    }
    // The kill left a torn trailing line: a plain open must refuse it…
    if !matches!(StoreWriter::open(&store), Err(StoreError::Corrupt { .. })) {
        cycle.detail = "killed append did not leave a detectably torn store".to_owned();
        return cycle;
    }
    // …and salvage must truncate exactly it, keeping the intact prefix.
    let report = match StoreWriter::open_salvaged(&store) {
        Ok((writer, report)) => {
            let expected = kill_occurrence - 1;
            if writer.len() != expected {
                cycle.detail =
                    format!("salvage kept {} records, expected {expected}", writer.len());
                return cycle;
            }
            report
        }
        Err(e) => {
            cycle.detail = format!("salvage failed: {e}");
            return cycle;
        }
    };
    match spawn_child("append", &envs(None)) {
        Ok(run) => {
            cycle.recovery_ms = run.wall_ms;
            if !run.success {
                cycle.detail = format!("re-append failed: {}", run.stderr.trim());
                return cycle;
            }
        }
        Err(e) => {
            cycle.detail = format!("cannot spawn re-append child: {e}");
            return cycle;
        }
    }
    match DesignStore::load(&store) {
        Ok(loaded) => {
            cycle.identical = loaded.len() == APPEND_COUNT;
            cycle.detail = if cycle.identical {
                format!(
                    "salvage dropped {} torn line(s) ({} bytes), re-append restored all {} records",
                    report.dropped_lines, report.dropped_bytes, APPEND_COUNT
                )
            } else {
                format!(
                    "store holds {} records after recovery, expected {APPEND_COUNT}",
                    loaded.len()
                )
            };
        }
        Err(e) => cycle.detail = format!("recovered store does not load: {e}"),
    }
    cycle
}

/// One two-process concurrency cycle: both children must survive, and
/// the union of their overlapping record ranges must land tear-free.
fn concurrent_append_cycle(scratch: &Path, index: usize) -> DrillCycle {
    let store = scratch.join(format!("concurrent-{index}.jsonl"));
    let _ = std::fs::remove_file(&store);
    let mut cycle = DrillCycle {
        stage: "concurrent-append".to_owned(),
        fault: String::new(),
        crashed: true, // nothing is armed; the "crash" criterion is moot
        resumed_from_generation: None,
        recovery_ms: 0.0,
        identical: false,
        detail: String::new(),
    };
    let spawn = |lo: i32, hi: i32| -> std::io::Result<std::process::Child> {
        let exe = std::env::current_exe()?;
        let mut cmd = Command::new(exe);
        cmd.env_remove("PE_FAULT")
            .env(ROLE_VAR, "append")
            .env("PE_DRILL_STORE", store.display().to_string())
            .env("PE_DRILL_LO", lo.to_string())
            .env("PE_DRILL_HI", hi.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        cmd.spawn()
    };
    let started = Instant::now();
    let children = (spawn(0, 20), spawn(10, 30));
    let (Ok(mut a), Ok(mut b)) = children else {
        cycle.crashed = false;
        cycle.detail = "cannot spawn concurrent writers".to_owned();
        return cycle;
    };
    let ok_a = a.wait().map(|s| s.success()).unwrap_or(false);
    let ok_b = b.wait().map(|s| s.success()).unwrap_or(false);
    cycle.recovery_ms = started.elapsed().as_secs_f64() * 1e3;
    if !(ok_a && ok_b) {
        cycle.crashed = false;
        cycle.detail = "a concurrent writer failed".to_owned();
        return cycle;
    }
    match DesignStore::load(&store) {
        Ok(loaded) => {
            cycle.identical = loaded.len() == 30;
            cycle.detail = if cycle.identical {
                "two processes appended 20+20 overlapping records; 30 unique survived tear-free"
                    .to_owned()
            } else {
                format!("store holds {} records, expected 30", loaded.len())
            };
        }
        Err(e) => cycle.detail = format!("concurrently-written store does not load: {e}"),
    }
    cycle
}

/// Run the whole drill under `scratch` (wiped first): one baseline
/// study, then 12 search kills (8 per-generation, 2 per-wave, 2 error
/// path), 4 torn atomic writes, 4 torn store appends, and 2
/// two-process concurrency checks — 22 cycles.
///
/// # Panics
///
/// Panics when the scratch directory or the baseline study cannot be
/// set up at all; individual cycle failures are reported, not fatal.
#[must_use]
pub fn run(scratch: &Path) -> FaultDrillReport {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).expect("can create the drill scratch directory");

    let baseline_dir = scratch.join("baseline");
    let baseline = spawn_child("study", &study_envs(&baseline_dir, DRILL_SEED, None))
        .expect("can spawn the baseline child");
    assert!(
        baseline.success,
        "uninterrupted baseline study failed: {}",
        baseline.stderr.trim()
    );
    let baseline_json = zeroed_selected(&baseline_dir).expect("baseline Selected artifact loads");

    let mut cycles = Vec::new();
    let span = DRILL_GENERATIONS - 1;
    for i in 0..8 {
        let fault = format!("kill@searched_generation:s{i}/{span}");
        cycles.push(search_cycle(scratch, i, &fault, &baseline_json));
    }
    for i in 8..10 {
        let fault = format!("kill@eval_batch:s{i}/{DRILL_GENERATIONS}");
        cycles.push(search_cycle(scratch, i, &fault, &baseline_json));
    }
    for i in 10..12 {
        let fault = format!("err@searched_generation:s{i}/{span}");
        cycles.push(search_cycle(scratch, i, &fault, &baseline_json));
    }
    for i in 0..4 {
        cycles.push(atomic_write_cycle(scratch, i));
    }
    for (i, kill_occurrence) in (2..=5).enumerate() {
        cycles.push(store_append_cycle(scratch, i, kill_occurrence));
    }
    for i in 0..2 {
        cycles.push(concurrent_append_cycle(scratch, i));
    }

    let green = cycles.iter().filter(|c| c.green()).count();
    let total = cycles.len();
    FaultDrillReport {
        baseline_ms: baseline.wall_ms,
        cycles,
        green,
        total,
    }
}

/// Render the cycles as a table.
#[must_use]
pub fn render(report: &FaultDrillReport) -> String {
    render_table(
        "Crash/resume drill (seeded PE_FAULT kills; recovery must be byte-exact)",
        &[
            "Stage",
            "Fault",
            "Crashed",
            "From gen",
            "Recover(ms)",
            "Green",
        ],
        &report
            .cycles
            .iter()
            .map(|c| {
                vec![
                    c.stage.clone(),
                    if c.fault.is_empty() {
                        "-".to_owned()
                    } else {
                        c.fault.clone()
                    },
                    if c.crashed { "yes" } else { "NO" }.to_owned(),
                    c.resumed_from_generation
                        .map_or_else(|| "-".to_owned(), |g| g.to_string()),
                    format!("{:.0}", c.recovery_ms),
                    if c.green() { "yes" } else { "NO" }.to_owned(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// One-line drill headline.
#[must_use]
pub fn summary(report: &FaultDrillReport) -> String {
    let search: Vec<&DrillCycle> = report
        .cycles
        .iter()
        .filter(|c| c.stage == "search" && c.green())
        .collect();
    let mean_recovery = if search.is_empty() {
        0.0
    } else {
        search.iter().map(|c| c.recovery_ms).sum::<f64>() / search.len() as f64
    };
    format!(
        "fault drill: {}/{} cycles green; baseline study {:.0} ms, \
         mean search recovery {:.0} ms ({:.1}% of a full run)",
        report.green,
        report.total,
        report.baseline_ms,
        mean_recovery,
        if report.baseline_ms > 0.0 {
            100.0 * mean_recovery / report.baseline_ms
        } else {
            0.0
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drill_config_builds_a_valid_pipeline() {
        let pipeline = Study::for_dataset(Dataset::BreastCancer)
            .config(drill_config(DRILL_SEED))
            .finish()
            .expect("drill config is valid");
        assert_eq!(
            pipeline.config().ga.nsga.generations,
            DRILL_GENERATIONS as usize
        );
    }

    #[test]
    fn drill_records_are_distinct_per_bias() {
        assert_ne!(
            drill_record(1).fingerprint,
            drill_record(2).fingerprint,
            "bias must change the dedup key"
        );
    }

    #[test]
    fn render_and_summary_handle_synthetic_reports() {
        let report = FaultDrillReport {
            baseline_ms: 1000.0,
            cycles: vec![DrillCycle {
                stage: "search".to_owned(),
                fault: "kill@searched_generation:s0/11".to_owned(),
                crashed: true,
                resumed_from_generation: Some(7),
                recovery_ms: 250.0,
                identical: true,
                detail: String::new(),
            }],
            green: 1,
            total: 1,
        };
        assert!(report.cycles[0].green());
        assert!(render(&report).contains("kill@searched_generation"));
        assert!(summary(&report).contains("1/1 cycles green"));
        assert!(summary(&report).contains("25.0%"));
    }
}
