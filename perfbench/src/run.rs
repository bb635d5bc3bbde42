//! The workloads, their untraced passes and the output checks. An
//! untraced pass is exactly what `table2` runs:
//! `Pipeline::run_many_selected` over the five datasets. The traced
//! passes live in [`crate::traced`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pe_bench::{study_config, BudgetPreset};
use pe_datasets::Dataset;
use pe_hw::{CostScenario, ExactCostModel};
use pe_store::StoreWriter;
use printed_axc::{
    fingerprint_json, true_pareto_front, Pipeline, ProgressEvent, RunManyOptions, Selected,
    StageKind, StudyConfig,
};

use crate::trace::median;

/// The thread budget every workload runs with, passed explicitly.
pub const THREADS: usize = 2;

/// The master seed of every timed study: `table2`'s. A study's cost
/// depends on its master seed (the `Quick` study takes 2.7 s to 6.0 s
/// over master seeds 1 to 5), so the timed work is pinned and the
/// workload seed drives the untimed [`Run::seeded_check`] instead.
pub const MASTER_SEED: u64 = 0;

/// Batches in one timing of a compute workload's set-up.
const SETUP_SAMPLES: usize = 16;

/// Config resolutions timed together in one set-up sample.
const SETUP_BATCH: u32 = 64;

/// Short resume measurements (an artifact reload, a warm pass) repeat
/// until this many seconds are spent or [`REPEAT_MAX`] samples are
/// taken; the iteration reports their median.
const REPEAT_SECONDS: f64 = 0.5;

/// See [`REPEAT_SECONDS`].
const REPEAT_MAX: usize = 3;

/// A named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Five datasets at the bench `Full` preset, no cache, no store.
    FullStudy,
    /// Five datasets at the bench `Quick` preset, no cache, no store.
    QuickStudy,
    /// The `Quick` study cold against a fresh stage cache and design
    /// store, then warm against the populated ones.
    QuickDurable,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [
        Workload::FullStudy,
        Workload::QuickStudy,
        Workload::QuickDurable,
    ];

    /// The name the command line and the results use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FullStudy => "full_study",
            Workload::QuickStudy => "quick_study",
            Workload::QuickDurable => "quick_durable",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The bench budget preset the workload's studies run at.
    pub fn preset(self) -> BudgetPreset {
        match self {
            Workload::FullStudy => BudgetPreset::Full,
            Workload::QuickStudy | Workload::QuickDurable => BudgetPreset::Quick,
        }
    }

    pub(crate) fn durable(self) -> bool {
        self == Workload::QuickDurable
    }
}

/// Studies attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Dataset studies run.
    pub attempted: u64,
    /// Dataset studies that errored, panicked or failed an output check.
    pub failed: u64,
    /// What went wrong, one line per failed study.
    pub notes: Vec<String>,
}

impl Checks {
    fn study(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            self.notes.push(problem);
        }
    }

    /// Every study of a pass failed (the pass itself errored).
    pub(crate) fn whole_pass(&mut self, label: &str, datasets: &[Dataset], error: &str) {
        for dataset in datasets {
            self.study(Some(format!("{label} {}: {error}", dataset.spec().name)));
        }
    }
}

/// Everything one run shares across its iterations: where it works, the
/// checks so far, and the fingerprints every pass must reproduce.
pub struct Run {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed: the master seed of the untimed seeded check.
    pub seed: u64,
    /// Scratch directory for stage caches, stores and reload files.
    pub work_dir: PathBuf,
    /// Output checks so far.
    pub checks: Checks,
    /// Per-dataset fingerprints of the first timed pass.
    pub reference: Option<Vec<u64>>,
    /// The Table II quality of the first timed pass.
    pub quality: Option<Quality>,
    iteration: usize,
}

/// The Table II quality of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Geomean area reduction over the selected rows (`None` when no
    /// dataset selected a design).
    pub area_reduction_geomean: Option<f64>,
    /// Datasets with a design within the loss budget.
    pub selected_rows: usize,
}

impl Quality {
    /// Score the artifacts as `table2` does, one clone at a time.
    fn of(selected: &[Selected]) -> Quality {
        let rows: Vec<_> = selected
            .iter()
            .flat_map(|s| pe_bench::table2::rows(&[s.clone().into_study()]))
            .collect();
        Quality {
            area_reduction_geomean: pe_bench::table2::geomean_reductions(&rows).0,
            selected_rows: rows.iter().filter(|r| r.area_reduction.is_some()).count(),
        }
    }
}

/// What one untraced iteration measured.
#[derive(Debug, Clone, Copy)]
pub struct Untraced {
    /// Set-up timings: config resolution before and after the iteration
    /// on the compute workloads (see [`Run::setup_moment`]); on
    /// `quick_durable`, config resolution plus opening the store for
    /// the cold and the warm pass.
    pub setup_s: [Option<f64>; 2],
    /// First pipeline call until all five `Selected` are back; the cold
    /// pass on `quick_durable`.
    pub wall_s: f64,
    /// The warm pass on `quick_durable`; elsewhere the time to reload
    /// the five `Selected` artifacts from their JSON files.
    pub resume_s: f64,
}

/// The stage events a run-many pass emitted per dataset: which stages
/// were loaded from the cache and which were computed.
type StageLog = Arc<Mutex<Vec<(Dataset, StageKind, bool)>>>;

/// What a pass returned: the `Selected` artifacts, or why it failed.
pub(crate) type PassResult = Result<Vec<Selected>, String>;

/// The times of a cold `run_many` pass against a fresh stage cache and
/// design store, and of the warm passes after it.
struct DurablePasses {
    cold_setup: f64,
    wall: f64,
    warm_setup: f64,
    /// Each warm pass, repeated on the same options.
    resume: Vec<f64>,
}

/// Where a pass's outcome goes: its label, result and the problems its
/// stage log showed.
type CheckFn<'a> = dyn FnMut(&str, PassResult, &[(Dataset, String)]) + 'a;

impl Run {
    /// A run of `workload` with workload seed `seed`, working in
    /// `work_dir`.
    pub fn new(workload: Workload, seed: u64, work_dir: PathBuf) -> Self {
        Self {
            workload,
            seed,
            work_dir,
            checks: Checks::default(),
            reference: None,
            quality: None,
            iteration: 0,
        }
    }

    pub(crate) fn fresh_dir(&mut self) -> std::io::Result<PathBuf> {
        self.iteration += 1;
        let dir = self.work_dir.join(format!("iteration-{}", self.iteration));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Check a timed pass against the run's reference fingerprints.
    pub(crate) fn check_timed(
        &mut self,
        label: &str,
        result: PassResult,
        problems: &[(Dataset, String)],
    ) -> Option<Vec<Selected>> {
        let checked = check_pass(
            &mut self.checks,
            &mut self.reference,
            label,
            &Dataset::ALL,
            result,
            problems,
        );
        if self.quality.is_none() {
            self.quality = checked.as_deref().map(Quality::of);
        }
        checked
    }

    /// Run one untraced iteration.
    ///
    /// # Errors
    ///
    /// When the scratch directory cannot be prepared.
    pub fn untraced(&mut self) -> std::io::Result<Untraced> {
        let dir = self.fresh_dir()?;
        let result = if self.workload.durable() {
            self.untraced_durable(&dir)
        } else {
            self.untraced_compute(&dir)
        };
        std::fs::remove_dir_all(&dir)?;
        Ok(result)
    }

    /// Time the set-up of a compute workload, config resolution
    /// (`study_config` and `RunManyOptions`): the median of
    /// `SETUP_SAMPLES` batches of `SETUP_BATCH` resolutions, per
    /// resolution. The host's speed drifts over tens of seconds and one
    /// timing takes a millisecond, so a run takes one at its start and
    /// one before and after each iteration. `None` for `quick_durable`,
    /// whose set-up opens the store in every iteration.
    pub fn setup_moment(&self) -> Option<f64> {
        if self.workload.durable() {
            return None;
        }
        let preset = self.workload.preset();
        let batches: Vec<f64> = (0..SETUP_SAMPLES)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..SETUP_BATCH {
                    std::hint::black_box(study_config(preset, MASTER_SEED));
                    std::hint::black_box(RunManyOptions::with_threads(THREADS));
                }
                started.elapsed().as_secs_f64() / f64::from(SETUP_BATCH)
            })
            .collect();
        median(&batches)
    }

    fn untraced_compute(&mut self, dir: &Path) -> Untraced {
        let before = self.setup_moment();
        let config = study_config(self.workload.preset(), MASTER_SEED);
        let opts = RunManyOptions::with_threads(THREADS);
        let started = Instant::now();
        let result = run_many(&Dataset::ALL, &config, &opts);
        let wall_s = started.elapsed().as_secs_f64();
        let resume_s = match self.check_timed("pass", result, &[]) {
            Some(selected) => self.reload(dir, selected),
            None => f64::NAN,
        };
        Untraced {
            setup_s: [before, self.setup_moment()],
            wall_s,
            resume_s,
        }
    }

    /// Write each `Selected` as the stage cache would, drop it, then
    /// time reading and parsing them back, as a resumed pipeline does.
    fn reload(&mut self, dir: &Path, selected: Vec<Selected>) -> f64 {
        let mut files = Vec::new();
        for s in selected {
            let name = s.searched.costed.float.prepared.dataset.spec().short_name;
            let path = dir.join(format!("{name}-selected.json"));
            let written = serde_json::to_string(&s)
                .map_err(|e| e.to_string())
                .and_then(|json| std::fs::write(&path, json).map_err(|e| e.to_string()));
            if let Err(e) = written {
                self.checks.whole_pass("reload", &Dataset::ALL, &e);
                return f64::NAN;
            }
            files.push(path);
        }
        let load = || -> PassResult {
            files
                .iter()
                .map(|path| {
                    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                    serde_json::from_str::<Selected>(&text).map_err(|e| e.to_string())
                })
                .collect()
        };
        let mut ok = true;
        let times = repeat_timed(load, |loaded| {
            ok &= self.check_timed("reload", loaded, &[]).is_some();
        });
        if ok {
            median(&times).expect("reload samples")
        } else {
            f64::NAN
        }
    }

    fn untraced_durable(&mut self, dir: &Path) -> Untraced {
        let passes = durable_passes(
            &Dataset::ALL,
            self.workload.preset(),
            MASTER_SEED,
            dir,
            &mut |label, result, problems| {
                self.check_timed(label, result, problems);
            },
        );
        Untraced {
            setup_s: [Some(passes.cold_setup + passes.warm_setup), None],
            wall_s: passes.wall,
            resume_s: median(&passes.resume).unwrap_or(f64::NAN),
        }
    }

    /// Run the workload's kind of pass once, untimed, on inputs made
    /// from the workload seed: one dataset (picked by the seed) at
    /// master seed `seed`. Its outputs get the same checks as the timed
    /// passes, and its true front is replayed and compared, so a change
    /// that is only right at the timed master seed fails here.
    ///
    /// # Errors
    ///
    /// When the scratch directory cannot be prepared.
    pub fn seeded_check(&mut self) -> std::io::Result<()> {
        let dir = self.fresh_dir()?;
        let dataset = Dataset::ALL[(self.seed % Dataset::ALL.len() as u64) as usize];
        let datasets = [dataset];
        let preset = self.workload.preset();
        let config = study_config(preset, self.seed);
        let mut reference = None;
        let checks = &mut self.checks;
        let mut check = |label: &str, result: PassResult, problems: &[(Dataset, String)]| {
            let mut problems = problems.to_vec();
            let selected = result.as_ref().ok().and_then(|s| s.first());
            if let Some(p) = selected.and_then(|s| front_problem(s, &config.scenario)) {
                problems.push((dataset, p));
            }
            check_pass(checks, &mut reference, label, &datasets, result, &problems);
        };
        if self.workload.durable() {
            durable_passes(
                &datasets,
                preset,
                self.seed,
                &dir,
                &mut |label, result, problems| {
                    check(&format!("seeded {label}"), result, problems);
                },
            );
        } else {
            let opts = RunManyOptions::with_threads(THREADS);
            check("seeded pass", run_many(&datasets, &config, &opts), &[]);
        }
        std::fs::remove_dir_all(&dir)
    }
}

/// Check one pass's artifacts: every selected design meets the loss
/// budget and is smaller than its baseline, every fingerprint equals
/// `reference` (the first pass checked against it sets it), and
/// `problems` names no dataset. Counts one study per dataset; returns
/// the artifacts when the pass ran.
fn check_pass(
    checks: &mut Checks,
    reference: &mut Option<Vec<u64>>,
    label: &str,
    datasets: &[Dataset],
    result: PassResult,
    problems: &[(Dataset, String)],
) -> Option<Vec<Selected>> {
    let selected = match result {
        Ok(selected) if selected.len() == datasets.len() => selected,
        Ok(selected) => {
            let error = format!(
                "{} artifacts for {} datasets",
                selected.len(),
                datasets.len()
            );
            checks.whole_pass(label, datasets, &error);
            return None;
        }
        Err(error) => {
            checks.whole_pass(label, datasets, &error);
            return None;
        }
    };
    let fingerprints: Vec<u64> = selected.iter().map(fingerprint).collect();
    let reference = reference.get_or_insert_with(|| fingerprints.clone());
    for ((s, dataset), (&fingerprint, &expected)) in selected
        .iter()
        .zip(datasets)
        .zip(fingerprints.iter().zip(reference.iter()))
    {
        let name = dataset.spec().name;
        let mut problem = design_problem(s);
        if fingerprint != expected {
            problem = Some(format!(
                "fingerprint {fingerprint:016x} differs from {expected:016x}"
            ));
        }
        if let Some((_, p)) = problems.iter().find(|(d, _)| d == dataset) {
            problem = Some(p.clone());
        }
        checks.study(problem.map(|p| format!("{label} {name}: {p}")));
    }
    Some(selected)
}

/// `Pipeline::run_many_selected` with a panic turned into an error.
fn run_many(datasets: &[Dataset], config: &StudyConfig, opts: &RunManyOptions) -> PassResult {
    let run = catch_unwind(AssertUnwindSafe(|| {
        Pipeline::run_many_selected(datasets, config, opts)
    }));
    match run {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(_) => Err("panicked".into()),
    }
}

/// Run `datasets` cold against a fresh stage cache and store in `dir`,
/// then warm against the populated ones, timing each pass's set-up
/// (config resolution and opening the store) apart from its wall time.
/// Every pass's outcome goes to `check`.
fn durable_passes(
    datasets: &[Dataset],
    preset: BudgetPreset,
    master: u64,
    dir: &Path,
    check: &mut CheckFn<'_>,
) -> DurablePasses {
    let cache = dir.join("stages");
    let store = dir.join("store.jsonl");
    let set_up = || {
        let started = Instant::now();
        let resolved = durable_options(preset, master, &cache, &store);
        (started.elapsed().as_secs_f64(), resolved)
    };
    let stage_check = |log: &StageLog, cold, label, result, check: &mut CheckFn<'_>| {
        let problems = stage_problems(
            &std::mem::take(&mut *log.lock().expect("stage log")),
            datasets,
            cold,
        );
        check(label, result, &problems);
    };

    let (cold_setup, resolved) = set_up();
    let (opts, config, log) = match resolved {
        Ok(resolved) => resolved,
        Err(e) => {
            check("cold set-up", Err(e), &[]);
            return DurablePasses {
                cold_setup,
                wall: f64::NAN,
                warm_setup: f64::NAN,
                resume: Vec::new(),
            };
        }
    };
    let started = Instant::now();
    let result = run_many(datasets, &config, &opts);
    let wall = started.elapsed().as_secs_f64();
    drop(opts);
    stage_check(&log, true, "cold pass", result, check);

    let (warm_setup, resolved) = set_up();
    let (opts, config, log) = match resolved {
        Ok(resolved) => resolved,
        Err(e) => {
            check("warm set-up", Err(e), &[]);
            return DurablePasses {
                cold_setup,
                wall,
                warm_setup,
                resume: Vec::new(),
            };
        }
    };
    let resume = repeat_timed(
        || run_many(datasets, &config, &opts),
        |result| stage_check(&log, false, "warm pass", result, check),
    );
    DurablePasses {
        cold_setup,
        wall,
        warm_setup,
        resume,
    }
}

/// Time `run` at least once, then again until [`REPEAT_SECONDS`] are
/// spent or [`REPEAT_MAX`] samples are taken; each result goes to
/// `after`, outside the timing. Returns the times.
fn repeat_timed<T>(mut run: impl FnMut() -> T, mut after: impl FnMut(T)) -> Vec<f64> {
    let mut times: Vec<f64> = Vec::new();
    while times.is_empty()
        || (times.len() < REPEAT_MAX && times.iter().sum::<f64>() < REPEAT_SECONDS)
    {
        let started = Instant::now();
        let value = run();
        times.push(started.elapsed().as_secs_f64());
        after(value);
    }
    times
}

/// Resolve the config and open the design store: the set-up of a
/// durable pass. The options carry a stage-event log for the checks.
fn durable_options(
    preset: BudgetPreset,
    master: u64,
    cache: &Path,
    store: &Path,
) -> Result<(RunManyOptions, StudyConfig, StageLog), String> {
    let config = study_config(preset, master);
    let writer = StoreWriter::open(store).map_err(|e| e.to_string())?;
    let log: StageLog = Arc::default();
    let sink = Arc::clone(&log);
    let mut opts = RunManyOptions::with_threads(THREADS);
    opts.cache_dir = Some(cache.to_owned());
    opts.store = Some(Arc::new(writer));
    opts.progress = Some(Arc::new(move |dataset, event| {
        let entry = match *event {
            ProgressEvent::StageLoaded { stage } => (dataset, stage, true),
            ProgressEvent::StageStarted { stage } => (dataset, stage, false),
            _ => return,
        };
        sink.lock().expect("stage log").push(entry);
    }));
    Ok((opts, config, log))
}

/// Datasets whose stage log breaks the pass's promise: a cold pass
/// must load nothing from the cache, a warm pass must load its
/// `Selected` stage and compute nothing.
fn stage_problems(
    log: &[(Dataset, StageKind, bool)],
    datasets: &[Dataset],
    cold: bool,
) -> Vec<(Dataset, String)> {
    datasets
        .iter()
        .filter_map(|&dataset| {
            let entries: Vec<(StageKind, bool)> = log
                .iter()
                .filter(|(d, _, _)| *d == dataset)
                .map(|&(_, stage, loaded)| (stage, loaded))
                .collect();
            stage_problem(&entries, cold).map(|p| (dataset, p))
        })
        .collect()
}

/// The problem with one dataset's `(stage, loaded)` log, if any.
pub(crate) fn stage_problem(entries: &[(StageKind, bool)], cold: bool) -> Option<String> {
    if cold {
        let (stage, _) = entries.iter().find(|(_, loaded)| *loaded)?;
        return Some(format!("cold pass loaded a cached {stage} stage"));
    }
    if let Some((stage, _)) = entries.iter().find(|(_, loaded)| !*loaded) {
        return Some(format!("warm pass recomputed the {stage} stage"));
    }
    let warm = entries.contains(&(StageKind::Selected, true));
    (!warm).then(|| "warm pass did not load the selected stage".to_owned())
}

/// The dataset's design breaks the loss budget or is no smaller than
/// its baseline.
fn design_problem(s: &Selected) -> Option<String> {
    let design = s.selected.as_ref()?;
    let costed = &s.searched.costed;
    if design.test_accuracy + 1e-12 < costed.baseline_test_accuracy - s.loss_budget {
        return Some(format!(
            "selected accuracy {} misses the budget of {} below {}",
            design.test_accuracy, s.loss_budget, costed.baseline_test_accuracy
        ));
    }
    if design.report.area_cm2 >= costed.baseline_report.area_cm2 {
        return Some(format!(
            "selected area {} cm2 is not below the baseline's {} cm2",
            design.report.area_cm2, costed.baseline_report.area_cm2
        ));
    }
    None
}

/// The true front, costed again from the estimated front with a fresh
/// exact cost model, differs from the one the search returned.
pub(crate) fn front_problem(s: &Selected, scenario: &CostScenario) -> Option<String> {
    let outcome = &s.searched.outcome;
    let name = s.searched.costed.float.prepared.dataset.spec().name;
    let model = ExactCostModel::new(scenario.clone());
    let replayed = true_pareto_front(outcome.estimated_front.clone(), &model, name);
    (replayed != outcome.front)
        .then(|| "replayed true front differs from the searched front".into())
}

/// The artifact's JSON fingerprint with the wall-clock `ga_wall` field
/// zeroed: equal fingerprints mean equal results.
fn fingerprint(selected: &Selected) -> u64 {
    let mut s = selected.clone();
    s.searched.outcome.ga_wall = std::time::Duration::ZERO;
    fingerprint_json(&s)
}

/// Bytes of every file under `dir`.
pub(crate) fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
