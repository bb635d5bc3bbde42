//! The traced passes: the same studies on the same worker split as
//! `Pipeline::run_many`, but the benchmark calls each stage's public
//! function itself and stamps every progress event, so
//! [`crate::trace`] can split the time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pe_bench::study_config;
use pe_datasets::Dataset;
use pe_store::StoreWriter;
use printed_axc::{derive_seed, FlowError, ProgressEvent, Selected, StageKind, Study, StudyConfig};

use crate::run::{dir_bytes, front_problem, stage_problem, PassResult, Run, MASTER_SEED, THREADS};
use crate::trace::{stage_spans, Span, Stamp};

/// One dataset's traced study.
#[derive(Debug)]
pub struct DatasetTrace {
    /// Which dataset.
    pub dataset: Dataset,
    /// Which worker ran it.
    pub worker: usize,
    /// The computed stages, from the timed calls or from the events.
    pub stages: Vec<(StageKind, Span)>,
    /// The replayed true-front costing.
    pub front_cost: Option<Span>,
    /// The whole cached stage chain (`Pipeline::selected`) when the
    /// pass went through the stage cache.
    pub chain: Option<Span>,
    /// Every progress event the study emitted.
    pub events: Vec<Stamp>,
    /// Why the replayed true front differs from the searched one, if
    /// it does.
    pub front_problem: Option<String>,
}

impl DatasetTrace {
    /// When the dataset's last span ended.
    pub fn end(&self) -> f64 {
        let stage_end = self.stages.iter().map(|(_, s)| s.end);
        let others = self.front_cost.iter().chain(&self.chain).map(|s| s.end);
        stage_end.chain(others).fold(0.0, f64::max)
    }
}

/// One traced pass: its wall time and each dataset's trace.
#[derive(Debug)]
pub struct TracedPass {
    /// Wall time of the pass.
    pub wall: f64,
    /// Worker threads the pass ran on.
    pub workers: usize,
    /// Per-dataset traces, in dataset order.
    pub datasets: Vec<DatasetTrace>,
}

/// A traced iteration: the compute or cold pass, plus on
/// `quick_durable` the store opening and the warm pass.
#[derive(Debug)]
pub struct Traced {
    /// The compute or cold pass.
    pub main: TracedPass,
    /// `StoreWriter::open` on the populated store.
    pub store_open_s: f64,
    /// The warm pass.
    pub warm: Option<TracedPass>,
    /// Stage cache plus store bytes after the cold pass.
    pub cache_bytes: u64,
}

impl Run {
    /// Run one traced iteration.
    ///
    /// # Errors
    ///
    /// When the scratch directory cannot be prepared.
    pub fn traced(&mut self) -> std::io::Result<Option<Traced>> {
        let dir = self.fresh_dir()?;
        let traced = self.traced_in(&dir);
        std::fs::remove_dir_all(&dir)?;
        Ok(traced)
    }

    fn traced_in(&mut self, dir: &Path) -> Option<Traced> {
        let config = study_config(self.workload.preset(), MASTER_SEED);
        let cache = dir.join("stages");
        let store_path = dir.join("store.jsonl");
        let durable = self.workload.durable();

        let cold_store = if durable {
            match StoreWriter::open(&store_path) {
                Ok(writer) => Some(Arc::new(writer)),
                Err(e) => {
                    self.checks
                        .whole_pass("traced set-up", &Dataset::ALL, &e.to_string());
                    return None;
                }
            }
        } else {
            None
        };
        let durable_cache = cold_store.as_ref().map(|writer| (cache.as_path(), writer));
        let (main, selected) =
            traced_pass(|dataset, ctx| trace_study(dataset, &config, ctx, durable_cache));
        drop(cold_store);
        let problems = pass_problems(&main, true);
        self.check_timed("traced pass", selected, &problems);
        if !durable {
            return Some(Traced {
                main,
                store_open_s: 0.0,
                warm: None,
                cache_bytes: 0,
            });
        }
        let cache_bytes = dir_bytes(dir);

        let started = Instant::now();
        let opened = StoreWriter::open(&store_path);
        let store_open_s = started.elapsed().as_secs_f64();
        let writer = match opened {
            Ok(writer) => Arc::new(writer),
            Err(e) => {
                self.checks
                    .whole_pass("traced warm set-up", &Dataset::ALL, &e.to_string());
                return None;
            }
        };
        let (warm, selected) =
            traced_pass(|dataset, ctx| trace_reload(dataset, &config, ctx, &cache, &writer));
        let problems = pass_problems(&warm, false);
        self.check_timed("traced warm pass", selected, &problems);
        Some(Traced {
            main,
            store_open_s,
            warm: Some(warm),
            cache_bytes,
        })
    }
}

/// What a traced study needs from its pass: the pass's clock, the
/// worker it runs on and the per-study evaluation threads.
#[derive(Clone, Copy)]
struct PassCtx {
    start: Instant,
    worker: usize,
    eval_threads: usize,
}

impl PassCtx {
    fn now(self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Run `f` and return its value with its span.
    fn timed<T>(self, f: impl FnOnce() -> Result<T, FlowError>) -> Result<(T, Span), String> {
        let start = self.now();
        let value = f().map_err(|e| e.to_string())?;
        let end = self.now();
        Ok((value, Span { start, end }))
    }
}

type StudyTrace = Result<(DatasetTrace, Selected), String>;

/// Run `study` for every dataset on the worker split
/// `Pipeline::run_many` uses for [`THREADS`]: `workers` threads pull
/// datasets in order, each study evaluating on `THREADS / workers`.
fn traced_pass(study: impl Fn(Dataset, PassCtx) -> StudyTrace + Sync) -> (TracedPass, PassResult) {
    let n = Dataset::ALL.len();
    let workers = THREADS.clamp(1, n);
    let eval_threads = (THREADS / workers).max(1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<StudyTrace>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (next, slots, study) = (&next, &slots, &study);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&dataset) = Dataset::ALL.get(i) else {
                    break;
                };
                let ctx = PassCtx {
                    start,
                    worker,
                    eval_threads,
                };
                let result = catch_unwind(AssertUnwindSafe(|| study(dataset, ctx)))
                    .unwrap_or_else(|_| Err("panicked".into()));
                *slots[i].lock().expect("result slot") = Some(result);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut datasets = Vec::with_capacity(n);
    let mut selected = Vec::with_capacity(n);
    let mut error = None;
    for (slot, dataset) in slots.into_iter().zip(Dataset::ALL) {
        match slot.into_inner().expect("result slot") {
            Some(Ok((trace, s))) => {
                datasets.push(trace);
                selected.push(s);
            }
            Some(Err(e)) => error = Some(format!("{}: {e}", dataset.spec().name)),
            None => error = Some(format!("{}: never ran", dataset.spec().name)),
        }
    }
    let pass = TracedPass {
        wall,
        workers,
        datasets,
    };
    (pass, error.map_or(Ok(selected), Err))
}

/// The study `run_many` would build for `dataset`: the derived seed,
/// the pass's evaluation threads, and an observer stamping each event.
fn observed_study(
    dataset: Dataset,
    config: &StudyConfig,
    ctx: PassCtx,
) -> (Study, Arc<Mutex<Vec<Stamp>>>) {
    let mut config = config.clone();
    let seed = derive_seed(config.seed, dataset);
    config.seed = seed;
    config.ga.nsga.seed = seed;
    let events: Arc<Mutex<Vec<Stamp>>> = Arc::default();
    let sink = Arc::clone(&events);
    let study = Study::for_dataset(dataset)
        .config(config)
        .eval_threads(ctx.eval_threads)
        .progress(move |event| {
            let at = ctx.now();
            sink.lock().expect("event log").push(Stamp {
                at,
                event: event.clone(),
            });
        });
    (study, events)
}

/// One traced study: stage by stage without a cache, or through the
/// cached stage chain with `durable`'s cache directory and store. The
/// true-front costing is replayed after it, timed, and checked against
/// the searched front.
fn trace_study(
    dataset: Dataset,
    config: &StudyConfig,
    ctx: PassCtx,
    durable: Option<(&Path, &Arc<StoreWriter>)>,
) -> StudyTrace {
    let (mut study, events) = observed_study(dataset, config, ctx);
    if let Some((cache, writer)) = durable {
        study = study
            .cache_dir(cache)
            .design_store_shared(Arc::clone(writer));
    }
    let pipeline = study.finish().map_err(|e| e.to_string())?;
    let (selected, stages, chain) = if durable.is_some() {
        let (selected, chain) = ctx.timed(|| pipeline.selected())?;
        (selected, None, Some(chain))
    } else {
        let (prepared, prepare) = ctx.timed(|| pipeline.prepare())?;
        let (float, train) = ctx.timed(|| pipeline.train_float(prepared))?;
        let (costed, baseline) = ctx.timed(|| pipeline.cost_baseline(float))?;
        let (searched, search) = ctx.timed(|| pipeline.search(costed))?;
        let (selected, select) = ctx.timed(|| pipeline.select(searched))?;
        let stages = vec![
            (StageKind::Prepared, prepare),
            (StageKind::FloatTrained, train),
            (StageKind::BaselineCosted, baseline),
            (StageKind::Searched, search),
            (StageKind::Selected, select),
        ];
        (selected, Some(stages), None)
    };

    let start = ctx.now();
    let front_problem = front_problem(&selected, pipeline.scenario());
    let front_cost = Span {
        start,
        end: ctx.now(),
    };

    drop(pipeline);
    let events = std::mem::take(&mut *events.lock().expect("event log"));
    let stages = stages.unwrap_or_else(|| stage_spans(&events));
    let trace = DatasetTrace {
        dataset,
        worker: ctx.worker,
        stages,
        front_cost: Some(front_cost),
        chain,
        events,
        front_problem,
    };
    Ok((trace, selected))
}

/// One traced warm study: `Pipeline::selected` against the populated
/// stage cache and store.
fn trace_reload(
    dataset: Dataset,
    config: &StudyConfig,
    ctx: PassCtx,
    cache: &Path,
    writer: &Arc<StoreWriter>,
) -> StudyTrace {
    let (study, events) = observed_study(dataset, config, ctx);
    let pipeline = study
        .cache_dir(cache)
        .design_store_shared(Arc::clone(writer))
        .finish()
        .map_err(|e| e.to_string())?;
    let (selected, load) = ctx.timed(|| pipeline.selected())?;
    drop(pipeline);
    let events = std::mem::take(&mut *events.lock().expect("event log"));
    let trace = DatasetTrace {
        dataset,
        worker: ctx.worker,
        stages: Vec::new(),
        front_cost: None,
        chain: Some(load),
        events,
        front_problem: None,
    };
    Ok((trace, selected))
}

/// Datasets of a traced pass that broke a check the artifacts cannot
/// show: the stage-cache promise of the pass, or a replayed true front
/// that differs from the searched one.
fn pass_problems(pass: &TracedPass, cold: bool) -> Vec<(Dataset, String)> {
    pass.datasets
        .iter()
        .filter_map(|trace| {
            let entries: Vec<(StageKind, bool)> = trace
                .events
                .iter()
                .filter_map(|stamp| match stamp.event {
                    ProgressEvent::StageLoaded { stage } => Some((stage, true)),
                    ProgressEvent::StageStarted { stage } => Some((stage, false)),
                    _ => None,
                })
                .collect();
            let problem = stage_problem(&entries, cold).or_else(|| trace.front_problem.clone());
            problem.map(|p| (trace.dataset, p))
        })
        .collect()
}
