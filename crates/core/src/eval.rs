//! The shared evaluation core: parallel batch evaluation of GA
//! populations.
//!
//! The GA loop takes most of a `Full` study's time, and most of the
//! loop is spent inside [`IntProblem::evaluate`]: full-dataset
//! [`pe_mlp::AxMlp`] inference plus a gate-equivalent hardware costing
//! per genome, tens of thousands of times per run. (Float SGD training
//! takes most of the rest: about a fifth of the thread time in
//! perfbench's traced `full_study`.) This module turns that hot path
//! into a reusable substrate:
//!
//! * [`BatchEvaluator`] wraps any [`IntProblem`] and overrides
//!   [`IntProblem::evaluate_batch`] so each NSGA-II wave (the initial
//!   population, then each generation's offspring) fans out over a
//!   fixed-size `std::thread::scope` worker pool and returns its
//!   evaluations **in input order**, byte-identical to a serial loop,
//!   regardless of thread count.
//! * One pool serves both levels of parallelism: the batch evaluator's
//!   waves and [`Pipeline::run_many`](crate::Pipeline::run_many)'s
//!   datasets. No work stealing: workers pop indices from one atomic
//!   counter and each result lands in its own index-ordered slot.
//! * [`thread_budget`] is the default worker count (one per core)
//!   shared by both levels; callers choose another budget explicitly
//!   ([`RunManyOptions::with_threads`](crate::RunManyOptions::with_threads),
//!   [`Study::eval_threads`](crate::Study::eval_threads)).
//!
//! Correctness rests on one contract: `evaluate` must be a pure,
//! deterministic function of the genes (see [`IntProblem::evaluate`]).
//! Under that contract parallelism cannot change any result, which is
//! what keeps 1-thread and 32-thread runs byte-identical. Every
//! requested genome is computed, duplicates included: both fitness
//! objectives are cheap pure functions, and neither a genome memo nor a
//! within-wave duplicate map saved more than it cost (duplicates are
//! under 1 % of a study's requests).
//!
//! The work done is observable: the GA engines forward the count of
//! computed genomes as
//! [`ProgressEvent::EvalCache`](crate::ProgressEvent::EvalCache) once
//! per generation.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use pe_nsga::{Evaluation, IntProblem};

/// Default worker-thread budget for parallel evaluation: one worker per
/// available core, always at least 1.
///
/// [`Pipeline::run_many`](crate::Pipeline::run_many) and the search
/// stage's [`BatchEvaluator`] resolve their defaults through this
/// single helper, so every pool in the flow sizes itself the same way.
#[must_use]
pub fn thread_budget() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `job(0)`, …, `job(count − 1)` on up to `workers` scoped threads,
/// returned in index order. Workers pop indices from one atomic counter
/// and store each result in its own slot, so the result never depends
/// on scheduling. One worker or one job runs inline, spawning nothing.
/// A panicking job propagates once every worker has stopped.
pub(crate) fn in_order<T: Send>(
    count: usize,
    workers: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = workers.min(count);
    if workers <= 1 {
        return (0..count).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else {
                    break;
                };
                let result = job(i);
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}

/// A batch-parallel wrapper around any [`IntProblem`].
///
/// `evaluate` and `evaluate_batch` return exactly what the inner
/// problem would return (the inner `evaluate` must be pure and
/// deterministic); the wrapper only changes *on how many threads* the
/// inner problem runs. See the [module docs](self) for the design.
///
/// The wrapper can own its problem or borrow it (`IntProblem` is
/// implemented for `&T`), so a trainer can keep using the problem
/// after the GA finishes:
///
/// ```
/// use pe_nsga::{Evaluation, IntProblem};
/// use printed_axc::eval::BatchEvaluator;
///
/// struct Square;
/// impl IntProblem for Square {
///     fn bounds(&self) -> &[u32] {
///         &[100]
///     }
///     fn evaluate(&self, genes: &[u32]) -> Evaluation {
///         let x = f64::from(genes[0]);
///         Evaluation::feasible(vec![x * x])
///     }
/// }
///
/// let problem = Square;
/// let evaluator = BatchEvaluator::with_threads(&problem, 2);
/// let batch = evaluator.evaluate_batch(&[vec![3], vec![4], vec![3]]);
/// assert_eq!(batch[0], problem.evaluate(&[3]));
/// assert_eq!(batch[0], batch[2]);
/// ```
#[derive(Debug)]
pub struct BatchEvaluator<P> {
    inner: P,
    /// Genome evaluations computed by the inner problem.
    computed: AtomicU64,
    threads: usize,
}

impl<P: IntProblem + Sync> BatchEvaluator<P> {
    /// Wrap `inner` with a worker count (`threads <= 1` evaluates
    /// inline, spawning nothing).
    pub fn with_threads(inner: P, threads: usize) -> Self {
        Self {
            inner,
            computed: AtomicU64::new(0),
            threads: threads.max(1),
        }
    }
}

impl<P: IntProblem + Sync> IntProblem for BatchEvaluator<P> {
    fn bounds(&self) -> &[u32] {
        self.inner.bounds()
    }

    fn evaluate(&self, genes: &[u32]) -> Evaluation {
        self.computed.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(genes)
    }

    fn evaluate_batch(&self, genomes: &[Vec<u32>]) -> Vec<Evaluation> {
        // `PE_FAULT` drill site: one arrival per evaluation wave. Free
        // (one initialization check) when no plan is armed.
        match pe_store::fault::check(pe_store::fault::SITE_EVAL_BATCH) {
            Some(pe_store::FaultAction::Kill) => pe_store::fault::kill_now(),
            Some(pe_store::FaultAction::Err) => {
                panic!("injected fault: eval_batch")
            }
            None => {}
        }
        let evaluations = in_order(genomes.len(), self.threads, |i| {
            self.inner.evaluate(&genomes[i])
        });
        self.computed
            .fetch_add(genomes.len() as u64, Ordering::Relaxed);
        evaluations
    }
}

/// Run an NSGA-II search through a [`BatchEvaluator`] with the shared
/// progress protocol: per-generation stats are recorded into `history`
/// and a [`ProgressEvent::GaGeneration`] followed by a
/// [`ProgressEvent::EvalCache`] snapshot is emitted per generation;
/// cancellation is honored at generation granularity. The single
/// implementation behind [`HwAwareTrainer`](crate::HwAwareTrainer) and
/// [`PlainGaEngine`](crate::PlainGaEngine).
///
/// `problem_stats` snapshots the problem's own counters — the
/// gate-count computations and the design-store ingest — for the
/// [`ProgressEvent::EvalCache`] event (`None` for problems without
/// them, e.g. the plain GA — those counters report zero).
///
/// `checkpoint` makes the run crash-safe: a valid snapshot at the
/// spec's path resumes the GA mid-stream (RNG state, population
/// annotations and counters restored bit-exactly — the resumed run is
/// byte-identical to an uninterrupted one), and new snapshots are
/// flushed through [`pe_store::atomic_write`] every `spec.every`
/// generations plus once on completion or cancellation. `None` keeps
/// the historical single-shot behavior.
// Internal plumbing shared by exactly two engines; a parameter struct
// would only move the argument list one level up.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_ga<P: IntProblem + Sync>(
    nsga: &pe_nsga::Nsga2,
    problem: &P,
    seeds: Vec<Vec<u32>>,
    eval_threads: usize,
    ctl: &crate::progress::RunControl<'_>,
    history: &mut Vec<pe_nsga::GenerationStats>,
    problem_stats: &(dyn Fn() -> Option<ProblemCacheStats> + Sync),
    checkpoint: Option<&crate::checkpoint::CheckpointSpec>,
) -> pe_nsga::NsgaResult {
    use crate::progress::ProgressEvent;
    let generations = nsga.config().generations;
    let evaluator = BatchEvaluator::with_threads(problem, eval_threads);

    let checkpoint = checkpoint.filter(|spec| spec.is_active());
    let resume = checkpoint
        .and_then(|spec| crate::checkpoint::load(spec, nsga.config(), problem.bounds(), ctl));
    if let Some(cp) = &resume {
        // The observer below only sees the *new* generations; the
        // already-run prefix comes straight from the snapshot so the
        // outcome's history matches an uninterrupted run exactly.
        history.extend(cp.history.iter().cloned());
    }
    let sink = checkpoint.map(|spec| crate::checkpoint::FileSink::new(&spec.path, ctl));
    let plan = checkpoint
        .zip(sink.as_ref())
        .map(|(spec, sink)| pe_nsga::CheckpointPlan {
            every: spec.every,
            sink,
        });

    nsga.run_checkpointed(&evaluator, seeds, resume, plan, |s| {
        // `PE_FAULT` drill site: one arrival per completed generation,
        // *before* this generation's checkpoint can flush — a kill here
        // loses at most `every` generations of work, never durability.
        match pe_store::fault::check(pe_store::fault::SITE_SEARCHED_GENERATION) {
            Some(pe_store::FaultAction::Kill) => pe_store::fault::kill_now(),
            Some(pe_store::FaultAction::Err) => {
                panic!("injected fault: searched_generation")
            }
            None => {}
        }
        history.push(s.clone());
        ctl.emit(&ProgressEvent::GaGeneration {
            generation: s.generation,
            generations,
            evaluations: s.evaluations,
        });
        let problem = problem_stats().unwrap_or_default();
        ctl.emit(&ProgressEvent::EvalCache {
            hits: 0,
            misses: evaluator.computed.load(Ordering::Relaxed),
            entries: 0,
            column_hits: 0,
            column_misses: 0,
            column_entries: 0,
            column_contended: 0,
            column_shards: 0,
            cost_hits: 0,
            cost_misses: problem.cost_misses,
            store_ingested: problem.store.ingested,
            store_deduplicated: problem.store.deduplicated,
            store_bytes: problem.store.bytes_written,
        });
        !ctl.is_cancelled()
    })
}

/// Snapshot of an [`IntProblem`]'s internal counters for the
/// [`ProgressEvent::EvalCache`](crate::ProgressEvent::EvalCache)
/// stream: the gate-count computations of the area objective and the
/// design-store sink counters (all-zero when no store is attached).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ProblemCacheStats {
    pub(crate) cost_misses: u64,
    pub(crate) store: pe_store::StoreStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A cheap but non-trivial deterministic problem that counts its
    /// evaluations.
    struct Poly {
        bounds: Vec<u32>,
        calls: AtomicU64,
    }

    impl Poly {
        fn new(bound: u32) -> Self {
            Self {
                bounds: vec![bound; 4],
                calls: AtomicU64::new(0),
            }
        }
    }

    impl IntProblem for Poly {
        fn bounds(&self) -> &[u32] {
            &self.bounds
        }
        fn evaluate(&self, genes: &[u32]) -> Evaluation {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let s: f64 = genes
                .iter()
                .enumerate()
                .map(|(i, &g)| f64::from(g) * (i as f64 + 1.0))
                .sum();
            let objectives = vec![s, 1000.0 - s];
            if s < 5.0 {
                Evaluation::infeasible(objectives, 5.0 - s)
            } else {
                Evaluation::feasible(objectives)
            }
        }
    }

    fn genomes(n: usize, modulo: u32) -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| (0..4).map(|j| ((i as u32) * 7 + j * 13) % modulo).collect())
            .collect()
    }

    #[test]
    fn batch_matches_serial_loop_in_order() {
        let problem = Poly::new(32);
        let pop = genomes(50, 32);
        let expected: Vec<Evaluation> = pop.iter().map(|g| problem.evaluate(g)).collect();
        for threads in [1, 4] {
            let evaluator = BatchEvaluator::with_threads(&problem, threads);
            assert_eq!(
                evaluator.evaluate_batch(&pop),
                expected,
                "{threads} threads"
            );
            // A repeated wave recomputes, with identical output.
            assert_eq!(evaluator.evaluate_batch(&pop), expected);
        }
    }

    #[test]
    fn duplicates_are_computed_again_and_counters_add_up() {
        // modulo 2 forces heavy duplication across 40 genomes.
        let pop = genomes(40, 2);
        let unique: std::collections::HashSet<&[u32]> = pop.iter().map(Vec::as_slice).collect();
        assert!(unique.len() < pop.len());
        for threads in [1, 4] {
            let problem = Poly::new(8);
            let expected: Vec<Evaluation> = pop.iter().map(|g| problem.evaluate(g)).collect();
            let evaluator = BatchEvaluator::with_threads(&problem, threads);
            assert_eq!(evaluator.evaluate_batch(&pop), expected);
            // Every requested genome reached the inner problem, once.
            assert_eq!(evaluator.computed.load(Ordering::Relaxed), pop.len() as u64);
            assert_eq!(problem.calls.load(Ordering::Relaxed), 2 * pop.len() as u64);
            let _ = evaluator.evaluate(&pop[0]);
            assert_eq!(
                evaluator.computed.load(Ordering::Relaxed),
                pop.len() as u64 + 1
            );
        }
    }

    #[test]
    fn in_order_runs_no_job_for_zero_jobs() {
        for workers in [1, 4] {
            let results: Vec<usize> = in_order(0, workers, |i| unreachable!("job {i} ran"));
            assert!(results.is_empty());
        }
    }

    #[test]
    fn in_order_with_fewer_jobs_than_workers() {
        assert_eq!(in_order(3, 8, |i| i * i), [0, 1, 4]);
    }

    #[test]
    fn in_order_runs_inline_on_one_worker_or_one_job() {
        let here = std::thread::current().id();
        for (count, workers) in [(5, 1), (1, 8)] {
            let threads = in_order(count, workers, |_| std::thread::current().id());
            assert_eq!(
                threads,
                vec![here; count],
                "{count} jobs, {workers} workers"
            );
        }
    }

    #[test]
    fn in_order_keeps_index_order_when_later_jobs_finish_first() {
        let count = 12;
        for workers in 1..=8 {
            let results = in_order(count, workers, |i| {
                // Earlier jobs take longer, so later ones finish first.
                std::thread::sleep(Duration::from_micros(200 * (count - i) as u64));
                i * 10
            });
            let expected: Vec<usize> = (0..count).map(|i| i * 10).collect();
            assert_eq!(results, expected, "{workers} workers");
        }
    }

    #[test]
    fn in_order_propagates_a_panicking_job() {
        for workers in [1, 4] {
            let outcome = std::panic::catch_unwind(|| {
                in_order(8, workers, |i| {
                    assert_ne!(i, 5, "job 5 fails");
                    i
                })
            });
            assert!(outcome.is_err(), "{workers} workers");
        }
    }

    #[test]
    fn thread_budget_is_positive() {
        assert!(thread_budget() >= 1);
    }
}
