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
//!   [`IntProblem::evaluate_batch`] so each NSGA-II wave
//!   1. is deduplicated — elitist (μ+λ) selection and low mutation
//!      rates put identical genomes into one wave, and each distinct
//!      genome is computed once;
//!   2. fans the distinct genomes out over a fixed-size
//!      `std::thread::scope` worker pool (no work stealing: workers pop
//!      indices from one atomic counter, results land in preallocated
//!      order-indexed slots), so
//!   3. evaluations return **in input order**, byte-identical to a
//!      serial loop, regardless of thread count.
//! * [`thread_budget`] is the default worker count (one per core)
//!   shared by [`Pipeline::run_many`](crate::Pipeline::run_many)'s
//!   dataset-level pool and the within-study batch evaluator; callers
//!   choose another budget explicitly
//!   ([`RunManyOptions::with_threads`](crate::RunManyOptions::with_threads),
//!   [`Study::eval_threads`](crate::Study::eval_threads)).
//!
//! Correctness rests on one contract: `evaluate` must be a pure,
//! deterministic function of the genes (see [`IntProblem::evaluate`]).
//! Under that contract neither deduplication nor parallelism can change
//! any result — only how much work is re-done — which is what keeps
//! 1-thread and 32-thread runs byte-identical. Genomes repeated
//! *across* waves are evaluated again: both fitness objectives are
//! cheap pure functions, and a genome memo cost more than it saved.
//!
//! The work done is observable: [`BatchEvaluator::stats`] snapshots
//! the duplicate and computed-genome counters, and the GA engines
//! forward them as
//! [`ProgressEvent::EvalCache`](crate::ProgressEvent::EvalCache) once
//! per generation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use pe_arith::cache::FxBuildHasher;
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

/// Snapshot of a [`BatchEvaluator`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCacheStats {
    /// Requested evaluations served by a duplicate earlier in the same
    /// wave (lifetime).
    pub hits: u64,
    /// Genome evaluations actually computed by the inner problem
    /// (lifetime).
    pub misses: u64,
}

/// A deduplicating, batch-parallel wrapper around any [`IntProblem`].
///
/// `evaluate` and `evaluate_batch` return exactly what the inner
/// problem would return (the inner `evaluate` must be pure and
/// deterministic); the wrapper only changes *how often* and *on how
/// many threads* the inner problem runs. See the [module
/// docs](self) for the design.
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
/// assert_eq!(evaluator.stats().misses, 2); // the duplicate was free
/// ```
#[derive(Debug)]
pub struct BatchEvaluator<P> {
    inner: P,
    /// Requested evaluations served by a within-wave duplicate.
    hits: AtomicU64,
    /// Genome evaluations computed by the inner problem.
    misses: AtomicU64,
    threads: usize,
}

impl<P: IntProblem + Sync> BatchEvaluator<P> {
    /// Wrap `inner` with a worker count (`threads <= 1` evaluates
    /// inline, spawning nothing).
    pub fn with_threads(inner: P, threads: usize) -> Self {
        Self {
            inner,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            threads: threads.max(1),
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Evaluate the distinct genomes of a batch, in parallel when both
    /// their count and the thread budget allow it. `rows[k]` is the
    /// batch index of the `k`-th distinct genome; returns the
    /// evaluations in that order.
    fn compute(&self, genomes: &[Vec<u32>], rows: &[usize]) -> Vec<Evaluation> {
        let workers = self.threads.min(rows.len());
        if workers <= 1 {
            return rows
                .iter()
                .map(|&i| self.inner.evaluate(&genomes[i]))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Evaluation>>> = rows.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&i) = rows.get(k) else {
                        break;
                    };
                    let e = self.inner.evaluate(&genomes[i]);
                    *slots[k]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(e);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("every slot is filled before the scope ends")
            })
            .collect()
    }
}

impl<P: IntProblem + Sync> IntProblem for BatchEvaluator<P> {
    fn bounds(&self) -> &[u32] {
        self.inner.bounds()
    }

    fn evaluate(&self, genes: &[u32]) -> Evaluation {
        self.misses.fetch_add(1, Ordering::Relaxed);
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
        // `first[i]` is the index into `rows`/`computed` of genome
        // `i`'s first occurrence in the wave.
        let mut rows: Vec<usize> = Vec::new();
        let mut index_of: HashMap<&[u32], usize, FxBuildHasher> = HashMap::default();
        let first: Vec<usize> = genomes
            .iter()
            .enumerate()
            .map(|(i, genome)| {
                *index_of.entry(genome.as_slice()).or_insert_with(|| {
                    rows.push(i);
                    rows.len() - 1
                })
            })
            .collect();

        // Compute the distinct genomes (parallel, input-ordered).
        let computed = self.compute(genomes, &rows);
        self.misses.fetch_add(rows.len() as u64, Ordering::Relaxed);
        self.hits
            .fetch_add((genomes.len() - rows.len()) as u64, Ordering::Relaxed);
        first.into_iter().map(|k| computed[k].clone()).collect()
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
        let cache = evaluator.stats();
        let problem = problem_stats().unwrap_or_default();
        ctl.emit(&ProgressEvent::EvalCache {
            hits: cache.hits,
            misses: cache.misses,
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

    /// A cheap but non-trivial deterministic problem.
    struct Poly {
        bounds: Vec<u32>,
    }

    impl IntProblem for Poly {
        fn bounds(&self) -> &[u32] {
            &self.bounds
        }
        fn evaluate(&self, genes: &[u32]) -> Evaluation {
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
        let problem = Poly {
            bounds: vec![32; 4],
        };
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
    fn duplicates_are_computed_once_and_counters_add_up() {
        let problem = Poly { bounds: vec![8; 4] };
        // modulo 2 forces heavy duplication across 40 genomes.
        let pop = genomes(40, 2);
        let unique: std::collections::HashSet<&[u32]> = pop.iter().map(Vec::as_slice).collect();
        let evaluator = BatchEvaluator::with_threads(&problem, 4);
        let _ = evaluator.evaluate_batch(&pop);
        let stats = evaluator.stats();
        assert_eq!(stats.misses, unique.len() as u64);
        assert_eq!(stats.hits + stats.misses, pop.len() as u64);
    }

    #[test]
    fn thread_budget_is_positive() {
        assert!(thread_budget() >= 1);
    }
}
