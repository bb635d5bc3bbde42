//! The shared evaluation core: parallel, memoized batch evaluation of
//! GA populations.
//!
//! Virtually all of a study's wall-clock time is spent inside
//! [`IntProblem::evaluate`] — full-dataset [`pe_mlp::AxMlp`] inference
//! plus a gate-equivalent hardware costing per genome, tens of
//! thousands of times per run. This module turns that hot path into a
//! reusable substrate:
//!
//! * [`CachedEvaluator`] wraps any [`IntProblem`] and overrides
//!   [`IntProblem::evaluate_batch`] so each NSGA-II wave
//!   1. is looked up in a bounded genome-keyed memo
//!      ([`pe_arith::BoundedCache`]) — elitist (μ+λ) selection and
//!      low mutation rates re-submit many identical genomes across
//!      generations, and duplicates *within* a wave are computed once;
//!   2. fans the remaining misses out over a fixed-size
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
//! Under that contract neither caching nor parallelism can change any
//! result — only how much work is re-done — which is what keeps
//! 1-thread and 32-thread runs byte-identical.
//!
//! Cache effectiveness is observable: [`CachedEvaluator::stats`]
//! snapshots hit/miss counters, and the GA engines forward them as
//! [`ProgressEvent::EvalCache`](crate::ProgressEvent::EvalCache) once
//! per generation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use pe_arith::cache::FxBuildHasher;
use pe_arith::BoundedCache;
use pe_nsga::{Evaluation, IntProblem};

/// Default worker-thread budget for parallel evaluation: one worker per
/// available core, always at least 1.
///
/// Both [`Pipeline::run_many`](crate::Pipeline::run_many) and
/// [`CachedEvaluator::new`] resolve their defaults through this single
/// helper, so every pool in the flow sizes itself the same way.
#[must_use]
pub fn thread_budget() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Default bound on memoized genomes per cache generation (a paper-size
/// genome is a few hundred `u32`s, so a full cache stays tens of MB).
pub const GENOME_CACHE_CAPACITY: usize = 1 << 14;

/// Snapshot of a [`CachedEvaluator`]'s cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCacheStats {
    /// Genome evaluations served from the memo (lifetime).
    pub hits: u64,
    /// Genome evaluations actually computed by the inner problem
    /// (lifetime).
    pub misses: u64,
    /// Genomes currently resident in the memo.
    pub entries: usize,
}

/// A memoizing, batch-parallel wrapper around any [`IntProblem`].
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
/// use printed_axc::eval::CachedEvaluator;
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
/// let evaluator = CachedEvaluator::new(&problem);
/// let batch = evaluator.evaluate_batch(&[vec![3], vec![4], vec![3]]);
/// assert_eq!(batch[0], problem.evaluate(&[3]));
/// assert_eq!(batch[0], batch[2]);
/// assert_eq!(evaluator.stats().misses, 2); // the duplicate was free
/// ```
pub struct CachedEvaluator<P> {
    inner: P,
    cache: Mutex<BoundedCache<Vec<u32>, Evaluation>>,
    /// Genome evaluations served from the memo (including intra-batch
    /// duplicates). Tracked here rather than via the cache's own
    /// counters, which also see the wrapper's bookkeeping lookups.
    hits: AtomicU64,
    /// Genome evaluations computed by the inner problem.
    misses: AtomicU64,
    threads: usize,
}

impl<P: IntProblem + Sync> CachedEvaluator<P> {
    /// Wrap `inner` with the default cache capacity and the
    /// [`thread_budget`] worker count.
    pub fn new(inner: P) -> Self {
        Self::with_options(inner, GENOME_CACHE_CAPACITY, thread_budget())
    }

    /// Wrap `inner` with an explicit memo capacity (per cache
    /// generation) and worker count (`threads <= 1` evaluates inline,
    /// spawning nothing).
    pub fn with_options(inner: P, capacity: usize, threads: usize) -> Self {
        Self {
            inner,
            cache: Mutex::new(BoundedCache::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            threads: threads.max(1),
        }
    }

    /// The wrapped problem.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The worker count batches fan out over.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot the cache counters.
    pub fn stats(&self) -> EvalCacheStats {
        let entries = self.lock_cache().len();
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
        }
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, BoundedCache<Vec<u32>, Evaluation>> {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Evaluate the deduplicated cache misses of a batch, in parallel
    /// when both the miss count and the thread budget allow it.
    /// `miss_rows[k]` is the batch index of the `k`-th unique miss;
    /// returns the evaluations in miss order.
    fn compute_misses(&self, genomes: &[Vec<u32>], miss_rows: &[usize]) -> Vec<Evaluation> {
        let workers = self.threads.min(miss_rows.len());
        if workers <= 1 {
            return miss_rows
                .iter()
                .map(|&i| self.inner.evaluate(&genomes[i]))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Evaluation>>> =
            miss_rows.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&i) = miss_rows.get(k) else {
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
                    .expect("every miss slot is filled before the scope ends")
            })
            .collect()
    }
}

impl<P: IntProblem + Sync> IntProblem for CachedEvaluator<P> {
    fn bounds(&self) -> &[u32] {
        self.inner.bounds()
    }

    fn evaluate(&self, genes: &[u32]) -> Evaluation {
        if let Some(e) = self.lock_cache().get(genes) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return e;
        }
        let e = self.inner.evaluate(genes);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.lock_cache().insert(genes.to_vec(), e.clone());
        e
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
        let mut results: Vec<Option<Evaluation>> = vec![None; genomes.len()];

        // Phase 1 — one cache pass: resolve hits, deduplicate misses.
        // `miss_of[genome]` is the index into `miss_rows`/`computed`
        // for every genome the inner problem has to score.
        let mut miss_rows: Vec<usize> = Vec::new();
        let mut miss_of: HashMap<&[u32], usize, FxBuildHasher> = HashMap::default();
        {
            let mut cache = self.lock_cache();
            for (i, genome) in genomes.iter().enumerate() {
                if let Some(e) = cache.get(genome.as_slice()) {
                    results[i] = Some(e);
                } else if !miss_of.contains_key(genome.as_slice()) {
                    miss_of.insert(genome.as_slice(), miss_rows.len());
                    miss_rows.push(i);
                }
            }
        }

        // Phase 2 — compute the unique misses (parallel, input-ordered).
        let computed = self.compute_misses(genomes, &miss_rows);
        self.misses
            .fetch_add(miss_rows.len() as u64, Ordering::Relaxed);
        self.hits
            .fetch_add((genomes.len() - miss_rows.len()) as u64, Ordering::Relaxed);

        // Phase 3 — publish to the cache and fill the remaining rows
        // (unique misses and their intra-batch duplicates) straight
        // from the computed list, so even immediate eviction from a
        // tiny cache cannot lose a result.
        {
            let mut cache = self.lock_cache();
            for (&i, e) in miss_rows.iter().zip(&computed) {
                cache.insert(genomes[i].clone(), e.clone());
            }
        }
        for (i, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                let k = miss_of[genomes[i].as_slice()];
                *slot = Some(computed[k].clone());
            }
        }
        results
            .into_iter()
            .map(|e| e.expect("every batch row resolves to an evaluation"))
            .collect()
    }
}

/// Run an NSGA-II search through a [`CachedEvaluator`] with the shared
/// progress protocol: per-generation stats are recorded into `history`
/// and a [`ProgressEvent::GaGeneration`] followed by a
/// [`ProgressEvent::EvalCache`] snapshot is emitted per generation;
/// cancellation is honored at generation granularity. The single
/// implementation behind [`HwAwareTrainer`](crate::HwAwareTrainer) and
/// [`PlainGaEngine`](crate::PlainGaEngine).
///
/// `problem_stats` snapshots the problem's own caches — the
/// neuron-column cache and the cost layer's gate-count memo — for the
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
pub(crate) fn run_ga_cached<P: IntProblem + Sync>(
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
    let evaluator = CachedEvaluator::with_options(problem, GENOME_CACHE_CAPACITY, eval_threads);

    let checkpoint = checkpoint.filter(|spec| spec.is_active());
    let resume =
        checkpoint.and_then(|spec| crate::checkpoint::load(spec, nsga.config(), problem.bounds()));
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
        let columns = problem.columns;
        ctl.emit(&ProgressEvent::EvalCache {
            hits: cache.hits,
            misses: cache.misses,
            entries: cache.entries,
            column_hits: columns.hits,
            column_misses: columns.misses,
            column_entries: columns.entries,
            column_contended: columns.contended,
            column_shards: columns.shards,
            cost_hits: problem.cost_hits,
            cost_misses: problem.cost_misses,
            store_ingested: problem.store.ingested,
            store_deduplicated: problem.store.deduplicated,
            store_bytes: problem.store.bytes_written,
        });
        !ctl.is_cancelled()
    })
}

/// Snapshot of an [`IntProblem`]'s internal caches for the
/// [`ProgressEvent::EvalCache`](crate::ProgressEvent::EvalCache)
/// stream: the columnar engine's neuron-column cache, the cost layer's
/// per-neuron gate-count memo, and the design-store sink counters
/// (all-zero when no store is attached).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ProblemCacheStats {
    pub(crate) columns: crate::columns::ColumnCacheStats,
    pub(crate) cost_hits: u64,
    pub(crate) cost_misses: u64,
    pub(crate) store: pe_store::StoreStats,
}

impl<P: std::fmt::Debug> std::fmt::Debug for CachedEvaluator<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedEvaluator")
            .field("inner", &self.inner)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
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
            let evaluator = CachedEvaluator::with_options(&problem, 64, threads);
            assert_eq!(
                evaluator.evaluate_batch(&pop),
                expected,
                "{threads} threads"
            );
            // Warm pass: all hits, identical output.
            assert_eq!(evaluator.evaluate_batch(&pop), expected);
        }
    }

    #[test]
    fn duplicates_are_computed_once_and_counters_add_up() {
        let problem = Poly { bounds: vec![8; 4] };
        // modulo 2 forces heavy duplication across 40 genomes.
        let pop = genomes(40, 2);
        let unique: std::collections::HashSet<&[u32]> = pop.iter().map(Vec::as_slice).collect();
        let evaluator = CachedEvaluator::with_options(&problem, 64, 4);
        let _ = evaluator.evaluate_batch(&pop);
        let stats = evaluator.stats();
        assert_eq!(stats.misses, unique.len() as u64);
        assert_eq!(stats.hits + stats.misses, pop.len() as u64);
        assert_eq!(stats.entries, unique.len());
    }

    #[test]
    fn single_evaluate_is_cached_too() {
        let problem = Poly { bounds: vec![9; 4] };
        let evaluator = CachedEvaluator::with_options(&problem, 16, 1);
        let g = vec![1, 2, 3, 4];
        let a = evaluator.evaluate(&g);
        let b = evaluator.evaluate(&g);
        assert_eq!(a, b);
        assert_eq!(a, problem.evaluate(&g));
        assert_eq!(
            evaluator.stats(),
            EvalCacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
    }

    #[test]
    fn eviction_never_changes_results() {
        let problem = Poly {
            bounds: vec![64; 4],
        };
        // Capacity 2 per generation: almost everything gets evicted.
        let evaluator = CachedEvaluator::with_options(&problem, 2, 2);
        let pop = genomes(30, 64);
        let expected: Vec<Evaluation> = pop.iter().map(|g| problem.evaluate(g)).collect();
        assert_eq!(evaluator.evaluate_batch(&pop), expected);
        assert_eq!(evaluator.evaluate_batch(&pop), expected);
    }

    #[test]
    fn thread_budget_is_positive() {
        assert!(thread_budget() >= 1);
    }
}
