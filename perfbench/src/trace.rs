//! Arithmetic over a traced pass: the benchmark stamps every
//! [`ProgressEvent`] a dataset's pipeline emits with the time it was
//! observed, times its own calls into the pipeline, and splits the
//! result into per-layer spans and counts here. Nothing in this module
//! touches the clock, so it is tested on synthetic event streams.

use printed_axc::{ProgressEvent, StageKind};

/// A progress event stamped with the moment the benchmark's observer
/// saw it, in seconds since its pass started.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Seconds since the pass started.
    pub at: f64,
    /// The event as the pipeline emitted it.
    pub event: ProgressEvent,
}

/// An interval in seconds since the pass started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Start of the interval.
    pub start: f64,
    /// End of the interval.
    pub end: f64,
}

impl Span {
    /// Length of the interval in seconds.
    pub fn secs(self) -> f64 {
        self.end - self.start
    }
}

/// How one dataset's `Searched` stage splits into phases.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchPhases {
    /// `StageStarted(Searched)` to the first `GaGeneration`: doped
    /// seeding and refinement, the initial wave and generation 0.
    pub seed_refine: f64,
    /// First to last `GaGeneration`, minus the checkpoint writes inside.
    pub ga_loop: f64,
    /// Every gap from a `GaGeneration` to the `Checkpoint` after it.
    pub checkpoint_write: f64,
    /// `Checkpoint` events seen.
    pub checkpoints: u64,
    /// Last `GaGeneration` to the end of the stage, minus checkpoint
    /// writes and true-front costing: memetic polish plus test-split
    /// scoring of the front.
    pub polish: f64,
    /// Chromosome evaluations reported by the last `GaGeneration`.
    pub evaluations: u64,
}

/// Split the `Searched` stage spanning `search` at its first and last
/// `GaGeneration`. `front_cost` is the time the replayed true-front
/// costing took; it is taken out of the polish phase, where the
/// pipeline runs it. `None` when the stream holds no generation.
pub fn split_search(events: &[Stamp], search: Span, front_cost: f64) -> Option<SearchPhases> {
    let started = events
        .iter()
        .find(|s| {
            matches!(
                s.event,
                ProgressEvent::StageStarted {
                    stage: StageKind::Searched
                }
            )
        })
        .map_or(search.start, |s| s.at);
    let generations: Vec<(f64, u64)> = events
        .iter()
        .filter_map(|s| match s.event {
            ProgressEvent::GaGeneration { evaluations, .. } => Some((s.at, evaluations)),
            _ => None,
        })
        .collect();
    let (first, _) = *generations.first()?;
    let (last, evaluations) = *generations.last()?;

    let (mut in_loop, mut after_loop, mut checkpoints) = (0.0, 0.0, 0);
    let mut previous_generation = None;
    for stamp in events {
        match stamp.event {
            ProgressEvent::GaGeneration { .. } => previous_generation = Some(stamp.at),
            ProgressEvent::Checkpoint { .. } => {
                checkpoints += 1;
                let gap = previous_generation.map_or(0.0, |g| stamp.at - g);
                if stamp.at <= last {
                    in_loop += gap;
                } else {
                    after_loop += gap;
                }
            }
            _ => {}
        }
    }
    Some(SearchPhases {
        seed_refine: first - started,
        ga_loop: last - first - in_loop,
        checkpoint_write: in_loop + after_loop,
        checkpoints,
        polish: search.end - last - after_loop - front_cost,
        evaluations,
    })
}

/// Pair every `StageStarted` with the `StageFinished` of the same stage
/// that follows it.
pub fn stage_spans(events: &[Stamp]) -> Vec<(StageKind, Span)> {
    let mut open: Vec<(StageKind, f64)> = Vec::new();
    let mut spans = Vec::new();
    for stamp in events {
        match stamp.event {
            ProgressEvent::StageStarted { stage } => open.push((stage, stamp.at)),
            ProgressEvent::StageFinished { stage } => {
                if let Some(i) = open.iter().rposition(|(s, _)| *s == stage) {
                    let (_, start) = open.remove(i);
                    spans.push((
                        stage,
                        Span {
                            start,
                            end: stamp.at,
                        },
                    ));
                }
            }
            _ => {}
        }
    }
    spans
}

/// Time the cached stage chain spends between computing stages: each
/// gap from a `StageFinished` to the next `StageStarted`, and from the
/// last `StageFinished` to `chain_end`. On a cold pass that is the
/// serialisation and atomic write of each stage artifact.
pub fn stage_store_gaps(events: &[Stamp], chain_end: f64) -> f64 {
    let mut pending = None;
    let mut total = 0.0;
    for stamp in events {
        match stamp.event {
            ProgressEvent::StageFinished { .. } => pending = Some(stamp.at),
            ProgressEvent::StageStarted { .. } => {
                if let Some(finished) = pending.take() {
                    total += stamp.at - finished;
                }
            }
            _ => {}
        }
    }
    total + pending.map_or(0.0, |finished| chain_end - finished)
}

/// Cache and store counters summed over every GA run in a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Genomes served from the memo.
    pub genome_hits: u64,
    /// Genomes the inner problem computed.
    pub genome_misses: u64,
    /// Neuron columns served from the column cache.
    pub column_hits: u64,
    /// Neuron columns computed.
    pub column_misses: u64,
    /// Column-cache probes that found their shard lock held.
    pub column_contended: u64,
    /// Gate-count lookups served from the cost memo.
    pub cost_hits: u64,
    /// Gate-count computations.
    pub cost_misses: u64,
    /// Unique designs ingested into the design store.
    pub store_ingested: u64,
    /// Bytes appended to the design store.
    pub store_bytes: u64,
}

impl CacheCounters {
    /// Add `other`'s counters to these.
    pub fn add(&mut self, other: &CacheCounters) {
        self.genome_hits += other.genome_hits;
        self.genome_misses += other.genome_misses;
        self.column_hits += other.column_hits;
        self.column_misses += other.column_misses;
        self.column_contended += other.column_contended;
        self.cost_hits += other.cost_hits;
        self.cost_misses += other.cost_misses;
        self.store_ingested += other.store_ingested;
        self.store_bytes += other.store_bytes;
    }

    fn any_below(&self, other: &CacheCounters) -> bool {
        self.genome_hits < other.genome_hits
            || self.genome_misses < other.genome_misses
            || self.column_hits < other.column_hits
            || self.column_misses < other.column_misses
            || self.cost_hits < other.cost_hits
            || self.cost_misses < other.cost_misses
    }
}

/// Sum the cumulative `EvalCache` counters of a stream. Each GA run's
/// counters restart at zero: a `GaGeneration` with `generation: 0`
/// folds the previous run's last snapshot into the total, and a
/// decrease in any counter does the same for runs that skip the marker.
pub fn cache_counters(events: &[Stamp]) -> CacheCounters {
    let mut total = CacheCounters::default();
    let mut last = CacheCounters::default();
    for stamp in events {
        match stamp.event {
            ProgressEvent::GaGeneration { generation: 0, .. } => {
                total.add(&last);
                last = CacheCounters::default();
            }
            ProgressEvent::EvalCache {
                hits,
                misses,
                column_hits,
                column_misses,
                column_contended,
                cost_hits,
                cost_misses,
                store_ingested,
                store_bytes,
                ..
            } => {
                let current = CacheCounters {
                    genome_hits: hits,
                    genome_misses: misses,
                    column_hits,
                    column_misses,
                    column_contended,
                    cost_hits,
                    cost_misses,
                    store_ingested,
                    store_bytes,
                };
                if current.any_below(&last) {
                    total.add(&last);
                }
                last = current;
            }
            _ => {}
        }
    }
    total.add(&last);
    total
}

/// `hits / (hits + misses)`, or 0 when there were no lookups.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 0.0,
        lookups => hits as f64 / lookups as f64,
    }
}

/// Seconds workers sat with no dataset left: each worker's gap from
/// the end of its last dataset to the end of the pass. `worker_ends`
/// holds one entry per worker that ran anything; workers that ran
/// nothing idle for the whole pass.
pub fn worker_idle(worker_ends: &[f64], workers: usize, wall: f64) -> f64 {
    let idle_tails: f64 = worker_ends.iter().map(|end| wall - end).sum();
    idle_tails + workers.saturating_sub(worker_ends.len()) as f64 * wall
}

/// Share of the pass's worker time that named spans cover: `named`
/// span seconds over `workers × wall` seconds.
pub fn attributed_share(named: f64, workers: usize, wall: f64) -> f64 {
    named / (workers as f64 * wall)
}

/// Median of `values` (the mean of the middle two for an even count);
/// `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(at: f64, event: ProgressEvent) -> Stamp {
        Stamp { at, event }
    }

    fn started(stage: StageKind) -> ProgressEvent {
        ProgressEvent::StageStarted { stage }
    }

    fn finished(stage: StageKind) -> ProgressEvent {
        ProgressEvent::StageFinished { stage }
    }

    fn generation(generation: usize, evaluations: u64) -> ProgressEvent {
        ProgressEvent::GaGeneration {
            generation,
            generations: 10,
            evaluations,
        }
    }

    fn checkpoint(generation: usize) -> ProgressEvent {
        ProgressEvent::Checkpoint {
            generation,
            evaluations: 0,
        }
    }

    fn eval_cache(hits: u64, misses: u64, column_hits: u64, cost_hits: u64) -> ProgressEvent {
        ProgressEvent::EvalCache {
            hits,
            misses,
            entries: 0,
            column_hits,
            column_misses: 10,
            column_entries: 0,
            column_contended: 1,
            column_shards: 4,
            cost_hits,
            cost_misses: 5,
            store_ingested: 2,
            store_deduplicated: 0,
            store_bytes: 100,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn search_splits_at_first_and_last_generation() {
        let events = [
            at(1.0, started(StageKind::Searched)),
            at(1.5, generation(0, 40)),
            at(2.0, generation(1, 60)),
            at(2.5, generation(2, 80)),
            at(3.0, finished(StageKind::Searched)),
        ];
        let search = Span {
            start: 0.9,
            end: 3.2,
        };
        let phases = split_search(&events, search, 0.2).expect("generations present");
        assert!(close(phases.seed_refine, 0.5), "{phases:?}");
        assert!(close(phases.ga_loop, 1.0), "{phases:?}");
        // 3.2 (stage end) - 2.5 (last generation) - 0.2 (front costing).
        assert!(close(phases.polish, 0.5), "{phases:?}");
        assert_eq!(phases.evaluations, 80);
        assert_eq!(phases.checkpoints, 0);
        assert!(split_search(&events[..1], search, 0.0).is_none());
    }

    #[test]
    fn checkpoint_gaps_leave_the_loop_and_the_polish() {
        let events = [
            at(0.0, started(StageKind::Searched)),
            at(1.0, generation(0, 10)),
            at(2.0, generation(1, 20)),
            // Mid-loop flush: 0.25 s after generation 1.
            at(2.25, checkpoint(2)),
            at(3.0, generation(2, 30)),
            // Final flush after the last generation: 0.5 s.
            at(3.5, checkpoint(3)),
        ];
        let search = Span {
            start: 0.0,
            end: 5.0,
        };
        let phases = split_search(&events, search, 1.0).expect("generations present");
        assert_eq!(phases.checkpoints, 2);
        assert!(close(phases.checkpoint_write, 0.75), "{phases:?}");
        assert!(close(phases.ga_loop, 2.0 - 0.25), "{phases:?}");
        assert!(close(phases.polish, 2.0 - 0.5 - 1.0), "{phases:?}");
        // Every second of the stage lands in exactly one phase.
        let covered =
            phases.seed_refine + phases.ga_loop + phases.checkpoint_write + phases.polish + 1.0;
        assert!(close(covered, search.secs()));
    }

    #[test]
    fn stage_store_gaps_sum_between_stages_and_to_the_chain_end() {
        let events = [
            at(0.1, started(StageKind::Prepared)),
            at(0.3, finished(StageKind::Prepared)),
            at(0.4, started(StageKind::FloatTrained)),
            at(
                1.0,
                ProgressEvent::SgdEpoch {
                    restart: 0,
                    epoch: 0,
                    epochs: 1,
                },
            ),
            at(1.4, finished(StageKind::FloatTrained)),
            at(1.7, started(StageKind::BaselineCosted)),
            at(2.0, finished(StageKind::BaselineCosted)),
        ];
        // 0.1 + 0.3 between stages, 0.5 after the last one.
        assert!(close(stage_store_gaps(&events, 2.5), 0.9));
        let spans = stage_spans(&events);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].0, StageKind::FloatTrained);
        assert!(close(spans[1].1.secs(), 1.0));
        assert!(close(stage_store_gaps(&[], 1.0), 0.0));
    }

    #[test]
    fn cache_counters_fold_at_the_generation_zero_restart() {
        let events = [
            at(0.0, generation(0, 1)),
            at(0.0, eval_cache(3, 7, 20, 5)),
            at(0.1, generation(1, 2)),
            at(0.1, eval_cache(6, 14, 40, 10)),
            // A second GA run in the same stream restarts its counters.
            at(0.2, generation(0, 1)),
            at(0.2, eval_cache(1, 9, 2, 1)),
        ];
        let c = cache_counters(&events);
        assert_eq!((c.genome_hits, c.genome_misses), (7, 23));
        assert_eq!((c.column_hits, c.column_misses), (42, 20));
        assert_eq!((c.cost_hits, c.cost_misses), (11, 10));
        assert_eq!(c.column_contended, 2);
        assert_eq!((c.store_ingested, c.store_bytes), (4, 200));
        assert!(close(hit_rate(c.genome_hits, c.genome_misses), 7.0 / 30.0));
        assert!(close(hit_rate(0, 0), 0.0));
    }

    #[test]
    fn cache_counters_fold_on_an_unannounced_decrease() {
        let events = [
            at(0.0, eval_cache(5, 5, 0, 0)),
            at(0.1, eval_cache(2, 1, 0, 0)),
        ];
        let c = cache_counters(&events);
        assert_eq!((c.genome_hits, c.genome_misses), (7, 6));
    }

    #[test]
    fn attributed_share_counts_worker_time() {
        // Two workers over a 10 s pass: one ends at 10 s, one at 7 s.
        let idle = worker_idle(&[10.0, 7.0], 2, 10.0);
        assert!(close(idle, 3.0));
        assert!(close(worker_idle(&[4.0], 2, 10.0), 16.0));
        let named = 16.5;
        assert!(close(attributed_share(named + idle, 2, 10.0), 0.975));
    }

    #[test]
    fn median_of_odd_even_and_empty_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }
}
