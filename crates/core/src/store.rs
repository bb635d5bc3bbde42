//! Design-store integration: the eval-path ingest sink and the
//! front-level query adapters.
//!
//! [`pe_store`] provides the persistence substrate (records, dedup,
//! the on-disk format); this module connects it to the search flow:
//!
//! * [`StoreSink`] — the hook the GA's fitness path calls once per
//!   evaluated design (the [`BatchEvaluator`](crate::eval::BatchEvaluator)
//!   deduplicates genomes within a wave; the store deduplicates the
//!   rest, so the file grows with distinct designs, not evaluations).
//!   The sink is a pure side channel: it never touches the GA's RNG
//!   streams or results, so a store-enabled run produces
//!   byte-identical fronts and artifacts. It also captures — once, at
//!   creation, before the run it belongs to writes anything — the
//!   stored front of its dataset as warm-start candidates.
//! * [`store_front`] / [`select_from_store`] — scenario queries that
//!   reuse the pipeline's own Pareto machinery
//!   ([`true_pareto_front`], [`select_within_budgets`]) over stored
//!   designs, so a query against a populated store answers exactly
//!   what re-running the selection on a live front would.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pe_hw::{CostScenario, ExactCostModel};
use pe_mlp::AxMlp;
use pe_store::{fingerprint_of, DesignRecord, DesignStore, StoreStats, StoreWriter};

use crate::pareto::{select_within_budgets, true_pareto_front, DesignCandidate, DesignPoint};

/// A shared, cloneable handle that lets one search populate a design
/// store as a side effect.
///
/// All clones (the fitness problem keeps one per thread-shared
/// problem, the trainer another) share the same writer and counters.
/// Ingest failures are reported to stderr once and then ignored — a
/// broken store file must never fail or perturb a search.
#[derive(Clone)]
pub struct StoreSink {
    writer: Arc<StoreWriter>,
    dataset: String,
    counters: Arc<SinkCounters>,
    /// Stored front members of this dataset, captured at sink
    /// creation (pre-existing records only), best test accuracy
    /// first — the warm-start seed pool. Empty unless warm-start was
    /// requested.
    warm: Arc<Vec<AxMlp>>,
}

#[derive(Debug, Default)]
struct SinkCounters {
    ingested: AtomicU64,
    deduplicated: AtomicU64,
    bytes: AtomicU64,
    failed: AtomicBool,
}

impl StoreSink {
    /// A sink writing `dataset`'s designs through `writer`. With
    /// `warm_start`, the writer's *current* records of this dataset
    /// that carry a test accuracy (i.e. prior front members) become
    /// the warm-start candidate pool, ordered best-first.
    #[must_use]
    pub fn new(writer: Arc<StoreWriter>, dataset: &str, warm_start: bool) -> Self {
        let warm = if warm_start {
            let mut front: Vec<DesignRecord> = writer
                .snapshot(Some(dataset))
                .into_iter()
                .filter(|r| r.test_accuracy.is_some())
                .collect();
            front.sort_by(|a, b| {
                b.query_accuracy()
                    .total_cmp(&a.query_accuracy())
                    .then(a.fingerprint.cmp(&b.fingerprint))
            });
            front.into_iter().map(|r| r.mlp).collect()
        } else {
            Vec::new()
        };
        Self {
            writer,
            dataset: dataset.to_string(),
            counters: Arc::default(),
            warm: Arc::new(warm),
        }
    }

    /// The dataset name this sink records under.
    #[must_use]
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The shared writer behind this sink.
    #[must_use]
    pub fn writer(&self) -> &Arc<StoreWriter> {
        &self.writer
    }

    /// The warm-start candidate pool (empty unless requested at
    /// creation): stored front members of this dataset, best first.
    #[must_use]
    pub fn warm_candidates(&self) -> &[AxMlp] {
        &self.warm
    }

    /// Sorted fingerprints of the warm-start pool — the stable
    /// identity the pipeline mixes into its stage-cache key when (and
    /// only when) warm-start seeds actually enter a search.
    #[must_use]
    pub fn warm_fingerprints(&self) -> Vec<u64> {
        let mut fps: Vec<u64> = self.warm.iter().map(fingerprint_of).collect();
        fps.sort_unstable();
        fps
    }

    /// This sink's own ingest counters (not the writer's globals, which
    /// may aggregate several datasets' sinks).
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            ingested: self.counters.ingested.load(Ordering::Relaxed),
            deduplicated: self.counters.deduplicated.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes.load(Ordering::Relaxed),
        }
    }

    /// Record one evaluated design from the fitness path: nominal
    /// training-subsample accuracy, the robust statistic when the
    /// search runs under variation, and the GA's area objective.
    pub fn record_evaluation(
        &self,
        mlp: &AxMlp,
        train_accuracy: f64,
        robust_accuracy: Option<f64>,
        estimated_area: f64,
    ) {
        let mut record =
            DesignRecord::new(&self.dataset, mlp.clone(), train_accuracy, estimated_area);
        record.robust_accuracy = robust_accuracy;
        self.push(record);
    }

    /// Record a front member after the GA finished, carrying its
    /// held-out test accuracy (merges into the evaluation record when
    /// the design was already ingested).
    pub fn annotate_front(&self, candidate: &DesignCandidate) {
        let mut record = DesignRecord::new(
            &self.dataset,
            candidate.mlp.clone(),
            candidate.train_accuracy,
            candidate.estimated_area,
        );
        record.test_accuracy = Some(candidate.test_accuracy);
        self.push(record);
    }

    /// Mark the design a pipeline select stage picked (`cost_sweep`
    /// reproduces its "ours" rows from this flag).
    pub fn mark_selected(&self, point: &DesignPoint) {
        let Some(mlp) = point.network.ax() else {
            return; // only approximate networks are storable
        };
        let mut record = DesignRecord::new(
            &self.dataset,
            mlp.clone(),
            point.train_accuracy,
            point.estimated_area,
        );
        record.test_accuracy = Some(point.test_accuracy);
        record.selected = true;
        self.push(record);
    }

    fn push(&self, record: DesignRecord) {
        match self.writer.ingest(record) {
            Ok(outcome) => {
                if outcome.new_design {
                    self.counters.ingested.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.counters.deduplicated.fetch_add(1, Ordering::Relaxed);
                }
                self.counters
                    .bytes
                    .fetch_add(outcome.bytes, Ordering::Relaxed);
            }
            Err(err) => {
                if !self.counters.failed.swap(true, Ordering::Relaxed) {
                    eprintln!("warning: design store ingest disabled: {err}");
                }
            }
        }
    }
}

impl std::fmt::Debug for StoreSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSink")
            .field("path", &self.writer.path())
            .field("dataset", &self.dataset)
            .field("warm_candidates", &self.warm.len())
            .finish_non_exhaustive()
    }
}

/// The evaluated Pareto front of `dataset`'s stored designs under
/// `model`'s scenario — the store-side equivalent of the front a live
/// search hands to selection, computed by the same
/// [`true_pareto_front`] over the records that carry a test accuracy
/// (front members are annotated when their search finishes).
#[must_use]
pub fn store_front(store: &DesignStore, dataset: &str, model: &ExactCostModel) -> Vec<DesignPoint> {
    let candidates: Vec<DesignCandidate> = store
        .dataset(dataset)
        .filter_map(|r| {
            r.test_accuracy.map(|test_accuracy| DesignCandidate {
                mlp: r.mlp.clone(),
                train_accuracy: r.train_accuracy,
                test_accuracy,
                estimated_area: r.estimated_area,
            })
        })
        .collect();
    true_pareto_front(candidates, model, &format!("{dataset}_store"))
}

/// Answer "best design within these budgets under this scenario" from
/// the store alone: [`store_front`] under the cost model for
/// `scenario`, then the pipeline's own [`select_within_budgets`] rule.
/// A pure read — microseconds against a populated store, no GA.
#[must_use]
pub fn select_from_store(
    store: &DesignStore,
    dataset: &str,
    scenario: CostScenario,
    baseline_accuracy: f64,
    max_loss: f64,
    power_budget_mw: Option<f64>,
) -> Option<DesignPoint> {
    let model = ExactCostModel::new(scenario);
    let front = store_front(store, dataset, &model);
    select_within_budgets(&front, baseline_accuracy, max_loss, power_budget_mw).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_mlp::{AxLayer, AxNeuron, AxWeight, QReluCfg};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    fn scratch_path(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "printed-axc-store-test-{}-{tag}-{unique}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn mlp(mask: u16) -> AxMlp {
        AxMlp {
            layers: vec![AxLayer {
                input_bits: 4,
                neurons: vec![
                    AxNeuron {
                        weights: vec![
                            AxWeight {
                                mask,
                                shift: 2,
                                negative: false,
                            },
                            AxWeight {
                                mask: 0b0011,
                                shift: 1,
                                negative: true,
                            },
                        ],
                        bias: 3,
                    },
                    AxNeuron {
                        weights: vec![
                            AxWeight {
                                mask: 0b0110,
                                shift: 0,
                                negative: false,
                            },
                            AxWeight {
                                mask: 0,
                                shift: 0,
                                negative: false,
                            },
                        ],
                        bias: -3,
                    },
                ],
                qrelu: Some(QReluCfg {
                    out_bits: 8,
                    shift: 2,
                }),
            }],
        }
    }

    #[test]
    fn sink_counts_and_warm_pool_reflect_the_store() {
        let path = scratch_path("sink");
        let writer = Arc::new(StoreWriter::open(&path).expect("open"));
        let sink = StoreSink::new(Arc::clone(&writer), "demo", false);
        sink.record_evaluation(&mlp(0b1111), 0.9, None, 20.0);
        sink.record_evaluation(&mlp(0b1111), 0.9, None, 20.0);
        sink.record_evaluation(&mlp(0b0001), 0.8, None, 5.0);
        let stats = sink.stats();
        assert_eq!((stats.ingested, stats.deduplicated), (2, 1));
        assert!(stats.bytes_written > 0);
        assert!(sink.warm_candidates().is_empty());

        // Annotate one design as a front member; a later warm-start
        // sink sees exactly that design.
        sink.annotate_front(&DesignCandidate {
            mlp: mlp(0b1111),
            train_accuracy: 0.9,
            test_accuracy: 0.88,
            estimated_area: 20.0,
        });
        let warm_sink = StoreSink::new(Arc::clone(&writer), "demo", true);
        assert_eq!(warm_sink.warm_candidates(), &[mlp(0b1111)]);
        assert_eq!(warm_sink.warm_fingerprints().len(), 1);
        // Another dataset's sink sees nothing.
        let other = StoreSink::new(Arc::clone(&writer), "other", true);
        assert!(other.warm_candidates().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_front_and_selection_reuse_the_pareto_rules() {
        let path = scratch_path("front");
        let writer = Arc::new(StoreWriter::open(&path).expect("open"));
        let sink = StoreSink::new(Arc::clone(&writer), "demo", false);
        // Two annotated front members and one unannotated evaluation.
        sink.annotate_front(&DesignCandidate {
            mlp: mlp(0b1111),
            train_accuracy: 0.95,
            test_accuracy: 0.93,
            estimated_area: 20.0,
        });
        sink.annotate_front(&DesignCandidate {
            mlp: mlp(0b0001),
            train_accuracy: 0.82,
            test_accuracy: 0.80,
            estimated_area: 5.0,
        });
        sink.record_evaluation(&mlp(0b0111), 0.5, None, 9.0);
        drop(sink);

        let store = DesignStore::load(&path).expect("load");
        let scenario = CostScenario::default();
        let model = ExactCostModel::new(scenario.clone());
        let front = store_front(&store, "demo", &model);
        assert_eq!(front.len(), 2, "only annotated designs reach the front");
        assert!(front[0].report.area_cm2 <= front[1].report.area_cm2);

        // Tight budget: the accurate design; loose budget: the small
        // one — the exact select_within_budgets behavior.
        let tight = select_from_store(&store, "demo", scenario.clone(), 0.93, 0.05, None)
            .expect("accurate design qualifies");
        assert_eq!(tight.test_accuracy, 0.93);
        let loose = select_from_store(&store, "demo", scenario, 0.93, 0.20, None)
            .expect("small design qualifies");
        assert_eq!(loose.test_accuracy, 0.80);
        let _ = std::fs::remove_file(&path);
    }
}
