//! Crash-safety property: resuming a search from *any* persisted
//! checkpoint reproduces the uninterrupted run bit-exactly — Pareto
//! front, final population and evaluation counter — regardless of how
//! many evaluation workers the batch path uses (the thread budget a
//! resumed process runs under need not match the crashed one's).

use std::cell::RefCell;

use proptest::prelude::*;

use printed_mlps::axc::BatchEvaluator;
use printed_mlps::nsga::{
    CheckpointPlan, CheckpointSink, Evaluation, IntProblem, Nsga2, NsgaConfig, NsgaResult,
    SearchCheckpoint,
};

/// A deterministic two-objective toy problem with a genuine trade-off
/// (minimize the gene sum vs. the distance from a per-gene target), so
/// fronts hold several mutually non-dominated points.
struct Ridge {
    bounds: Vec<u32>,
}

impl IntProblem for Ridge {
    fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    fn evaluate(&self, genes: &[u32]) -> Evaluation {
        let sum: f64 = genes.iter().map(|&g| f64::from(g)).sum();
        let miss: f64 = genes
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                let target = f64::from(self.bounds[i] - 1) * 0.7 + i as f64;
                (f64::from(g) - target).powi(2)
            })
            .sum();
        Evaluation::feasible(vec![sum, miss.sqrt()])
    }
}

/// In-memory sink capturing every snapshot in emission order.
#[derive(Default)]
struct Capture(RefCell<Vec<SearchCheckpoint>>);

impl CheckpointSink for Capture {
    fn save(&self, checkpoint: &SearchCheckpoint) {
        self.0.borrow_mut().push(checkpoint.clone());
    }
}

/// One full run at the given worker count, capturing a checkpoint
/// after every generation (`every == 1` maximizes resume coverage).
fn run_capturing(cfg: &NsgaConfig, threads: usize) -> (NsgaResult, Vec<SearchCheckpoint>) {
    let problem = BatchEvaluator::with_threads(
        Ridge {
            bounds: vec![48; 5],
        },
        threads,
    );
    let sink = Capture::default();
    let plan = CheckpointPlan {
        every: 1,
        sink: &sink,
    };
    let result =
        Nsga2::new(cfg.clone()).run_checkpointed(&problem, Vec::new(), None, Some(plan), |_| true);
    (result, sink.0.into_inner())
}

/// Resume from `checkpoint` (after a persistence round-trip through
/// JSON, like the pipeline's on-disk file) at the given worker count.
fn resume(cfg: &NsgaConfig, checkpoint: &SearchCheckpoint, threads: usize) -> NsgaResult {
    let problem = BatchEvaluator::with_threads(
        Ridge {
            bounds: vec![48; 5],
        },
        threads,
    );
    let json = serde_json::to_string(checkpoint).expect("checkpoint serializes");
    let restored: SearchCheckpoint = serde_json::from_str(&json).expect("checkpoint parses");
    restored
        .validate(cfg, problem.bounds())
        .expect("round-tripped checkpoint is valid");
    Nsga2::new(cfg.clone()).run_checkpointed(&problem, Vec::new(), Some(restored), None, |_| true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every checkpoint index of a seeded run resumes to the
    /// uninterrupted result, bit for bit, at one worker and at eight —
    /// in every crash×resume thread-budget combination.
    #[test]
    fn resuming_from_every_checkpoint_is_bit_exact_across_thread_budgets(
        seed in any::<u64>(),
        population in 8usize..14,
        generations in 4usize..8,
    ) {
        let cfg = NsgaConfig {
            population,
            generations,
            seed,
            ..NsgaConfig::default()
        };

        let (serial, serial_cps) = run_capturing(&cfg, 1);
        let (threaded, threaded_cps) = run_capturing(&cfg, 8);
        // The batch evaluator's worker count is invisible to the
        // search: both baselines and their checkpoint streams agree.
        prop_assert_eq!(&serial, &threaded);
        prop_assert_eq!(&serial_cps, &threaded_cps);
        prop_assert_eq!(serial_cps.len(), generations);

        for checkpoint in &serial_cps {
            for threads in [1, 8] {
                let resumed = resume(&cfg, checkpoint, threads);
                prop_assert_eq!(&resumed.pareto_front, &serial.pareto_front);
                prop_assert_eq!(&resumed.population, &serial.population);
                prop_assert_eq!(resumed.evaluations, serial.evaluations);
                prop_assert_eq!(resumed.generations, serial.generations);
            }
        }
    }
}

/// The counter invariant the pipeline's resume path relies on:
/// a checkpoint after `g` completed generations accounts for the
/// initial population plus `g` offspring waves.
#[test]
fn checkpoint_counters_track_completed_generations() {
    let cfg = NsgaConfig {
        population: 10,
        generations: 6,
        seed: 77,
        ..NsgaConfig::default()
    };
    let (_, checkpoints) = run_capturing(&cfg, 1);
    assert_eq!(checkpoints.len(), 6);
    for (index, checkpoint) in checkpoints.iter().enumerate() {
        assert_eq!(checkpoint.generation, index + 1);
        assert_eq!(
            checkpoint.evaluations,
            ((index + 2) * cfg.population) as u64
        );
        assert_eq!(checkpoint.history.len(), checkpoint.generation);
    }
}
