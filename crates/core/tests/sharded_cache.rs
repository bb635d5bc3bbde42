//! The sharded neuron-column cache is semantically transparent: a
//! search run against a 1-shard, 4-shard or 16-shard cache — serial or
//! through the parallel batch evaluator — produces **byte-identical**
//! search artifacts (serialized populations, fronts and evaluation
//! counts), because sharding only changes which lock guards a column,
//! never what the column holds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use pe_mlp::{QReluCfg, QuantMatrix};
use pe_nsga::{random_genome, Evaluation, IntProblem, Nsga2, NsgaConfig};
use printed_axc::eval::BatchEvaluator;
use printed_axc::{AxTrainProblem, GenomeSpec, LayerGenomeSpec};

/// Every shard count under test (the clamp rounds up to powers of two,
/// so these exercise the single-lock degenerate case, the default
/// neighborhood and a wide split).
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// A small two-hidden-layer problem over a deterministic dataset.
fn problem(shards: usize) -> AxTrainProblem {
    let qrelu = QReluCfg {
        out_bits: 5,
        shift: 1,
    };
    let spec = GenomeSpec::new(
        vec![
            LayerGenomeSpec {
                fan_in: 3,
                neurons: 4,
                input_bits: 4,
                qrelu: Some(qrelu),
            },
            LayerGenomeSpec {
                fan_in: 4,
                neurons: 3,
                input_bits: qrelu.out_bits,
                qrelu: Some(qrelu),
            },
            LayerGenomeSpec {
                fan_in: 3,
                neurons: 3,
                input_bits: qrelu.out_bits,
                qrelu: None,
            },
        ],
        6,
        8,
    );
    let rows: Vec<Vec<u8>> = (0..48u8)
        .map(|v| vec![v & 0xF, v.wrapping_mul(7) & 0xF, v.wrapping_mul(3) & 0xF])
        .collect();
    let labels: Vec<usize> = (0..48).map(|v| v % 3).collect();
    AxTrainProblem::new(spec, QuantMatrix::from_rows(&rows), labels, 0.8, 0.2)
        .with_column_shards(shards)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A full NSGA-II search serializes byte-identically at every
    /// shard count, and the per-shard counters always reconcile with
    /// the aggregate stats.
    #[test]
    fn searched_artifacts_are_byte_identical_across_shard_counts(seed in any::<u64>()) {
        let cfg = NsgaConfig {
            population: 8,
            generations: 5,
            seed,
            ..NsgaConfig::default()
        };
        let mut reference: Option<String> = None;
        for shards in SHARD_COUNTS {
            let problem = problem(shards);
            let outcome = Nsga2::new(cfg.clone()).run(&problem);
            let stats = problem.column_cache_stats();
            prop_assert_eq!(stats.shards, shards);
            let artifact = serde_json::to_string(&(
                &outcome.population,
                &outcome.pareto_front,
                outcome.evaluations,
            ))
            .expect("search artifacts serialize");
            match &reference {
                None => reference = Some(artifact),
                Some(want) => prop_assert_eq!(
                    want,
                    &artifact,
                    "{} shards diverged from {} shards",
                    shards,
                    SHARD_COUNTS[0]
                ),
            }
        }
    }

    /// The parallel batch evaluator sees the same transparency: any
    /// shard count × any worker count reproduces the serial
    /// single-shard evaluations exactly.
    #[test]
    fn batch_evaluations_match_across_shards_and_threads(
        seed in any::<u64>(),
        threads in 1usize..6,
    ) {
        let serial = problem(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let pop: Vec<Vec<u32>> = (0..12)
            .map(|_| random_genome(serial.bounds(), &mut rng))
            .collect();
        let expected: Vec<Evaluation> = pop.iter().map(|g| serial.evaluate(g)).collect();
        for shards in SHARD_COUNTS {
            let sharded = problem(shards);
            let evaluator = BatchEvaluator::with_threads(&sharded, threads);
            prop_assert_eq!(evaluator.evaluate_batch(&pop), expected.clone()); // cold
            prop_assert_eq!(evaluator.evaluate_batch(&pop), expected.clone()); // warm
        }
    }
}
