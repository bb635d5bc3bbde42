//! Parity properties of the columnar fitness engine: for random
//! genomes × random [`QuantMatrix`] datasets, the columnar path behind
//! [`AxTrainProblem`]'s `evaluate`/`evaluate_batch`/`score` must be
//! **bit-exact** with the per-row reference oracle
//! (`score_with`, i.e. one `predict_with` per sample), and an NSGA-II
//! run on the columnar path must preserve fronts, populations and the
//! `evaluations` count versus the serial row-oracle problem.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use pe_datasets::Dataset;
use pe_mlp::columnar::{accuracy_columns, layer_fits_i16};
use pe_mlp::{DenseMlp, FixedMlp, InferenceScratch, QReluCfg, QuantConfig, QuantMatrix, Topology};
use pe_nsga::{random_genome, Evaluation, IntProblem, Nsga2, NsgaConfig};
use printed_axc::{
    AreaObjective, AxTrainConfig, AxTrainProblem, GenomeSpec, HwAwareTrainer, LayerGenomeSpec,
};

/// The row-major reference problem: identical feasibility formula, but
/// scoring goes through the per-row oracle instead of the columnar
/// engine.
struct RowOracle<'a> {
    problem: &'a AxTrainProblem,
}

impl IntProblem for RowOracle<'_> {
    fn bounds(&self) -> &[u32] {
        self.problem.bounds()
    }

    fn evaluate(&self, genes: &[u32]) -> Evaluation {
        let mlp = self.problem.genome_spec().decode(genes);
        let (accuracy, area) = self.problem.score_with(&mlp, &mut InferenceScratch::new());
        self.problem.evaluation_of(accuracy, area)
    }
}

/// Build a (spec, dataset, labels) triple from raw random material:
/// a one- or two-hidden-layer genome spec whose first fan-in matches
/// the dataset width, and samples masked into the input range.
fn build_case(
    width: usize,
    input_bits: u32,
    hidden: usize,
    classes: usize,
    deep: bool,
    raw_rows: &[Vec<u8>],
    raw_labels: &[usize],
) -> (GenomeSpec, QuantMatrix, Vec<usize>) {
    let qrelu = QReluCfg {
        out_bits: 5,
        shift: 1,
    };
    let mut layers = vec![LayerGenomeSpec {
        fan_in: width,
        neurons: hidden,
        input_bits,
        qrelu: Some(qrelu),
    }];
    if deep {
        layers.push(LayerGenomeSpec {
            fan_in: hidden,
            neurons: hidden,
            input_bits: qrelu.out_bits,
            qrelu: Some(qrelu),
        });
    }
    layers.push(LayerGenomeSpec {
        fan_in: hidden,
        neurons: classes,
        input_bits: qrelu.out_bits,
        qrelu: None,
    });
    let spec = GenomeSpec::new(layers, 6, 8);
    let mask = ((1u16 << input_bits) - 1) as u8;
    let rows: Vec<Vec<u8>> = raw_rows
        .iter()
        .map(|r| (0..width).map(|f| r[f % r.len()] & mask).collect())
        .collect();
    let labels: Vec<usize> = raw_labels.iter().map(|&l| l % classes).collect();
    (spec, QuantMatrix::from_rows(&rows), labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Columnar ≡ per-row scoring, exactly: objectives, feasibility and
    /// violations of `evaluate`, `evaluate_batch` and `score` all match
    /// the row oracle bit for bit, for random genomes over random
    /// datasets — including repeated evaluations on warm per-thread
    /// scratch.
    #[test]
    fn columnar_scoring_is_bit_exact_with_the_row_oracle(
        seed in any::<u64>(),
        width in 1usize..5,
        input_bits in 2u32..5,
        hidden in 1usize..4,
        classes in 2usize..4,
        // Bit 0: two hidden layers; bit 1: FA-count objective.
        variant in 0u8..4,
        raw_rows in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..6), 1..30),
        raw_labels in proptest::collection::vec(0usize..64, 30),
    ) {
        let deep = variant & 1 != 0;
        let (spec, rows, labels) = build_case(
            width, input_bits, hidden, classes, deep, &raw_rows,
            &raw_labels[..raw_rows.len()],
        );
        let objective = if variant & 2 == 0 {
            AreaObjective::GateEquivalents
        } else {
            AreaObjective::FaCount
        };
        let problem = AxTrainProblem::new(spec, rows.clone(), labels.clone(), 0.9, 0.1)
            .with_objective(objective);
        let oracle = RowOracle { problem: &problem };

        let mut rng = StdRng::seed_from_u64(seed);
        let pop: Vec<Vec<u32>> = (0..8)
            .map(|_| random_genome(problem.bounds(), &mut rng))
            .collect();

        let expected: Vec<Evaluation> = pop.iter().map(|g| oracle.evaluate(g)).collect();
        for (genes, want) in pop.iter().zip(&expected) {
            prop_assert_eq!(&problem.evaluate(genes), want);
            prop_assert_eq!(&problem.evaluate(genes), want); // again, on warm scratch
        }
        // The native batch path agrees too.
        prop_assert_eq!(problem.evaluate_batch(&pop), expected);

        // `score` (columnar) ≡ `score_with` (row oracle) ≡ the
        // standalone columnar kernel in pe-mlp.
        let mlp = problem.genome_spec().decode(&pop[0]);
        let (acc_col, area_col) = problem.score(&mlp);
        let (acc_row, area_row) =
            problem.score_with(&mlp, &mut InferenceScratch::new());
        prop_assert_eq!(acc_col.to_bits(), acc_row.to_bits());
        prop_assert_eq!(area_col.to_bits(), area_row.to_bits());
        prop_assert_eq!(
            accuracy_columns(&mlp, &rows.columns(), &labels).to_bits(),
            acc_row.to_bits()
        );
    }

    /// An NSGA-II run whose fitness goes through the columnar path
    /// reproduces the serial row-oracle run exactly: same final
    /// population, same Pareto front, same `evaluations` count.
    #[test]
    fn nsga_run_on_the_columnar_path_preserves_fronts_and_counts(
        seed in any::<u64>(),
        deep in any::<bool>(),
    ) {
        let raw_rows: Vec<Vec<u8>> = (0..24u8).map(|v| vec![v, v.wrapping_mul(7)]).collect();
        let raw_labels: Vec<usize> = (0..24).map(|v| v % 3).collect();
        let (spec, rows, labels) =
            build_case(2, 4, 3, 3, deep, &raw_rows, &raw_labels);
        let problem = AxTrainProblem::new(spec, rows, labels, 0.8, 0.2);
        let oracle = RowOracle { problem: &problem };

        let cfg = NsgaConfig {
            population: 10,
            generations: 6,
            seed,
            ..NsgaConfig::default()
        };
        let columnar = Nsga2::new(cfg.clone()).run(&problem);
        let rowwise = Nsga2::new(cfg).run(&oracle);

        prop_assert_eq!(&columnar.population, &rowwise.population);
        prop_assert_eq!(&columnar.pareto_front, &rowwise.pareto_front);
        prop_assert_eq!(columnar.evaluations, rowwise.evaluations);
        prop_assert_eq!(columnar.evaluations, 10 + 6 * 10);
    }
}

/// Every hidden layer the paper's genomes can encode runs on the `i16`
/// rung. For each Table I topology at the default [`AxTrainConfig`],
/// the worst-case genomes (full masks, `k = 6`, every sign alike and
/// the bias at −2048 or +2047) keep every hidden neuron's accumulator
/// range inside `i16`, and the forward pass scores them, and a
/// mixed-sign genome at the same masks and shifts, as the row oracle
/// does. A config change that pushes a hidden neuron out of the range
/// fails here, by topology.
#[test]
fn every_table_i_hidden_layer_takes_the_i16_rung() {
    let cfg = AxTrainConfig::default();
    let trainer = HwAwareTrainer::new(cfg.clone());
    let quant = QuantConfig {
        input_bits: cfg.input_bits,
        activation_bits: cfg.activation_bits,
        ..QuantConfig::default()
    };
    for dataset in Dataset::ALL {
        let spec = dataset.spec();
        let topology = spec.topology();
        let name = format!("{} {topology:?}", spec.name);
        // The genome layout the pipeline derives from a quantized
        // baseline of this topology.
        let float = DenseMlp::random(Topology::new(topology.clone()), 7);
        let calibration = vec![vec![1.0f32; spec.features], vec![0.0; spec.features]];
        let genome = trainer.genome_spec_for(&FixedMlp::quantize(&float, quant, &calibration));
        let rows: Vec<Vec<u8>> = (0..2000)
            .map(|r| match r {
                0 => vec![15; spec.features],
                _ => (0..spec.features)
                    .map(|f| ((r * 7 + f * 3) % 16) as u8)
                    .collect(),
            })
            .collect();
        let labels: Vec<usize> = (0..rows.len()).map(|r| r % spec.classes).collect();
        let problem = AxTrainProblem::new(
            genome.clone(),
            QuantMatrix::from_rows(&rows),
            labels,
            1.0,
            1.0,
        );
        // The two worst cases, every hidden sign alike with the bias at
        // +2047 or −2048, and a genome of mixed hidden signs, whose
        // activations vary with the rows instead of saturating. The
        // output layer mixes signs and biases, so that its argmax, and
        // with it the hit count, depends on the hidden activations.
        for case in [Some(false), Some(true), None] {
            let mut genes = Vec::with_capacity(genome.gene_count());
            for layer in genome.layers() {
                let hidden = layer.qrelu.is_some();
                for n in 0..layer.neurons {
                    for w in 0..layer.fan_in {
                        let full_mask = (1 << layer.input_bits) - 1;
                        let sign = match (hidden, case) {
                            (true, Some(negative)) => negative,
                            _ => (n + w) % 2 == 1,
                        };
                        genes.extend([full_mask, u32::from(sign), cfg.weight_bits - 2]);
                    }
                    genes.push(match (hidden, case) {
                        (true, Some(true)) => 0,
                        (true, Some(false)) => (1 << cfg.bias_bits) - 1,
                        (true, None) => 1 << (cfg.bias_bits - 1),
                        (false, _) => (n as u32 * 1237) % (1 << cfg.bias_bits),
                    });
                }
            }
            let mlp = genome.decode(&genes);
            // −2048, +2047 and 0 at the default 12-bit biases.
            let half = 1 << (cfg.bias_bits - 1);
            let (bias, label) = match case {
                Some(true) => (-half, "all negative"),
                Some(false) => (half - 1, "all positive"),
                None => (0, "mixed signs"),
            };
            let neuron = &mlp.layers[0].neurons[0];
            assert_eq!(neuron.bias, bias, "{name}");
            assert_eq!(neuron.weights[0].shift, cfg.max_shift(), "{name}");
            for (li, layer) in mlp.layers.iter().enumerate() {
                if layer.qrelu.is_some() {
                    assert!(
                        layer_fits_i16(layer),
                        "{name}: hidden layer {li} leaves the i16 rung ({label})"
                    );
                }
            }
            let (columnar, _) = problem.score(&mlp);
            let (oracle, _) = problem.score_with(&mlp, &mut InferenceScratch::new());
            assert_eq!(
                columnar.to_bits(),
                oracle.to_bits(),
                "{name}: hits differ from the row oracle's ({label})"
            );
        }
    }
}
