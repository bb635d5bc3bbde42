//! The GA's area objective is the reported cost: for random genomes of
//! every Table I genome layout, [`AxTrainProblem::gate_equivalents`]
//! equals the gate equivalents of the [`ExactCostModel`] report of the
//! decoded network's hardware, less the shared tie cells, which the
//! objective leaves out.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pe_datasets::Dataset;
use pe_hw::{Cell, CostScenario, ExactCostModel};
use pe_mlp::{ax_to_hardware, DenseMlp, FixedMlp, QuantConfig, QuantMatrix, Topology};
use pe_nsga::random_genome;
use printed_axc::{AxTrainConfig, AxTrainProblem, HwAwareTrainer};

#[test]
fn gate_equivalents_equal_the_reported_cost() {
    let cfg = AxTrainConfig::default();
    let trainer = HwAwareTrainer::new(cfg.clone());
    let quant = QuantConfig {
        input_bits: cfg.input_bits,
        activation_bits: cfg.activation_bits,
        ..QuantConfig::default()
    };
    let model = ExactCostModel::new(CostScenario::default());
    let tech = &model.scenario().tech;
    let mut rng = StdRng::seed_from_u64(0x6a7e_0b1e);
    let mut folded = 0;
    for dataset in Dataset::ALL {
        let spec = dataset.spec();
        // The genome layout the pipeline derives from a quantized
        // baseline of this topology.
        let float = DenseMlp::random(Topology::new(spec.topology()), 7);
        let calibration = vec![vec![1.0f32; spec.features], vec![0.0; spec.features]];
        let genome = trainer.genome_spec_for(&FixedMlp::quantize(&float, quant, &calibration));
        let rows = QuantMatrix::from_rows(&[vec![0u8; spec.features]]);
        let problem = AxTrainProblem::new(genome.clone(), rows, vec![0], 1.0, 1.0);
        for i in 0..300 {
            let mut mlp = genome.decode(&random_genome(genome.bounds(), &mut rng));
            if i % 3 == 0 {
                // A fully masked hidden neuron is a constant, so both
                // sides fold it into the next layer's biases.
                let hidden = &mut mlp.layers[0];
                assert!(hidden.qrelu.is_some(), "{}", spec.name);
                let n = rng.gen_range(0..hidden.neurons.len());
                for w in &mut hidden.neurons[n].weights {
                    w.mask = 0;
                }
                folded += 1;
            }
            let objective = problem.gate_equivalents(&mlp);
            let cells = model.costed(&ax_to_hardware(&mlp, "probe")).report.cells;
            let ties = f64::from(cells.get(Cell::TieHi)) * tech.ge(Cell::TieHi)
                + f64::from(cells.get(Cell::TieLo)) * tech.ge(Cell::TieLo);
            let reported = tech.ge_total(&cells) - ties;
            assert!(
                (objective - reported).abs() <= 1e-12 * reported,
                "{} genome {i}: objective {objective} GE, report {reported} GE",
                spec.name
            );
        }
    }
    assert_eq!(folded, 500);
}
