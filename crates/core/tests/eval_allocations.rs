//! The GA evaluation path's heap allocations, counted. Once its
//! per-thread scratch has grown, `AxTrainProblem::evaluate` allocates
//! exactly once per genome — the objectives vector of the `Evaluation`
//! it returns — however many rows, neurons or layers the network has.
//! Once their spare columns have grown, the resident trials of doped
//! refinement and memetic polish (`columnar::ResidentPass`) allocate
//! nothing.
//!
//! The genomes are random, and the shapes with `dead` set zero every
//! mask of their first hidden neuron: the area objective prices such a
//! constant neuron folded into the next layer without building the
//! folded network. The shape with 32 hidden neurons gives every genome
//! an output layer whose accumulator ranges leave `i16`, which the pair
//! kernels' argmax sums on `i32` lanes: its biases and partial sums take
//! twice the buffers, which must also grow once and never again.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pe_mlp::columnar::{fits_i32, layer_fits_i16, ResidentPass};
use pe_mlp::{AxMlp, AxNeuron, ColumnLabels, QReluCfg, QuantMatrix};
use pe_nsga::{random_genome, IntProblem};
use printed_axc::{AxTrainProblem, GenomeSpec, LayerGenomeSpec};

/// The system allocator, counting the allocations (and reallocations)
/// each thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a const-initialized thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `rows` samples of `width` 4-bit features and their 3-class labels.
fn data(rows: usize, width: usize) -> (QuantMatrix, Vec<usize>) {
    let data: Vec<Vec<u8>> = (0..rows)
        .map(|s| (0..width).map(|f| ((s * 7 + f * 5) % 16) as u8).collect())
        .collect();
    let labels = (0..rows).map(|s| s % 3).collect();
    (QuantMatrix::from_rows(&data), labels)
}

/// A problem over [`data`], with one QReLU layer per entry of `hidden`
/// and a 3-class argmax layer.
fn problem(rows: usize, width: usize, hidden: &[usize]) -> AxTrainProblem {
    let qrelu = QReluCfg {
        out_bits: 8,
        shift: 2,
    };
    let mut layers = Vec::new();
    let mut fan_in = width;
    let mut input_bits = 4;
    for &neurons in hidden {
        layers.push(LayerGenomeSpec {
            fan_in,
            neurons,
            input_bits,
            qrelu: Some(qrelu),
        });
        (fan_in, input_bits) = (neurons, qrelu.out_bits);
    }
    layers.push(LayerGenomeSpec {
        fan_in,
        neurons: 3,
        input_bits,
        qrelu: None,
    });
    let (data, labels) = data(rows, width);
    AxTrainProblem::new(GenomeSpec::new(layers, 8, 8), data, labels, 0.9, 0.1)
}

/// `count` random genomes; with `dead`, the first hidden neuron of each
/// has every mask zeroed, so it is a constant.
fn genomes(problem: &AxTrainProblem, count: usize, seed: u64, dead: bool) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = problem.genome_spec();
    (0..count)
        .map(|_| {
            let genes = random_genome(problem.bounds(), &mut rng);
            if !dead {
                return genes;
            }
            let mut mlp = spec.decode(&genes);
            for w in &mut mlp.layers[0].neurons[0].weights {
                w.mask = 0;
            }
            spec.encode(&mlp)
        })
        .collect()
}

/// (rows, features, hidden layers, a constant first hidden neuron,
/// output layers whose argmax sums on `i32` lanes): more rows, more
/// neurons, more layers, a narrow-then-wide hidden stack, constant
/// neurons folded into one and two layers, and an output layer off
/// `i16` lanes in every genome.
const SHAPES: [(usize, usize, &[usize], bool, bool); 8] = [
    (40, 4, &[2], false, false),
    (400, 4, &[2], false, false),
    (400, 9, &[5], false, false),
    (400, 6, &[4, 3], false, false),
    (120, 5, &[2, 6, 3], false, false),
    (400, 11, &[4], true, false),
    (120, 5, &[3, 4], true, false),
    (400, 4, &[32], false, true),
];

/// Whether `mlp`'s output layer takes the pair kernels' argmax on `i32`
/// lanes: its ranges leave `i16`, and every neuron fits `i32` with
/// every live shift at most 6.
fn argmax_on_i32_lanes(mlp: &AxMlp) -> bool {
    let out = mlp.layers.last().expect("an output layer");
    let shifts = |n: &AxNeuron| n.weights.iter().all(|w| w.mask & 0xFF == 0 || w.shift <= 6);
    !layer_fits_i16(out) && out.neurons.iter().all(|n| fits_i32(n) && shifts(n))
}

#[test]
fn a_warm_evaluation_allocates_only_its_objectives() {
    for (rows, width, hidden, dead, wide) in SHAPES {
        let problem = problem(rows, width, hidden);
        let warm_up = genomes(&problem, 4, 1, dead);
        let fresh = genomes(&problem, 25, 2, dead);
        let mut evaluations = Vec::with_capacity(fresh.len());
        for genes in &warm_up {
            let _ = problem.evaluate(genes);
        }
        let allocations = allocations_in(|| {
            for genes in &fresh {
                evaluations.push(problem.evaluate(genes));
            }
        });
        assert_eq!(
            allocations,
            fresh.len() as u64,
            "{rows} rows, {width} features, hidden {hidden:?}: {allocations} allocations \
             over {} evaluations",
            fresh.len()
        );
        assert!(evaluations.iter().all(|e| e.objectives.len() == 2));
        let spec = problem.genome_spec();
        let on_i32 = fresh
            .iter()
            .filter(|genes| argmax_on_i32_lanes(&spec.decode(genes)))
            .count();
        assert_eq!(
            on_i32,
            if wide { fresh.len() } else { 0 },
            "{rows} rows, {width} features, hidden {hidden:?}: output layers on i32 lanes"
        );
    }
}

/// One sweep of refinement-style trials over every neuron: a bias step
/// tried and undone, then a shift step tried, kept, and taken back by a
/// second trial.
fn sweep(mlp: &mut AxMlp, pass: &mut ResidentPass) {
    for li in 0..mlp.layers.len() {
        for ni in 0..mlp.layers[li].neurons.len() {
            mlp.layers[li].neurons[ni].bias += 1;
            let _ = pass.trial(mlp, li, ni);
            mlp.layers[li].neurons[ni].bias -= 1;
            pass.undo();
            mlp.layers[li].neurons[ni].weights[0].shift += 1;
            let _ = pass.trial(mlp, li, ni);
            mlp.layers[li].neurons[ni].weights[0].shift -= 1;
            let _ = pass.trial(mlp, li, ni);
        }
    }
}

#[test]
fn a_warm_sweep_of_resident_trials_allocates_nothing() {
    for (rows, width, hidden, dead, wide) in SHAPES {
        let problem = problem(rows, width, hidden);
        let (data, labels) = data(rows, width);
        let mut mlp = problem
            .genome_spec()
            .decode(&genomes(&problem, 1, 3, dead)[0]);
        assert_eq!(argmax_on_i32_lanes(&mlp), wide, "hidden {hidden:?}");
        let mut pass = ResidentPass::new(data.columns(), ColumnLabels::new(labels));
        let hits = pass.run(&mlp);
        sweep(&mut mlp, &mut pass);
        let allocations = allocations_in(|| sweep(&mut mlp, &mut pass));
        assert_eq!(
            allocations, 0,
            "{rows} rows, {width} features, hidden {hidden:?}: {allocations} allocations"
        );
        assert_eq!(
            pass.run(&mlp),
            hits,
            "the sweeps leave the network as it was"
        );
    }
}
