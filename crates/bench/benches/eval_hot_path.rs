//! The GA evaluation hot path: per-row oracle scoring vs the columnar
//! engine with the population-level neuron-column cache, plus the
//! batched/memoized evaluation core on top, and a raw race of the
//! scalar reference kernel against the SIMD accumulator.
//!
//! Run with `cargo bench -p pe-bench --bench eval_hot_path`. Besides
//! the Criterion timings it writes `target/experiments/BENCH_eval.json`
//! with evaluations/sec for four regimes — the per-row reference
//! oracle, the columnar serial loop, cold batched-parallel waves, and
//! a GA-shaped generation stream where elitist duplicates hit the
//! genome memo and mutated siblings hit the neuron-column cache — so
//! CI can track the speedup of the columnar engine over the naive
//! loop. The `ga_stream_memoized_evals_per_sec` field is directly
//! comparable across revisions (same shape, same seeds). `PE_THREADS`
//! sets the evaluator worker budget, like the bench bins.

use std::rc::Rc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use serde::Serialize;

use pe_bench::Knobs;
use pe_datasets::{generate, quantize, stratified_split, Dataset, QuantMatrix};
use pe_mlp::columnar::{
    accumulate_neuron_column_narrow_scalar, accuracy_columns, fits_i32, hidden_column,
};
use pe_mlp::TrainConfig;
use pe_mlp::{AxMlp, AxNeuron, FixedMlp, InferenceScratch, KernelKind, QuantConfig, Topology};
use pe_nsga::{random_genome, Evaluation, IntProblem};
use printed_axc::eval::{CachedEvaluator, GENOME_CACHE_CAPACITY};
use printed_axc::{AxTrainConfig, AxTrainProblem, GenomeSpec, HwAwareTrainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything the regimes need to build (and rebuild) the fitness
/// problem: the genome layout and the subsampled training rows.
struct Setup {
    genome_spec: GenomeSpec,
    rows: QuantMatrix,
    labels: Vec<usize>,
    baseline_acc: f64,
    doped: AxMlp,
    population: Vec<Vec<u32>>,
}

impl Setup {
    /// A fresh problem with a **cold** neuron-column cache.
    fn problem(&self) -> AxTrainProblem {
        AxTrainProblem::new(
            self.genome_spec.clone(),
            self.rows.clone(),
            self.labels.clone(),
            self.baseline_acc,
            0.10,
        )
    }
}

/// A realistic fitness problem (the Pendigits study's shape) plus a
/// population of genomes around the doped seed.
fn setup() -> Setup {
    let spec = Dataset::Pendigits.spec();
    let data = generate(Dataset::Pendigits, 0);
    let split = stratified_split(&data, 0.7, 0).expect("valid fraction");
    let sgd = TrainConfig {
        epochs: 5,
        seed: 0,
        ..TrainConfig::default()
    };
    let (mlp, _) = pe_mlp::train::train_best_of(
        &Topology::new(spec.topology()),
        &split.train.features,
        &split.train.labels,
        &sgd,
        1,
    );
    let fixed = FixedMlp::quantize(&mlp, QuantConfig::default(), &split.train.features);
    let train_q = quantize(&split.train, 4);

    let config = AxTrainConfig::default();
    let genome_spec = HwAwareTrainer::new(config.clone()).genome_spec_for(&fixed);
    let n = train_q.len().min(400);
    let rows = train_q.features.head(n);
    let labels = train_q.labels[..n].to_vec();
    let baseline_acc = fixed.accuracy(&rows, &labels);
    let doped = AxMlp::from_fixed(&fixed, config.max_shift(), config.bias_bits);

    // Population: the doped seed plus random genomes, as generation 0
    // of a real run would contain.
    let mut rng = StdRng::seed_from_u64(7);
    let mut population = vec![genome_spec.encode(&doped)];
    while population.len() < 32 {
        population.push(random_genome(genome_spec.bounds(), &mut rng));
    }
    Setup {
        genome_spec,
        rows,
        labels,
        baseline_acc,
        doped,
        population,
    }
}

/// The pre-columnar evaluation algorithm, kept as the measurable
/// reference oracle: decode, then score with one `predict_with` per
/// sample (`AxTrainProblem::score_with`).
struct RowOracle<'a> {
    problem: &'a AxTrainProblem,
}

impl IntProblem for RowOracle<'_> {
    fn bounds(&self) -> &[u32] {
        self.problem.bounds()
    }

    fn evaluate(&self, genes: &[u32]) -> Evaluation {
        thread_local! {
            static SCRATCH: std::cell::RefCell<InferenceScratch> =
                std::cell::RefCell::new(InferenceScratch::new());
        }
        let mlp = self.problem.genome_spec().decode(genes);
        let (accuracy, area) = SCRATCH.with(|s| self.problem.score_with(&mlp, &mut s.borrow_mut()));
        self.problem.evaluation_of(accuracy, area)
    }
}

/// Mutate ~2% of each genome's genes in place — the per-generation
/// churn an elitist GA produces (most neurons survive unchanged, many
/// genomes recur verbatim).
fn drift(population: &mut [Vec<u32>], bounds: &[u32], rng: &mut StdRng) {
    for genome in population.iter_mut() {
        if rng.gen_bool(0.3) {
            continue; // elitist survivor: resubmitted verbatim
        }
        for (g, &b) in genome.iter_mut().zip(bounds) {
            if rng.gen_bool(0.02) {
                *g = rng.gen_range(0..b);
            }
        }
    }
}

/// One raw-kernel timing: every neuron of the doped network
/// accumulated over its real input columns, no caches.
#[derive(Debug, Serialize)]
struct KernelEntry {
    /// Kernel name (`scalar` / `simd`).
    kernel: String,
    /// Whether the kernel is built here (`simd` is `false` on non-x86
    /// targets and `--no-default-features` builds, where its row
    /// reports the scalar fallback).
    available: bool,
    /// Samples pushed through every neuron's accumulation per second
    /// (samples × passes / time).
    raw_kernel_evals_per_sec: f64,
    /// Accumulators identical to the scalar reference kernel's.
    matches_scalar: bool,
}

/// One point of the thread-scaling curve: the GA-shaped generation
/// stream re-run with an explicit evaluator worker count.
#[derive(Serialize)]
struct ThreadScalingEntry {
    threads: usize,
    ga_stream_evals_per_sec: f64,
    speedup_vs_one_thread: f64,
    /// All evaluations identical to the single-thread run
    /// (serialized and compared byte-for-byte).
    byte_identical_to_one_thread: bool,
}

#[derive(Serialize)]
struct EvalBenchReport {
    threads: usize,
    population: usize,
    generation_rounds: usize,
    /// The column kernel this build runs (`simd` where the explicit
    /// x86_64 kernels are built, `scalar` elsewhere).
    kernel_mode: String,
    /// Shards the neuron-column cache was split across.
    column_shards: usize,
    /// Column-cache probes that hit a contended shard lock.
    column_contended: u64,
    /// The pre-columnar per-row algorithm (reference oracle).
    row_oracle_evals_per_sec: f64,
    /// Columnar engine, one genome at a time (column cache warms
    /// within the regime).
    serial_evals_per_sec: f64,
    /// Cold batched-parallel waves: fresh genome memo *and* fresh
    /// column cache every round.
    batch_cold_evals_per_sec: f64,
    /// GA-shaped generation stream: persistent genome memo + column
    /// cache across drifting waves.
    ga_stream_memoized_evals_per_sec: f64,
    speedup_batch_cold_vs_serial: f64,
    speedup_ga_stream_vs_serial: f64,
    speedup_ga_stream_vs_row_oracle: f64,
    cache_hits: u64,
    cache_misses: u64,
    column_hits: u64,
    column_misses: u64,
    /// Raw accumulation throughput of the scalar reference and the
    /// SIMD kernel ([`KernelKind`]).
    kernels: Vec<KernelEntry>,
    /// GA-stream throughput at explicit worker counts (1 → 32), each
    /// proven byte-identical to the single-thread run.
    thread_scaling: Vec<ThreadScalingEntry>,
}

/// One neuron of the doped network with the input columns it sees.
type NeuronInputs<'a> = (&'a AxNeuron, Rc<Vec<Vec<u8>>>);

/// Every neuron of the doped network with its input columns: the
/// dataset's columns for the first layer, the previous hidden layer's
/// activations after that.
fn doped_neurons(setup: &Setup) -> Vec<NeuronInputs<'_>> {
    let cols = setup.rows.columns();
    let samples = cols.samples();
    let mut inputs: Rc<Vec<Vec<u8>>> =
        Rc::new(cols.col_refs().iter().map(|c| c.to_vec()).collect());
    let (mut acc, mut narrow) = (Vec::new(), Vec::new());
    let mut neurons = Vec::new();
    for layer in &setup.doped.layers {
        for neuron in &layer.neurons {
            assert!(fits_i32(neuron), "doped neurons are genome-encodable");
            neurons.push((neuron, Rc::clone(&inputs)));
        }
        if let Some(q) = layer.qrelu {
            let next = layer
                .neurons
                .iter()
                .map(|neuron| {
                    let mut out = Vec::new();
                    hidden_column(neuron, &inputs, samples, q, &mut acc, &mut narrow, &mut out);
                    out
                })
                .collect();
            inputs = Rc::new(next);
        }
    }
    neurons
}

/// One pass of `kernel` over every doped neuron, accumulators into
/// `outs` (`simd` falls back to the scalar kernel where it is not
/// built).
fn kernel_pass(
    kernel: KernelKind,
    neurons: &[NeuronInputs<'_>],
    samples: usize,
    outs: &mut [Vec<i32>],
) {
    for ((neuron, inputs), out) in neurons.iter().zip(outs.iter_mut()) {
        if kernel == KernelKind::Scalar
            || !pe_mlp::simd::accumulate_neuron_column_simd(neuron, inputs, samples, out)
        {
            accumulate_neuron_column_narrow_scalar(neuron, inputs, samples, out);
        }
    }
}

/// Race the scalar reference kernel against the SIMD accumulator over
/// every neuron of the doped network (no caches, no genome memo) and
/// prove the two bit-exact.
fn kernel_entries(setup: &Setup, repeats: usize) -> Vec<KernelEntry> {
    let samples = setup.rows.len();
    let neurons = doped_neurons(setup);
    let passes = 50;
    let mut reference = vec![Vec::new(); neurons.len()];
    kernel_pass(KernelKind::Scalar, &neurons, samples, &mut reference);
    let mut outs = vec![Vec::new(); neurons.len()];
    [KernelKind::Scalar, KernelKind::Simd]
        .into_iter()
        .map(|kernel| {
            kernel_pass(kernel, &neurons, samples, &mut outs);
            let matches_scalar = outs == reference;
            let best = (0..repeats)
                .map(|_| {
                    let started = Instant::now();
                    for _ in 0..passes {
                        kernel_pass(kernel, &neurons, samples, &mut outs);
                        black_box(&outs);
                    }
                    started.elapsed()
                })
                .min()
                .expect("repeats > 0");
            KernelEntry {
                kernel: kernel.name().to_owned(),
                available: kernel == KernelKind::Scalar || pe_mlp::simd::available(),
                raw_kernel_evals_per_sec: (passes * samples) as f64 / best.as_secs_f64().max(1e-9),
                matches_scalar,
            }
        })
        .collect()
}

/// Re-run the GA-shaped generation stream at explicit worker counts
/// and prove every point byte-identical to the single-thread run.
fn thread_scaling_entries(setup: &Setup, rounds: usize, repeats: usize) -> Vec<ThreadScalingEntry> {
    let mut one_thread_log: Option<String> = None;
    let mut one_thread_rate = 0.0_f64;
    [1usize, 2, 4, 8, 16, 32]
        .iter()
        .map(|&threads| {
            let mut log = String::new();
            let best = (0..repeats)
                .map(|_| {
                    let problem = setup.problem();
                    let evaluator =
                        CachedEvaluator::with_options(&problem, GENOME_CACHE_CAPACITY, threads);
                    let mut wave = setup.population.clone();
                    let mut rng = StdRng::seed_from_u64(11);
                    let started = Instant::now();
                    let mut evals: Vec<Vec<Evaluation>> = Vec::with_capacity(rounds);
                    for _ in 0..rounds {
                        evals.push(black_box(evaluator.evaluate_batch(&wave)));
                        drift(&mut wave, problem.bounds(), &mut rng);
                    }
                    let elapsed = started.elapsed();
                    log = serde_json::to_string(&evals).expect("evaluations serialize");
                    elapsed
                })
                .min()
                .expect("repeats > 0");
            let rate = (rounds * setup.population.len()) as f64 / best.as_secs_f64().max(1e-9);
            let byte_identical = match &one_thread_log {
                None => {
                    one_thread_log = Some(log);
                    one_thread_rate = rate;
                    true
                }
                Some(reference) => *reference == log,
            };
            ThreadScalingEntry {
                threads,
                ga_stream_evals_per_sec: rate,
                speedup_vs_one_thread: rate / one_thread_rate.max(1e-9),
                byte_identical_to_one_thread: byte_identical,
            }
        })
        .collect()
}

/// Timed comparison written to `BENCH_eval.json` (independent of the
/// Criterion samples so the JSON is one clean apples-to-apples pass).
fn write_report(setup: &Setup, threads: usize) {
    // Enough waves that the one-off cold start (generation 0) weighs
    // about as little as it does in a real study, where it is one of
    // hundreds of generations; all regimes use the same count, so the
    // evals/sec figures stay apples-to-apples. Each regime runs three
    // times and reports its fastest pass (Criterion-style noise
    // rejection — the minimum is the least-interfered measurement).
    let rounds = 20;
    let repeats = 3;
    let population = &setup.population;
    let best_of = |mut pass: Box<dyn FnMut() -> std::time::Duration>| {
        (0..repeats).map(|_| pass()).min().expect("repeats > 0")
    };

    // Regime 0: the pre-columnar loop — one genome at a time, per-row
    // inference, no memo, no columns.
    let row_oracle = best_of(Box::new(|| {
        let problem = setup.problem();
        let oracle = RowOracle { problem: &problem };
        let started = Instant::now();
        for _ in 0..rounds {
            for genome in population {
                black_box(oracle.evaluate(genome));
            }
        }
        started.elapsed()
    }));

    // Regime 1: the columnar serial loop (column cache warms as the
    // population repeats across rounds, as it does within a study).
    let serial = best_of(Box::new(|| {
        let problem = setup.problem();
        let started = Instant::now();
        for _ in 0..rounds {
            for genome in population {
                black_box(problem.evaluate(genome));
            }
        }
        started.elapsed()
    }));

    // Regime 2: cold batched-parallel waves (fresh problem + evaluator
    // each round: no memo or column carry-over, pure batching).
    let batch_cold = best_of(Box::new(|| {
        let started = Instant::now();
        for _ in 0..rounds {
            let problem = setup.problem();
            let evaluator = CachedEvaluator::with_options(&problem, GENOME_CACHE_CAPACITY, threads);
            black_box(evaluator.evaluate_batch(population));
        }
        started.elapsed()
    }));

    // Regime 3: a GA-shaped generation stream — the same evaluator
    // sees successive waves where elitist survivors recur verbatim
    // (genome memo) and mutants share most neurons with their parents
    // (neuron-column cache). The cache counters reported below come
    // from the last repeat.
    let mut ga_counters = None;
    let ga_stream = best_of(Box::new(|| {
        let problem = setup.problem();
        let evaluator = CachedEvaluator::with_options(&problem, GENOME_CACHE_CAPACITY, threads);
        let mut wave = population.to_vec();
        let mut rng = StdRng::seed_from_u64(11);
        let started = Instant::now();
        for _ in 0..rounds {
            black_box(evaluator.evaluate_batch(&wave));
            drift(&mut wave, problem.bounds(), &mut rng);
        }
        let elapsed = started.elapsed();
        ga_counters = Some((evaluator.stats(), problem.column_cache_stats()));
        elapsed
    }));

    let evals = (rounds * population.len()) as f64;
    let per_sec = |d: std::time::Duration| evals / d.as_secs_f64().max(1e-9);
    let (stats, columns) = ga_counters.expect("ga-stream regime ran");
    let kernels = kernel_entries(setup, repeats);
    let thread_scaling = thread_scaling_entries(setup, rounds, repeats);
    assert!(
        kernels.iter().all(|k| k.matches_scalar),
        "kernel parity violated: {kernels:?} — the SIMD kernel must match the scalar reference",
    );
    assert!(
        thread_scaling
            .iter()
            .all(|t| t.byte_identical_to_one_thread),
        "thread-count determinism violated — every worker count must reproduce the 1-thread run",
    );
    let report = EvalBenchReport {
        threads,
        population: population.len(),
        generation_rounds: rounds,
        kernel_mode: pe_mlp::columnar::kernel_mode().name().to_owned(),
        column_shards: columns.shards,
        column_contended: columns.contended,
        row_oracle_evals_per_sec: per_sec(row_oracle),
        serial_evals_per_sec: per_sec(serial),
        batch_cold_evals_per_sec: per_sec(batch_cold),
        ga_stream_memoized_evals_per_sec: per_sec(ga_stream),
        speedup_batch_cold_vs_serial: serial.as_secs_f64() / batch_cold.as_secs_f64().max(1e-9),
        speedup_ga_stream_vs_serial: serial.as_secs_f64() / ga_stream.as_secs_f64().max(1e-9),
        speedup_ga_stream_vs_row_oracle: row_oracle.as_secs_f64()
            / ga_stream.as_secs_f64().max(1e-9),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        column_hits: columns.hits,
        column_misses: columns.misses,
        kernels,
        thread_scaling,
    };
    println!(
        "eval core: row-oracle {:.0} evals/s | columnar serial {:.0} evals/s | batch(x{threads}) {:.0} evals/s | ga-stream {:.0} evals/s ({:.2}x vs oracle; genome {} hits / {} misses; columns {} hits / {} misses, {} shards, {} contended)",
        report.row_oracle_evals_per_sec,
        report.serial_evals_per_sec,
        report.batch_cold_evals_per_sec,
        report.ga_stream_memoized_evals_per_sec,
        report.speedup_ga_stream_vs_row_oracle,
        report.cache_hits,
        report.cache_misses,
        report.column_hits,
        report.column_misses,
        report.column_shards,
        report.column_contended,
    );
    for entry in &report.kernels {
        println!(
            "raw kernel [{}{}]: {:.0} sample-evals/s (matches scalar: {})",
            entry.kernel,
            if entry.available { "" } else { ", fallback" },
            entry.raw_kernel_evals_per_sec,
            entry.matches_scalar,
        );
    }
    for entry in &report.thread_scaling {
        println!(
            "ga-stream @ {:>2} threads: {:.0} evals/s ({:.2}x vs 1 thread, byte-identical: {})",
            entry.threads,
            entry.ga_stream_evals_per_sec,
            entry.speedup_vs_one_thread,
            entry.byte_identical_to_one_thread,
        );
    }
    pe_bench::format::write_json("BENCH_eval", &report);
}

fn bench(c: &mut Criterion) {
    let threads = Knobs::from_env_or_exit().thread_budget();
    let setup = setup();
    let population = &setup.population;

    // --- the evaluation core (genome memo + batching) ---------------
    let problem = setup.problem();
    c.bench_function("evaluate_population_serial", |b| {
        b.iter(|| {
            for genome in population {
                black_box(problem.evaluate(genome));
            }
        })
    });

    c.bench_function("evaluate_population_batch_parallel_cold", |b| {
        b.iter_batched(
            || CachedEvaluator::with_options(&problem, GENOME_CACHE_CAPACITY, threads),
            |evaluator| evaluator.evaluate_batch(population),
            BatchSize::SmallInput,
        )
    });

    c.bench_function("evaluate_population_batch_warm_memo", |b| {
        let evaluator = CachedEvaluator::with_options(&problem, GENOME_CACHE_CAPACITY, threads);
        let _ = evaluator.evaluate_batch(population);
        b.iter(|| evaluator.evaluate_batch(population))
    });

    // --- the columnar kernel (accuracy only, no caches) -------------
    let cols = setup.rows.columns();
    c.bench_function("columnar_kernel/row_oracle_accuracy", |b| {
        let mut scratch = InferenceScratch::new();
        b.iter(|| {
            black_box(
                setup
                    .doped
                    .accuracy_batch(&setup.rows, &setup.labels, &mut scratch),
            )
        })
    });
    c.bench_function("columnar_kernel/columnar_accuracy", |b| {
        b.iter(|| black_box(accuracy_columns(&setup.doped, &cols, &setup.labels)))
    });

    // --- the scalar reference vs the SIMD accumulator (raw) ---------
    let neurons = doped_neurons(&setup);
    let mut outs = vec![Vec::new(); neurons.len()];
    for kernel in [KernelKind::Scalar, KernelKind::Simd] {
        c.bench_function(&format!("columnar_kernel/{}", kernel.name()), |b| {
            b.iter(|| {
                kernel_pass(kernel, &neurons, setup.rows.len(), &mut outs);
                black_box(&outs);
            })
        });
    }

    // --- the neuron-column cache -------------------------------------
    let doped_genes = setup.genome_spec.encode(&setup.doped);
    c.bench_function("column_cache/cold_evaluate", |b| {
        b.iter_batched(
            || setup.problem(),
            |problem| black_box(problem.evaluate(&doped_genes)),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("column_cache/warm_evaluate", |b| {
        let problem = setup.problem();
        let _ = problem.evaluate(&doped_genes);
        b.iter(|| black_box(problem.evaluate(&doped_genes)))
    });

    write_report(&setup, threads);
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(5);
    targets = bench
);
criterion_main!(benches);
