//! Properties of the evaluation core: a parallel [`BatchEvaluator`]
//! must be observationally identical to a plain serial
//! `IntProblem::evaluate` loop, compute every requested genome, and
//! never change NSGA-II's reported `evaluations` semantics.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use pe_nsga::{random_genome, Evaluation, IntProblem, Nsga2, NsgaConfig};
use printed_axc::eval::BatchEvaluator;

/// A cheap, deterministic two-objective problem with a constraint —
/// structurally the same shape as the GA fitness (feasible/infeasible
/// split, two minimized objectives) without the MLP cost. Counts its
/// evaluations.
struct Surrogate {
    bounds: Vec<u32>,
    calls: AtomicU64,
}

impl Surrogate {
    fn new(genes: usize, bound: u32) -> Self {
        Self {
            bounds: vec![bound.max(2); genes],
            calls: AtomicU64::new(0),
        }
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl IntProblem for Surrogate {
    fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    fn evaluate(&self, genes: &[u32]) -> Evaluation {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let weighted: f64 = genes
            .iter()
            .enumerate()
            .map(|(i, &g)| f64::from(g) * ((i % 7) as f64 + 1.0))
            .sum();
        let spread = genes
            .iter()
            .map(|&g| f64::from(g) - f64::from(self.bounds[0]) / 2.0)
            .map(|d| d * d)
            .sum::<f64>();
        let objectives = vec![weighted, spread];
        if weighted < 3.0 {
            Evaluation::infeasible(objectives, 3.0 - weighted)
        } else {
            Evaluation::feasible(objectives)
        }
    }
}

/// A random population over the problem's bounds, with deliberate
/// duplicates (elitist GAs resubmit identical genomes constantly).
fn random_population(problem: &Surrogate, size: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pop: Vec<Vec<u32>> = (0..size)
        .map(|_| random_genome(problem.bounds(), &mut rng))
        .collect();
    // Duplicate roughly a third of the genomes.
    for i in 0..size / 3 {
        let src = pop[i].clone();
        pop[size - 1 - i] = src;
    }
    pop
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The parallel evaluator agrees with a plain serial `evaluate`
    /// loop on every genome of a random population, at any thread
    /// count, and computes every requested genome, duplicates
    /// included, exactly once per request.
    #[test]
    fn cached_parallel_evaluator_matches_serial_loop(
        seed in any::<u64>(),
        genes in 1usize..24,
        bound in 2u32..40,
        size in 1usize..60,
        threads in 1usize..6,
    ) {
        let problem = Surrogate::new(genes, bound);
        let pop = random_population(&problem, size, seed);
        let serial: Vec<Evaluation> = pop.iter().map(|g| problem.evaluate(g)).collect();
        let size = size as u64;
        prop_assert_eq!(problem.calls(), size);

        let evaluator = BatchEvaluator::with_threads(&problem, threads);
        prop_assert_eq!(evaluator.evaluate_batch(&pop), serial.clone());
        prop_assert_eq!(problem.calls(), 2 * size);
        // A repeated batch is computed again, with the same results
        // and the same accounting.
        prop_assert_eq!(evaluator.evaluate_batch(&pop), serial.clone());
        prop_assert_eq!(problem.calls(), 3 * size);
        // Single-genome path agrees too.
        prop_assert_eq!(evaluator.evaluate(&pop[0]), serial[0].clone());
        // The single-threaded evaluator returns the same results.
        let inline = BatchEvaluator::with_threads(&problem, 1);
        prop_assert_eq!(inline.evaluate_batch(&pop), serial);
    }

    /// NSGA-II runs identically — same fronts, same populations, and
    /// the same `evaluations` count — whether the problem is raw or
    /// wrapped in a parallel `BatchEvaluator`: the count reports
    /// requested candidate evaluations, each computed once.
    #[test]
    fn nsga_semantics_survive_caching(
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let problem = Surrogate::new(4, 16);
        let cfg = NsgaConfig {
            population: 12,
            generations: 8,
            seed,
            ..NsgaConfig::default()
        };
        let plain = Nsga2::new(cfg.clone()).run(&problem);
        prop_assert_eq!(problem.calls(), plain.evaluations);
        let evaluator = BatchEvaluator::with_threads(&problem, threads);
        let wrapped = Nsga2::new(cfg).run(&evaluator);

        prop_assert_eq!(&wrapped.population, &plain.population);
        prop_assert_eq!(&wrapped.pareto_front, &plain.pareto_front);
        prop_assert_eq!(wrapped.evaluations, plain.evaluations);
        prop_assert_eq!(plain.evaluations, 12 + 8 * 12);
        // The ledger adds up: every requested evaluation was computed.
        prop_assert_eq!(problem.calls(), 2 * wrapped.evaluations);
    }
}
