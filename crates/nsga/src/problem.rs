//! Problem abstraction for the NSGA-II optimizer.

use serde::{Deserialize, Serialize};

/// Result of evaluating one candidate: objective values (all minimized)
/// plus an aggregate constraint violation (0 = feasible).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Objective values, all to be minimized. Never NaN: environmental
    /// selection sorts members by them.
    pub objectives: Vec<f64>,
    /// Total constraint violation; 0.0 means feasible. Infeasible
    /// candidates are handled by Deb's constrained-domination rule.
    pub violation: f64,
}

impl Evaluation {
    /// A feasible evaluation.
    #[must_use]
    pub fn feasible(objectives: Vec<f64>) -> Self {
        Self {
            objectives,
            violation: 0.0,
        }
    }

    /// An evaluation with a constraint violation.
    #[must_use]
    pub fn infeasible(objectives: Vec<f64>, violation: f64) -> Self {
        debug_assert!(violation > 0.0);
        Self {
            objectives,
            violation,
        }
    }

    /// Whether the candidate satisfies all constraints.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.violation <= 0.0
    }
}

/// A multi-objective problem over bounded integer-vector genomes.
///
/// Genomes are `Vec<u32>` with per-gene exclusive upper bounds — the
/// natural encoding for the paper's chromosome of masks, signs, shift
/// exponents and quantized biases (each gene "represented by an integer
/// value (with the corresponding limits)", §IV-B).
pub trait IntProblem {
    /// Exclusive upper bound of each gene: gene `i` ranges over
    /// `0..bounds()[i]`. The genome length is `bounds().len()`.
    fn bounds(&self) -> &[u32];

    /// Evaluate a genome.
    ///
    /// Evaluation must be a pure, deterministic function of the genes:
    /// the optimizer is free to reorder, parallelize or memoize calls
    /// (see [`evaluate_batch`](Self::evaluate_batch)) without changing
    /// results.
    fn evaluate(&self, genes: &[u32]) -> Evaluation;

    /// Evaluate a whole wave of genomes, returning one [`Evaluation`]
    /// per genome **in input order**.
    ///
    /// The default implementation is a plain serial loop over
    /// [`evaluate`](Self::evaluate); implementations with a faster
    /// bulk path (thread-pool fan-out, memoization, vectorized
    /// inference) override it. [`Nsga2`](crate::Nsga2) funnels the
    /// initial population and every offspring wave through this single
    /// entry point, so an override accelerates the whole run.
    fn evaluate_batch(&self, genomes: &[Vec<u32>]) -> Vec<Evaluation> {
        genomes.iter().map(|g| self.evaluate(g)).collect()
    }
}

/// Any reference to a problem is itself a problem, so wrappers (e.g. a
/// caching evaluator) can borrow rather than own their inner problem.
impl<T: IntProblem + ?Sized> IntProblem for &T {
    fn bounds(&self) -> &[u32] {
        (**self).bounds()
    }

    fn evaluate(&self, genes: &[u32]) -> Evaluation {
        (**self).evaluate(genes)
    }

    fn evaluate_batch(&self, genomes: &[Vec<u32>]) -> Vec<Evaluation> {
        (**self).evaluate_batch(genomes)
    }
}

/// Deb's constrained-domination: `a` dominates `b` iff
/// * `a` is feasible and `b` is not, or
/// * both are infeasible and `a` violates less, or
/// * both are feasible and `a` Pareto-dominates `b`.
///
/// # Panics
///
/// Panics (in debug builds) if objective vectors differ in length.
#[must_use]
pub fn constrained_dominates(a: &Evaluation, b: &Evaluation) -> bool {
    debug_assert_eq!(a.objectives.len(), b.objectives.len());
    match (a.is_feasible(), b.is_feasible()) {
        (true, false) => true,
        (false, true) => false,
        (false, false) => a.violation < b.violation,
        (true, true) => {
            let mut strictly_better = false;
            for (x, y) in a.objectives.iter().zip(&b.objectives) {
                if x > y {
                    return false;
                }
                if x < y {
                    strictly_better = true;
                }
            }
            strictly_better
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(objs: &[f64]) -> Evaluation {
        Evaluation::feasible(objs.to_vec())
    }

    #[test]
    fn pareto_domination_rules() {
        assert!(constrained_dominates(&ev(&[1.0, 1.0]), &ev(&[2.0, 2.0])));
        assert!(constrained_dominates(&ev(&[1.0, 2.0]), &ev(&[1.0, 3.0])));
        assert!(!constrained_dominates(&ev(&[1.0, 3.0]), &ev(&[2.0, 2.0])));
        assert!(!constrained_dominates(&ev(&[1.0, 1.0]), &ev(&[1.0, 1.0])));
    }

    #[test]
    fn feasible_always_beats_infeasible() {
        let good = ev(&[100.0, 100.0]);
        let bad = Evaluation::infeasible(vec![0.0, 0.0], 0.1);
        assert!(constrained_dominates(&good, &bad));
        assert!(!constrained_dominates(&bad, &good));
    }

    #[test]
    fn lesser_violation_wins_among_infeasible() {
        let a = Evaluation::infeasible(vec![5.0], 0.1);
        let b = Evaluation::infeasible(vec![1.0], 0.5);
        assert!(constrained_dominates(&a, &b));
        assert!(!constrained_dominates(&b, &a));
    }
}
