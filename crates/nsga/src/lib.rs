//! A seeded, generic NSGA-II implementation (Deb et al. 2002).
//!
//! The paper trains its printed MLPs with NSGA-II because the hardware
//! approximations are discrete — gradients do not exist for masks and
//! pow2 exponents — and because accuracy and area must be optimized
//! jointly (§IV-A). This crate provides exactly what that flow needs:
//!
//! * integer-vector genomes with per-gene bounds ([`IntProblem`]),
//! * Deb's constrained-domination (the 10% accuracy-loss bound becomes
//!   a constraint, not a penalty),
//! * non-dominated ranking + crowding distance, by an O(N log N) sort
//!   and sweep for up to two objectives (the pairwise O(MN²) sort of
//!   the NSGA-II paper runs for more, and is the sweep's test oracle),
//! * uniform / one-point crossover and reset mutation ([`operators`]),
//! * an elitist (μ+λ) main loop with seed-population injection for the
//!   paper's doped initialization ([`Nsga2::run_seeded`]).
//!
//! Everything is deterministic in the configured seed.
//!
//! # Example
//!
//! ```
//! use pe_nsga::{Evaluation, IntProblem, Nsga2, NsgaConfig};
//!
//! struct Sphere;
//! impl IntProblem for Sphere {
//!     fn bounds(&self) -> &[u32] { const B: [u32; 2] = [64, 64]; &B }
//!     fn evaluate(&self, g: &[u32]) -> Evaluation {
//!         let (x, y) = (f64::from(g[0]), f64::from(g[1]));
//!         Evaluation::feasible(vec![x * x + y * y, (x - 10.0).powi(2) + y * y])
//!     }
//! }
//!
//! let result = Nsga2::new(NsgaConfig { population: 20, generations: 20, ..NsgaConfig::default() })
//!     .run(&Sphere);
//! assert!(!result.pareto_front.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod individual;
pub mod operators;
pub mod problem;
mod sort;

pub use algorithm::{
    CheckpointPlan, CheckpointSink, GenerationStats, Nsga2, NsgaConfig, NsgaResult,
    SearchCheckpoint,
};
pub use individual::Individual;
pub use operators::{crossover, mutate, random_genome, CrossoverKind};
pub use problem::{constrained_dominates, Evaluation, IntProblem};
