//! Experiment harness regenerating every table and figure of the
//! DATE'24 paper.
//!
//! Each experiment is a plain function returning serializable rows, so
//! it can be driven two ways:
//!
//! * `cargo run -p pe-bench --release --bin <experiment>` — full-budget
//!   reproduction (`PE_BUDGET=quick` scales it down), printing the
//!   paper-format table and writing JSON next to it;
//! * library calls from the integration tests.
//!
//! Experiment index (see DESIGN.md §4): [`table1`] baselines,
//! [`table2`] our approximate MLPs, [`table3`] training times,
//! [`fig4`] state-of-the-art comparison, [`fig5`] power-source
//! feasibility, plus the [`ablation`] studies, the
//! multi-technology / multi-voltage cost [`sweep`]
//! (`BENCH_cost.json`), the nominal-vs-robust variation
//! comparison [`robust`] (`BENCH_robust.json`), the design-store
//! ingest/query benchmark [`store_query`] (`BENCH_store.json`) and the
//! crash/resume [`fault_drill`] (`BENCH_fault.json`).
//!
//! Configuration is resolved once at the binary edge: every bin reads
//! its environment knobs into one [`Knobs`] value before any work and
//! passes it down as explicit parameters.
//!
//! Everything executes through `printed-axc`'s staged pipeline:
//! [`study::run_studies`] fans the five datasets out over a worker pool
//! (`Pipeline::run_many`) with deterministic per-dataset seeds, and the
//! method comparisons iterate `SearchEngine`s generically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fault_drill;
pub mod fig4;
pub mod fig5;
pub mod format;
pub mod knobs;
pub mod robust;
pub mod store_query;
pub mod study;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;

pub use knobs::{KnobError, Knobs};
pub use study::{run_selected, run_studies, study_config, BudgetPreset};
