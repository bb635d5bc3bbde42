//! Umbrella crate for the printed-MLPs workspace.
//!
//! Re-exports the workspace crates under short module names so the
//! examples and integration tests can use a single dependency:
//!
//! * [`arith`] — bit-level arithmetic and the FA-only adder-tree area model
//! * [`hw`] — EGFET technology model, netlists, power sources, Verilog
//! * [`mlp`] — float MLPs, backprop, quantization, approximate inference
//! * [`datasets`] — the five synthetic UCI-like datasets
//! * [`nsga`] — the NSGA-II multi-objective optimizer
//! * [`axc`] — the DATE'24 hardware-approximation-aware GA training
//!   flow, exposed as a staged `Study`/`Pipeline` API with resumable
//!   stage artifacts, progress/cancellation, a generic `SearchEngine`
//!   trait and parallel multi-dataset runs
//! * [`baselines`] — exact bespoke and state-of-the-art approximate
//!   comparison points (each also a `SearchEngine`)
//! * [`store`] — the persistent, deduplicated design store with
//!   scenario re-costing queries and warm-start seeding

pub use pe_arith as arith;
pub use pe_baselines as baselines;
pub use pe_datasets as datasets;
pub use pe_hw as hw;
pub use pe_mlp as mlp;
pub use pe_nsga as nsga;
pub use pe_store as store;
pub use printed_axc as axc;
