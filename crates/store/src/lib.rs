//! Persistent, deduplicated design-space store for bespoke printed
//! MLPs.
//!
//! The GA flow in `printed-axc` evaluates tens of thousands of
//! approximate networks per study and throws almost all of them away.
//! Yet a design's two halves age very differently:
//!
//! * its **accuracy** is scenario-invariant but expensive — it needs
//!   full-dataset inference;
//! * its **cost** is scenario-dependent but cheap — an analytic
//!   function of the [`CostScenario`](pe_hw::CostScenario) via
//!   [`ExactCostModel`](pe_hw::ExactCostModel).
//!
//! This crate persists the expensive half so the cheap half can be
//! re-asked forever. Every unique design a search encounters becomes a
//! [`DesignRecord`] — the quantized network, its cached accuracies and
//! its per-neuron [`NeuronGateCounts`](pe_arith::NeuronGateCounts) —
//! deduplicated by [`fingerprint_of`] and appended as one
//! `serde_json` line to an on-disk store file. Afterwards,
//! "what is the best design under technology × Vdd × power budget X?"
//! is a pure read over the loaded [`DesignStore`] that re-costs stored
//! designs in microseconds instead of re-running a CPU-hours GA.
//!
//! Two layers:
//!
//! * [`record`] — the [`DesignRecord`] unit of storage, the
//!   [`fingerprint_of`] dedup key and the gate-count helpers.
//! * [`store`] — the append-only [`StoreWriter`] (ingest side, safe to
//!   share across threads) and the read-only [`DesignStore`] snapshot
//!   (query side). Corrupt or truncated files, and networks the cost
//!   model cannot price, load as a clean [`StoreError`], never a
//!   panic.
//!
//! Two durability helpers ride along: [`io`] provides the
//! [`atomic_write`] temp-file/fsync/rename helper every crash-safe
//! artifact write in the workspace goes through, and [`fault`] is the
//! deterministic `PE_FAULT` fault-injection plan the crash-recovery
//! drills use to kill or fail I/O at seeded, reproducible points.
//! Store appends take advisory file locks (with bounded
//! retry-with-backoff), so concurrent multi-process writers share one
//! file safely, and [`DesignStore::open_salvaged`] repairs the torn
//! trailing line a killed append leaves behind.
//!
//! The search-side integration (the `StoreSink` eval hook, warm-start
//! seeding and Pareto-front selection over stored designs) lives in
//! `printed-axc`, which reuses its own `pareto` machinery on top of
//! this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod io;
pub mod record;
pub mod store;

pub use fault::{FaultAction, FaultPlan};
pub use io::atomic_write;
pub use record::{counts_of_spec, fingerprint_of, DesignRecord};
pub use store::{DesignStore, IngestOutcome, SalvageReport, StoreError, StoreStats, StoreWriter};
