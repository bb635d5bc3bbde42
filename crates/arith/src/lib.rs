//! Bit-level arithmetic substrate for bespoke printed circuits.
//!
//! Printed (EGFET) machine-learning classifiers are *bespoke*: every model
//! coefficient is hard-wired into the netlist, so the cost of a circuit is
//! decided at the granularity of individual bits entering multi-operand
//! adder trees. This crate provides the bit-level machinery that the rest
//! of the workspace builds on:
//!
//! * [`ColumnProfile`] — the number of (potentially non-zero) bits per
//!   bit-column of a multi-operand addition, the core abstraction shared
//!   by the area estimator and the netlist elaborator.
//! * [`reduce`] — a 3:2 / 2:2 compression-tree model that counts the
//!   full adders (and optionally half adders) needed to reduce a column
//!   profile to two rows, plus the final carry-propagate adder.
//! * [`estimator`] — the DATE'24 paper's fast `AdderArea` estimate
//!   (§III-C): from the masks, signs, shift exponents and bias of an
//!   approximate neuron straight to an FA count.
//! * [`csd`] — canonical signed-digit decomposition of constants, used to
//!   cost the *exact* bespoke baseline's constant multipliers.
//! * [`summand`] — the description of one operand of a bespoke
//!   multi-operand addition (masked input, shift, sign, or a constant).
//!
//! # Example
//!
//! Estimate the adder area of a tiny approximate neuron with two 4-bit
//! inputs, power-of-two weights `+2^1` and `-2^0`, full masks and bias 3:
//!
//! ```
//! use pe_arith::estimator::{AdderAreaEstimator, NeuronArithSpec, WeightArith};
//!
//! let spec = NeuronArithSpec {
//!     input_bits: 4,
//!     weights: vec![
//!         WeightArith { mask: 0b1111, shift: 1, negative: false },
//!         WeightArith { mask: 0b1111, shift: 0, negative: true },
//!     ],
//!     bias: 3,
//! };
//! let est = AdderAreaEstimator::paper();
//! let report = est.estimate(&spec);
//! assert!(report.full_adders > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod column;
pub mod csd;
pub mod error;
pub mod estimator;
pub mod fixed;
pub mod reduce;
pub mod summand;

pub use column::ColumnProfile;
pub use csd::{csd_digits, CsdDigit};
pub use error::ArithError;
pub use estimator::{
    AdderAreaEstimator, AdderAreaReport, NeuronArithSpec, NeuronGateCounts, WeightArith,
};
pub use fixed::{
    clamp_to_bits, max_signed, max_unsigned, min_signed, signed_width, unsigned_width,
};
pub use reduce::{Reducer, ReductionKind, ReductionStats};
pub use summand::Summand;
