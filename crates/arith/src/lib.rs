//! Bit-level arithmetic substrate for bespoke printed circuits.
//!
//! Printed (EGFET) machine-learning classifiers are *bespoke*: every model
//! coefficient is hard-wired into the netlist, so the cost of a circuit is
//! decided at the granularity of individual bits entering multi-operand
//! adder trees. This crate provides the bit-level machinery that the rest
//! of the workspace builds on:
//!
//! * [`estimator`] — the DATE'24 paper's `AdderArea` model (§III-C):
//!   [`tree_gates`] takes a neuron's masks, signs, shift exponents and
//!   bias ([`NeuronArithSpec`]) to the full adders, NOT gates, depth and
//!   tie cells of its FA-only adder tree. It is the one analytic
//!   adder-tree model: the GA, the design store and every reported cost
//!   call it.
//! * [`column`](mod@column) — the column heights [`tree_gates`] reduces: the
//!   number of potentially non-zero bits per bit-column, with negation
//!   corrections and the bias folded into one constant, built on byte
//!   lanes with no branch per mask bit.
//! * [`reduce`] — the FA-only 3:2 compression-tree model that reduces
//!   the heights to two rows on fixed-width 16-bit lanes, plus the
//!   final carry-propagate adder, counted in closed form.
//! * [`csd`] — canonical signed-digit decomposition of constants, used to
//!   cost the *exact* bespoke baseline's constant multipliers.
//! * [`math`] — owned math functions, ports of published algorithms
//!   that return the same bits on every host: [`math::expf`] (glibc's
//!   `expf`), which the float trainer's softmax runs.
//! * [`summand`] — the description of one operand of a bespoke
//!   multi-operand addition (masked input, shift, sign, or a constant),
//!   which `pe-hw`'s structural elaborator binds to nets.
//!
//! # Example
//!
//! Cost the adder tree of a tiny approximate neuron with two 4-bit
//! inputs, power-of-two weights `+2^1` and `-2^0`, full masks and bias 3:
//!
//! ```
//! use pe_arith::{tree_gates, NeuronArithSpec, WeightArith};
//!
//! let spec = NeuronArithSpec {
//!     input_bits: 4,
//!     weights: vec![
//!         WeightArith { mask: 0b1111, shift: 1, negative: false },
//!         WeightArith { mask: 0b1111, shift: 0, negative: true },
//!     ],
//!     bias: 3,
//! };
//! let tree = tree_gates(&spec, &mut Vec::new());
//! assert!(tree.counts.full_adders > 0);
//! assert_eq!(tree.counts.not_gates, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod column;
pub mod csd;
pub mod error;
pub mod estimator;
pub mod fixed;
pub mod math;
#[cfg(test)]
mod oracle;
pub mod reduce;
pub mod summand;

pub use csd::{csd_digits, CsdDigit};
pub use error::ArithError;
pub use estimator::{tree_gates, NeuronArithSpec, NeuronGateCounts, TreeGates, WeightArith};
pub use fixed::{max_signed, min_signed, unsigned_width};
pub use reduce::ReductionStats;
pub use summand::Summand;
