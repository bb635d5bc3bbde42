//! MLP substrate for printed-electronics classifiers.
//!
//! Three network representations, in decreasing precision:
//!
//! * [`DenseMlp`] — `f32` MLP with ReLU hidden layers, trained by the
//!   from-scratch backprop in [`train`] (the paper's conventional
//!   gradient baseline, Table III "Grad.").
//! * [`FixedMlp`] — the exact bespoke baseline: 8-bit weights, 4-bit
//!   inputs, 8-bit QReLU activations, integer argmax (§V-A, Table I).
//! * [`AxMlp`] — the paper's approximate MLP: power-of-two weights,
//!   per-weight bit masks, folded signs; evaluates Eq. (4) integer-
//!   exactly, so software accuracy equals circuit accuracy.
//!
//! [`hardware`] lowers the integer networks into `pe-hw` circuit
//! descriptions; [`metrics`] provides accuracy/confusion helpers;
//! [`columnar`] holds the structure-of-arrays inference engine —
//! [`QuantMatrix`] flat datasets, neuron-column kernels and
//! column-major batch prediction, bit-exact with the per-row path.
//! The kernels are chosen by the platform: the explicit `std::arch`
//! pair kernels of [`simd`] when the `simd` feature is built on x86_64
//! and the host has AVX2, for every layer whose sums fit their lanes;
//! the portable loops for every other layer and host. [`train`]'s
//! softmax runs the owned `pe_arith::math::expf` the same way: through
//! [`simd`]'s 4-lane kernel where the host has AVX2 and FMA, the scalar
//! port elsewhere, with the same bits either way.
//!
//! # Example: train, quantize, approximate
//!
//! ```
//! use pe_mlp::{DenseMlp, FixedMlp, AxMlp, QuantConfig, Topology};
//! use pe_mlp::train::{SgdTrainer, TrainConfig};
//!
//! let rows = vec![vec![0.1, 0.2], vec![0.9, 0.8]];
//! let labels = vec![0, 1];
//! let mut mlp = DenseMlp::random(Topology::new(vec![2, 3, 2]), 1);
//! let _ = SgdTrainer::new(TrainConfig { epochs: 30, ..TrainConfig::default() })
//!     .train(&mut mlp, &rows, &labels);
//! let fixed = FixedMlp::quantize(&mlp, QuantConfig::default(), &rows);
//! let doped = AxMlp::from_fixed(&fixed, 6, 12);
//! assert_eq!(doped.layers.len(), 2);
//! ```

// `deny`, not `forbid`: the `simd` module's x86_64 lowering needs
// `std::arch` loads, stores and `#[target_feature]` calls, and opts back
// in with a module-scoped allow; everything else in the crate stays safe
// code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod axmlp;
pub mod columnar;
pub mod dense;
pub mod hardware;
pub mod metrics;
pub mod quant;
pub mod simd;
pub mod topology;
pub mod train;

pub use axmlp::{fold_constants, AxLayer, AxMlp, AxNeuron, AxWeight, InferenceScratch};
pub use columnar::{ColumnLabels, ColumnMatrix, ColumnarScratch, KernelKind, QuantMatrix};
pub use dense::{argmax, DenseMlp};
pub use hardware::{ax_to_hardware, fixed_to_hardware};
pub use quant::{FixedLayer, FixedMlp, QReluCfg, QReluKernel, QuantConfig};
pub use topology::Topology;
pub use train::{train_best_of, train_best_of_observed, SgdTrainer, TrainConfig, TrainReport};
