//! The approximate printed MLP of the paper: integer-exact inference
//! with power-of-two weights, bit masks and QReLU (Eq. (4)).
//!
//! Every neuron output is
//! `QReLU( Σ_i s_i · ((m_i ⊙ x_i) << k_i) + b )` — a sum of masked,
//! shifted input activations with hard-wired signs and a constant bias.
//! [`AxMlp`] evaluates exactly what the bespoke circuit computes, so GA
//! fitness accuracy equals hardware accuracy by construction.

use serde::{Deserialize, Serialize};

use pe_arith::{NeuronArithSpec, WeightArith};

use crate::columnar::QuantMatrix;
use crate::quant::{FixedMlp, QReluCfg};

/// One approximate weight: the `(m, s, k)` triple of Eq. (1)/(4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AxWeight {
    /// Pruning mask over input-activation bits; `0` removes the
    /// connection entirely (hardware-equivalent to weight zero, §III-B).
    pub mask: u16,
    /// Power-of-two exponent `k` of the weight magnitude.
    pub shift: u8,
    /// Sign `s = −1` when true.
    pub negative: bool,
}

impl AxWeight {
    /// The represented weight value `s · 2^k` (0 when fully masked).
    #[inline]
    #[must_use]
    pub fn value(self) -> i32 {
        if self.mask == 0 {
            0
        } else {
            let mag = 1i32 << self.shift;
            if self.negative {
                -mag
            } else {
                mag
            }
        }
    }
}

/// One approximate neuron: weights plus an integer bias.
///
/// Hashable so evaluation layers can memoize per-neuron results (output
/// columns) by the decoded spec.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AxNeuron {
    /// Per-input approximate weights.
    pub weights: Vec<AxWeight>,
    /// Constant bias added to the accumulation.
    pub bias: i32,
}

impl AxNeuron {
    /// Evaluate the accumulation of Eq. (4) for quantized inputs.
    ///
    /// # Panics
    ///
    /// Panics if `x` and the weights disagree in length.
    #[inline]
    #[must_use]
    pub fn accumulate(&self, x: &[u8]) -> i64 {
        assert_eq!(x.len(), self.weights.len(), "input width mismatch");
        let mut acc = i64::from(self.bias);
        for (w, &xi) in self.weights.iter().zip(x) {
            if w.mask == 0 {
                continue;
            }
            let v = i64::from(u16::from(xi) & w.mask) << w.shift;
            if w.negative {
                acc -= v;
            } else {
                acc += v;
            }
        }
        acc
    }

    /// Lower to the arithmetic spec consumed by the area model and
    /// the hardware elaborator.
    #[must_use]
    pub fn to_arith_spec(&self, input_bits: u32) -> NeuronArithSpec {
        let mut spec = NeuronArithSpec {
            input_bits,
            weights: Vec::new(),
            bias: 0,
        };
        self.to_arith_spec_into(input_bits, &mut spec);
        spec
    }

    /// [`to_arith_spec`](Self::to_arith_spec) into a reused spec buffer
    /// — the GA's area objective costs a spec per neuron per genome, and
    /// reusing one buffer keeps that walk allocation-free.
    pub fn to_arith_spec_into(&self, input_bits: u32, spec: &mut NeuronArithSpec) {
        spec.input_bits = input_bits;
        spec.bias = i64::from(self.bias);
        spec.weights.clear();
        spec.weights
            .extend(self.weights.iter().map(|w| WeightArith {
                mask: u64::from(w.mask),
                shift: u32::from(w.shift),
                negative: w.negative,
            }));
    }
}

/// One layer of the approximate MLP.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AxLayer {
    /// Width of this layer's input activations in bits.
    pub input_bits: u32,
    /// The layer's neurons.
    pub neurons: Vec<AxNeuron>,
    /// QReLU for hidden layers; `None` on the argmax output layer.
    pub qrelu: Option<QReluCfg>,
}

/// The complete approximate printed MLP.
///
/// `Default` is the empty network — the seed state for decode-in-place
/// scratch buffers that are filled by `GenomeSpec::decode_into` before
/// every use.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AxMlp {
    /// Layers, first hidden layer first.
    pub layers: Vec<AxLayer>,
}

/// Reusable flat buffers for [`AxMlp`] inference.
///
/// The GA fitness loop predicts hundreds of thousands of rows per
/// generation; allocating per-sample activation and accumulator `Vec`s
/// dominates that loop. A scratch holds one flat accumulator buffer and
/// a pair of activation buffers that every
/// [`predict_with`](AxMlp::predict_with) /
/// [`accuracy_batch`](AxMlp::accuracy_batch) call reuses — buffers grow
/// to the widest layer once and never shrink, so steady-state inference
/// performs **zero** allocations per sample.
#[derive(Debug, Clone, Default)]
pub struct InferenceScratch {
    acc: Vec<i64>,
    act_in: Vec<u8>,
    act_out: Vec<u8>,
}

impl InferenceScratch {
    /// A fresh (empty) scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl AxMlp {
    /// Integer-exact forward pass; returns output-layer accumulators.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the first layer's fan-in.
    #[must_use]
    pub fn accumulators(&self, x: &[u8]) -> Vec<i64> {
        let mut current: Vec<u8> = x.to_vec();
        for layer in &self.layers {
            let accs: Vec<i64> = layer
                .neurons
                .iter()
                .map(|n| n.accumulate(&current))
                .collect();
            match layer.qrelu {
                Some(q) => current = accs.iter().map(|&a| q.apply(a)).collect(),
                None => return accs,
            }
        }
        // A network whose last layer has a QReLU (unusual): return the
        // activations as accumulators.
        current.iter().map(|&v| i64::from(v)).collect()
    }

    /// Predicted class: integer argmax over the output accumulators.
    #[must_use]
    pub fn predict(&self, x: &[u8]) -> usize {
        self.predict_with(x, &mut InferenceScratch::new())
    }

    /// [`predict`](Self::predict) against caller-provided scratch
    /// buffers: the allocation-free hot path (ties break to the lowest
    /// class index, exactly like the argmax comparator in hardware).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the first layer's fan-in.
    #[must_use]
    pub fn predict_with(&self, x: &[u8], scratch: &mut InferenceScratch) -> usize {
        scratch.act_in.clear();
        scratch.act_in.extend_from_slice(x);
        for layer in &self.layers {
            scratch.acc.clear();
            for n in &layer.neurons {
                scratch.acc.push(n.accumulate(&scratch.act_in));
            }
            match layer.qrelu {
                Some(q) => {
                    scratch.act_out.clear();
                    scratch
                        .act_out
                        .extend(scratch.acc.iter().map(|&a| q.apply(a)));
                    std::mem::swap(&mut scratch.act_in, &mut scratch.act_out);
                }
                None => return argmax_i64(&scratch.acc),
            }
        }
        // A network whose last layer has a QReLU (unusual): argmax over
        // the final activations, mirroring `accumulators` + argmax.
        scratch.acc.clear();
        scratch
            .acc
            .extend(scratch.act_in.iter().map(|&v| i64::from(v)));
        argmax_i64(&scratch.acc)
    }

    /// Accuracy over quantized rows. An empty dataset scores `0.0` —
    /// the workspace-wide convention shared by
    /// [`accuracy_batch`](Self::accuracy_batch),
    /// [`FixedMlp::accuracy`](crate::FixedMlp::accuracy) and
    /// [`columnar::accuracy_columns`](crate::columnar::accuracy_columns).
    ///
    /// Allocates one scratch for the whole batch; use
    /// [`accuracy_batch`](Self::accuracy_batch) to reuse buffers across
    /// calls (e.g. across a GA population).
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `labels` differ in length.
    #[must_use]
    pub fn accuracy(&self, rows: &QuantMatrix, labels: &[usize]) -> f64 {
        self.accuracy_batch(rows, labels, &mut InferenceScratch::new())
    }

    /// Accuracy over quantized rows with reusable scratch buffers —
    /// the per-row reference path (one [`predict_with`](Self::predict_with)
    /// per sample), kept as the oracle the columnar engine is proven
    /// against. Empty datasets score `0.0` by convention.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `labels` differ in length.
    #[must_use]
    pub fn accuracy_batch(
        &self,
        rows: &QuantMatrix,
        labels: &[usize],
        scratch: &mut InferenceScratch,
    ) -> f64 {
        assert_eq!(rows.len(), labels.len());
        if rows.is_empty() {
            return 0.0;
        }
        let hits = rows
            .iter()
            .zip(labels)
            .filter(|&(r, &l)| self.predict_with(r, scratch) == l)
            .count();
        hits as f64 / rows.len() as f64
    }

    /// Derive the doped "nearly non-approximate" network from the exact
    /// baseline (paper §IV-A: the initial population is doped with ~10%
    /// near-exact solutions): every 8-bit weight is rounded to the
    /// nearest power of two (capped at `2^max_shift`), masks are full,
    /// biases are clamped into `bias_bits`.
    ///
    /// The *output* layer is first rescaled by the argmax-invariant
    /// factor `α ∈ [2^-0.5, 2^0.5)` that best aligns its weights with
    /// the pow2 grid (ReLU/argmax networks are insensitive to a uniform
    /// positive scaling of the final layer, so this is free accuracy).
    #[must_use]
    pub fn from_fixed(fixed: &FixedMlp, max_shift: u8, bias_bits: u32) -> Self {
        Self::from_fixed_calibrated(fixed, max_shift, bias_bits, &QuantMatrix::default())
    }

    /// [`AxMlp::from_fixed`] with data-driven bias compensation: the
    /// per-weight pow2 rounding residuals, multiplied by the mean input
    /// activation observed on `calibration_rows`, are folded into each
    /// neuron's bias — first-order error feedback that markedly
    /// improves the doped seeds on multi-class datasets.
    #[must_use]
    pub fn from_fixed_calibrated(
        fixed: &FixedMlp,
        max_shift: u8,
        bias_bits: u32,
        calibration_rows: &QuantMatrix,
    ) -> Self {
        let bias_max = (1i64 << (bias_bits - 1)) - 1;
        let bias_min = -(1i64 << (bias_bits - 1));
        let layer_count = fixed.layers.len();

        // Mean input activation of every layer over the calibration
        // data (integer-exact forward of the baseline itself).
        let mean_inputs: Vec<Vec<f64>> = mean_layer_inputs(fixed, calibration_rows);

        let mut input_bits = fixed.input_bits;
        let layers = fixed
            .layers
            .iter()
            .enumerate()
            .map(|(li, layer)| {
                let full_mask = ((1u32 << input_bits) - 1) as u16;
                let last = li + 1 == layer_count;
                // Argmax-invariant pow2-grid alignment for the output
                // layer: minimize the weighted squared log-distance to
                // the grid over alpha.
                let alpha = if last {
                    best_pow2_alignment(&layer.weights, max_shift)
                } else {
                    1.0
                };
                let neurons = layer
                    .weights
                    .iter()
                    .zip(&layer.biases)
                    .map(|(row, &b)| {
                        let mut bias_f = f64::from(b) * alpha;
                        let weights = row
                            .iter()
                            .enumerate()
                            .map(|(wi, &w)| {
                                if w == 0 {
                                    return AxWeight {
                                        mask: 0,
                                        shift: 0,
                                        negative: false,
                                    };
                                }
                                let target = f64::from(w) * alpha;
                                let k = target.abs().log2().round().clamp(0.0, f64::from(max_shift))
                                    as u8;
                                let approx = if target < 0.0 {
                                    -f64::from(1u32 << k)
                                } else {
                                    f64::from(1u32 << k)
                                };
                                // First-order error feedback: the
                                // rounding residual times the mean
                                // activation moves into the bias.
                                if let Some(means) = mean_inputs.get(li) {
                                    if let Some(&mx) = means.get(wi) {
                                        bias_f += (target - approx) * mx;
                                    }
                                }
                                AxWeight {
                                    mask: full_mask,
                                    shift: k,
                                    negative: target < 0.0,
                                }
                            })
                            .collect();
                        AxNeuron {
                            weights,
                            bias: (bias_f.round() as i64).clamp(bias_min, bias_max) as i32,
                        }
                    })
                    .collect();
                let out = AxLayer {
                    input_bits,
                    neurons,
                    qrelu: layer.qrelu,
                };
                if let Some(q) = layer.qrelu {
                    input_bits = q.out_bits;
                }
                out
            })
            .collect();
        Self { layers }
    }

    /// Lower every neuron to its [`NeuronArithSpec`], layer by layer
    /// (input to the area objective, Eq. (2)).
    #[must_use]
    pub fn arith_specs(&self) -> Vec<Vec<NeuronArithSpec>> {
        self.layers
            .iter()
            .map(|l| {
                l.neurons
                    .iter()
                    .map(|n| n.to_arith_spec(l.input_bits))
                    .collect()
            })
            .collect()
    }

    /// Total number of `(m, s, k)` weight triples.
    #[must_use]
    pub fn weight_count(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.neurons.iter().map(|n| n.weights.len()))
            .sum()
    }
}

/// Integer argmax with ties to the lowest index (the hardware
/// comparator's behavior).
#[inline]
fn argmax_i64(accs: &[i64]) -> usize {
    let mut best = 0;
    for (i, &a) in accs.iter().enumerate().skip(1) {
        if a > accs[best] {
            best = i;
        }
    }
    best
}

/// Propagate compile-time constants through an approximate MLP, as a
/// bespoke synthesis flow would: a hidden neuron with *no* active mask
/// bits computes `QReLU(bias)` — a constant — so it contributes no
/// hardware; its downstream products `s·((const ⊙ m) << k)` fold into
/// the receiving neurons' biases and the dead neuron is removed from
/// the circuit (shrinking the next layer's fan-in). Applied iteratively
/// until a fixed point.
///
/// Inference is unchanged by construction (the folded network computes
/// the same function); only the lowered hardware gets cheaper. Both the
/// GA's gate-equivalent objective and the hardware lowering apply this,
/// giving the optimizer a path to the near-constant circuits the paper
/// reports for the wine datasets.
#[must_use]
pub fn fold_constants(mlp: &AxMlp) -> AxMlp {
    let mut out = mlp.clone();
    loop {
        let mut changed = false;
        for li in 0..out.layers.len().saturating_sub(1) {
            // Constant neurons of layer li (hidden layers only — they
            // have a QReLU giving a concrete constant output).
            let Some(q) = out.layers[li].qrelu else {
                continue;
            };
            let const_vals: Vec<Option<u8>> = out.layers[li]
                .neurons
                .iter()
                .map(|n| {
                    n.weights
                        .iter()
                        .all(|w| w.mask == 0)
                        .then(|| q.apply(i64::from(n.bias)))
                })
                .collect();
            if const_vals.iter().all(Option::is_none) {
                continue;
            }
            changed = true;
            // Fold constant activations into the next layer's biases.
            for neuron in &mut out.layers[li + 1].neurons {
                let mut folded: i64 = i64::from(neuron.bias);
                for (w, cv) in neuron.weights.iter_mut().zip(&const_vals) {
                    if let Some(v) = cv {
                        let term = i64::from(u16::from(*v) & w.mask) << w.shift;
                        folded += if w.negative { -term } else { term };
                        *w = AxWeight {
                            mask: 0,
                            shift: 0,
                            negative: false,
                        };
                    }
                }
                neuron.bias = folded.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
            }
            // Remove the dead neurons and the corresponding next-layer
            // weight slots.
            let keep: Vec<bool> = const_vals.iter().map(Option::is_none).collect();
            let mut idx = 0;
            out.layers[li].neurons.retain(|_| {
                let k = keep[idx];
                idx += 1;
                k
            });
            for neuron in &mut out.layers[li + 1].neurons {
                let mut idx = 0;
                neuron.weights.retain(|_| {
                    let k = keep[idx];
                    idx += 1;
                    k
                });
            }
        }
        if !changed {
            return out;
        }
    }
}

/// Mean input activation of every layer of `fixed` over calibration
/// rows (empty input → all-zero means, disabling error feedback).
fn mean_layer_inputs(fixed: &FixedMlp, rows: &QuantMatrix) -> Vec<Vec<f64>> {
    let mut sums: Vec<Vec<f64>> = fixed
        .layers
        .iter()
        .map(|l| vec![0.0; l.weights.first().map_or(0, Vec::len)])
        .collect();
    if rows.is_empty() {
        return sums;
    }
    for row in rows {
        let mut current: Vec<i64> = row.iter().map(|&v| i64::from(v)).collect();
        for (li, layer) in fixed.layers.iter().enumerate() {
            for (s, &v) in sums[li].iter_mut().zip(&current) {
                *s += v as f64;
            }
            let accs: Vec<i64> = layer
                .weights
                .iter()
                .zip(&layer.biases)
                .map(|(w, &b)| {
                    w.iter()
                        .zip(&current)
                        .map(|(&wi, &x)| i64::from(wi) * x)
                        .sum::<i64>()
                        + i64::from(b)
                })
                .collect();
            match layer.qrelu {
                Some(q) => current = accs.iter().map(|&a| i64::from(q.apply(a))).collect(),
                None => break,
            }
        }
    }
    for layer_sums in &mut sums {
        for s in layer_sums.iter_mut() {
            *s /= rows.len() as f64;
        }
    }
    sums
}

/// Find `alpha ∈ [2^-0.5, 2^0.5)` minimizing the magnitude-weighted
/// squared distance of `log2|alpha·w|` to the *clamped* pow2 exponent
/// grid `{0, …, max_shift}`.
fn best_pow2_alignment(weights: &[Vec<i32>], max_shift: u8) -> f64 {
    let logs: Vec<(f64, f64)> = weights
        .iter()
        .flatten()
        .filter(|&&w| w != 0)
        .map(|&w| (f64::from(w.abs()).log2(), f64::from(w) * f64::from(w)))
        .collect();
    if logs.is_empty() {
        return 1.0;
    }
    let mut best = (f64::INFINITY, 1.0);
    for step in 0..64 {
        let a = -0.5 + f64::from(step) / 64.0;
        let cost: f64 = logs
            .iter()
            .map(|&(l, wgt)| {
                let k = (l + a).round().clamp(0.0, f64::from(max_shift));
                let d = l + a - k;
                wgt * d * d
            })
            .sum();
        if cost < best.0 {
            best = (cost, a);
        }
    }
    best.1.exp2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::FixedLayer;

    fn neuron(weights: Vec<AxWeight>, bias: i32) -> AxNeuron {
        AxNeuron { weights, bias }
    }

    #[test]
    fn accumulate_implements_equation_4() {
        // acc = +((x0 & 0b1010) << 1) - ((x1 & 0b0110) << 2) + 3
        let n = neuron(
            vec![
                AxWeight {
                    mask: 0b1010,
                    shift: 1,
                    negative: false,
                },
                AxWeight {
                    mask: 0b0110,
                    shift: 2,
                    negative: true,
                },
            ],
            3,
        );
        let x = [0b1111u8, 0b1111];
        let expected = ((0b1010i64) << 1) - ((0b0110i64) << 2) + 3;
        assert_eq!(n.accumulate(&x), expected);
    }

    #[test]
    fn masked_out_weight_contributes_nothing() {
        let n = neuron(
            vec![AxWeight {
                mask: 0,
                shift: 5,
                negative: true,
            }],
            -1,
        );
        assert_eq!(n.accumulate(&[0xFF]), -1);
        assert_eq!(n.weights[0].value(), 0);
    }

    #[test]
    fn two_layer_network_forward() {
        // Hidden neuron passes x0; output neurons compare h to a bias.
        let mlp = AxMlp {
            layers: vec![
                AxLayer {
                    input_bits: 4,
                    neurons: vec![neuron(
                        vec![AxWeight {
                            mask: 0b1111,
                            shift: 2,
                            negative: false,
                        }],
                        0,
                    )],
                    qrelu: Some(QReluCfg {
                        out_bits: 8,
                        shift: 0,
                    }),
                },
                AxLayer {
                    input_bits: 8,
                    neurons: vec![
                        neuron(
                            vec![AxWeight {
                                mask: 0xFF,
                                shift: 0,
                                negative: false,
                            }],
                            0,
                        ),
                        neuron(
                            vec![AxWeight {
                                mask: 0,
                                shift: 0,
                                negative: false,
                            }],
                            30,
                        ),
                    ],
                    qrelu: None,
                },
            ],
        };
        // x=15 -> h=min(60,255)=60 -> class 0 (60 > 30).
        assert_eq!(mlp.predict(&[15]), 0);
        // x=1 -> h=4 -> class 1 (4 < 30).
        assert_eq!(mlp.predict(&[1]), 1);
    }

    #[test]
    fn from_fixed_rounds_to_nearest_pow2() {
        let fixed = FixedMlp {
            input_bits: 4,
            layers: vec![FixedLayer {
                weights: vec![vec![5, -96, 0, 1]],
                biases: vec![7],
                qrelu: None,
            }],
        };
        let ax = AxMlp::from_fixed(&fixed, 6, 12);
        let w = &ax.layers[0].neurons[0].weights;
        assert_eq!(w[0].shift, 2); // 5·alpha -> 4
        assert!(!w[0].negative);
        assert_eq!(w[1].shift, 6); // 96 dominates the alignment -> 2^6
        assert!(w[1].negative);
        assert_eq!(w[2].mask, 0); // zero weight -> zero mask
        assert_eq!(w[3].shift, 0); // 1 -> 2^0
                                   // The output-layer alignment scales the bias by the same
                                   // argmax-invariant alpha (here ~2^-0.5, so 7 -> ~5).
        let bias = ax.layers[0].neurons[0].bias;
        assert!((4..=7).contains(&bias), "bias {bias}");
    }

    #[test]
    fn from_fixed_clamps_bias() {
        let fixed = FixedMlp {
            input_bits: 4,
            layers: vec![FixedLayer {
                weights: vec![vec![1]],
                biases: vec![100_000],
                qrelu: None,
            }],
        };
        let ax = AxMlp::from_fixed(&fixed, 6, 8);
        assert_eq!(ax.layers[0].neurons[0].bias, 127);
    }

    #[test]
    fn arith_specs_mirror_structure() {
        let mlp = AxMlp {
            layers: vec![AxLayer {
                input_bits: 4,
                neurons: vec![neuron(
                    vec![AxWeight {
                        mask: 0b1001,
                        shift: 3,
                        negative: true,
                    }],
                    -4,
                )],
                qrelu: None,
            }],
        };
        let specs = mlp.arith_specs();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0][0].input_bits, 4);
        assert_eq!(specs[0][0].weights[0].mask, 0b1001);
        assert_eq!(specs[0][0].weights[0].shift, 3);
        assert!(specs[0][0].weights[0].negative);
        assert_eq!(specs[0][0].bias, -4);
    }

    #[test]
    fn scratch_inference_matches_the_allocating_path() {
        // A 2-hidden-layer network with negative weights, saturation
        // and argmax ties, driven across the whole 4-bit input space:
        // predict_with must agree with argmax over `accumulators` on
        // every row, and one scratch must be reusable across rows and
        // across networks of different widths.
        let wide = AxMlp {
            layers: vec![
                AxLayer {
                    input_bits: 4,
                    neurons: vec![
                        neuron(
                            vec![AxWeight {
                                mask: 0b1111,
                                shift: 3,
                                negative: false,
                            }],
                            -20,
                        ),
                        neuron(
                            vec![AxWeight {
                                mask: 0b0110,
                                shift: 1,
                                negative: true,
                            }],
                            40,
                        ),
                        neuron(
                            vec![AxWeight {
                                mask: 0b1001,
                                shift: 0,
                                negative: false,
                            }],
                            0,
                        ),
                    ],
                    qrelu: Some(QReluCfg {
                        out_bits: 8,
                        shift: 1,
                    }),
                },
                AxLayer {
                    input_bits: 8,
                    neurons: vec![
                        neuron(
                            vec![
                                AxWeight {
                                    mask: 0xFF,
                                    shift: 0,
                                    negative: false,
                                };
                                3
                            ],
                            -5,
                        ),
                        neuron(
                            vec![
                                AxWeight {
                                    mask: 0x0F,
                                    shift: 2,
                                    negative: true,
                                },
                                AxWeight {
                                    mask: 0,
                                    shift: 0,
                                    negative: false,
                                },
                                AxWeight {
                                    mask: 0xF0,
                                    shift: 0,
                                    negative: false,
                                },
                            ],
                            17,
                        ),
                    ],
                    qrelu: None,
                },
            ],
        };
        let narrow = AxMlp {
            layers: vec![AxLayer {
                input_bits: 4,
                neurons: vec![
                    neuron(
                        vec![AxWeight {
                            mask: 0b1111,
                            shift: 0,
                            negative: false,
                        }],
                        0,
                    ),
                    neuron(
                        vec![AxWeight {
                            mask: 0,
                            shift: 0,
                            negative: false,
                        }],
                        3,
                    ),
                ],
                qrelu: None,
            }],
        };
        let mut scratch = InferenceScratch::new();
        for x in 0..16u8 {
            let accs = wide.accumulators(&[x]);
            let expected = argmax_i64(&accs);
            assert_eq!(wide.predict_with(&[x], &mut scratch), expected, "x={x}");
        }
        // Reuse the same scratch on a structurally different network.
        for x in 0..16u8 {
            // `narrow`'s second neuron is fully masked: constant 3, so
            // it wins the argmax only strictly (x < 3).
            let expected = usize::from(i64::from(x) < 3);
            assert_eq!(narrow.predict(&[x]), expected);
            assert_eq!(narrow.predict_with(&[x], &mut scratch), expected);
        }
    }

    #[test]
    fn accuracy_batch_equals_accuracy() {
        let mlp = AxMlp {
            layers: vec![AxLayer {
                input_bits: 4,
                neurons: vec![
                    neuron(
                        vec![AxWeight {
                            mask: 0b1111,
                            shift: 0,
                            negative: false,
                        }],
                        0,
                    ),
                    neuron(
                        vec![AxWeight {
                            mask: 0b1111,
                            shift: 0,
                            negative: true,
                        }],
                        10,
                    ),
                ],
                qrelu: None,
            }],
        };
        let rows: Vec<Vec<u8>> = (0..16u8).map(|v| vec![v]).collect();
        let rows = QuantMatrix::from_rows(&rows);
        let labels: Vec<usize> = (0..16).map(|v| usize::from(v <= 5)).collect();
        let mut scratch = InferenceScratch::new();
        let batch = mlp.accuracy_batch(&rows, &labels, &mut scratch);
        assert!((batch - mlp.accuracy(&rows, &labels)).abs() < 1e-15);
        // Empty input stays well-defined: 0.0 by convention.
        let empty = QuantMatrix::default();
        assert_eq!(mlp.accuracy_batch(&empty, &[], &mut scratch), 0.0);
        assert_eq!(mlp.accuracy(&empty, &[]), 0.0);
    }

    #[test]
    fn accuracy_counts_hits() {
        let mlp = AxMlp {
            layers: vec![AxLayer {
                input_bits: 4,
                neurons: vec![
                    neuron(
                        vec![AxWeight {
                            mask: 0b1111,
                            shift: 0,
                            negative: false,
                        }],
                        0,
                    ),
                    neuron(
                        vec![AxWeight {
                            mask: 0b1111,
                            shift: 0,
                            negative: true,
                        }],
                        10,
                    ),
                ],
                qrelu: None,
            }],
        };
        // Neuron0 = x, neuron1 = 10 - x: class 0 iff x > 5.
        let rows = QuantMatrix::from_rows(&[vec![9u8], vec![1], vec![7], vec![3]]);
        let labels = vec![0, 1, 0, 0];
        assert!((mlp.accuracy(&rows, &labels) - 0.75).abs() < 1e-12);
    }
}
