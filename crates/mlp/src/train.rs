//! From-scratch mini-batch SGD backpropagation.
//!
//! Implements the conventional gradient-based training the paper uses
//! both for the exact baselines (before quantization) and as the
//! "Grad." reference row of Table III. Softmax cross-entropy loss,
//! ReLU hidden layers, SGD with momentum.
//!
//! One loop trains every network of a run in lockstep: the restarts of
//! [`train_best_of`], or the one network of [`SgdTrainer`]. The shuffle
//! is seeded from the configuration's seed alone, so all restarts walk
//! the same batch order; each batch is gathered once into a shared
//! input, then each network in turn runs its forward pass, softmax,
//! label delta, backward pass and momentum step on it. Each network
//! keeps its parameters, one batch's gradients and the momenta in flat
//! row-major buffers, and its own reused feature-major (`[unit][sample]`)
//! activations and deltas.
//!
//! The forward sums and the back-propagated deltas are small matrix
//! products whose vector lanes run across the batch's samples, the
//! weight gradients one whose lanes run across a neuron's inputs, so the
//! compiler vectorizes all of them. The softmax's `exp` is the owned
//! port [`pe_arith::math::expf`], four samples per AVX2+FMA step where
//! the host has both ([`crate::simd`]), so the weights do not depend on
//! the host's libm. No single f32 chain changes its order from the
//! textbook per-sample loop run once per restart: a (neuron, sample) sum
//! starts at −0.0, as `Iterator::sum` does, adds the products in input
//! order, then the bias; a back-propagated delta starts at +0.0 and
//! walks the neurons in order; a gradient starts at +0.0 and sums the
//! batch's samples in batch order; the momentum update is the textbook
//! one. Trained weights are therefore bit-identical to the per-sample
//! loop's, which the tests keep as the parity oracle.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dense::DenseMlp;
use crate::simd::expf_in_place;
use crate::topology::Topology;

/// Hyperparameters for [`SgdTrainer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shuffling / initialization seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            momentum: 0.9,
            epochs: 200,
            batch_size: 32,
            seed: 0,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Epochs actually executed.
    pub epochs: usize,
    /// Final accuracy on the training data.
    pub train_accuracy: f64,
    /// Final mean cross-entropy on the training data.
    pub train_loss: f64,
    /// Number of forward/backward sample evaluations performed.
    pub evaluations: u64,
}

/// Mini-batch SGD trainer with momentum.
#[derive(Debug, Clone)]
pub struct SgdTrainer {
    config: TrainConfig,
}

impl SgdTrainer {
    /// Trainer with the given hyperparameters.
    #[must_use]
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Train `mlp` in place on `(rows, labels)`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `labels` differ in length, rows don't match
    /// the network's input width, or a label exceeds the output width.
    pub fn train(&self, mlp: &mut DenseMlp, rows: &[Vec<f32>], labels: &[usize]) -> TrainReport {
        self.train_observed(mlp, rows, labels, |_| true)
    }

    /// Train with a per-epoch observer: `on_epoch(epoch)` runs after
    /// each completed epoch and returns whether to keep training —
    /// `false` stops early (cooperative cancellation). The report's
    /// `epochs` field records the epochs actually executed; up to the
    /// stopping point the run is bit-identical to a full one.
    ///
    /// # Panics
    ///
    /// Panics as [`train`](Self::train) does.
    pub fn train_observed(
        &self,
        mlp: &mut DenseMlp,
        rows: &[Vec<f32>],
        labels: &[usize],
        mut on_epoch: impl FnMut(usize) -> bool,
    ) -> TrainReport {
        let mlps = std::slice::from_mut(mlp);
        let mut reports = train_lockstep(&self.config, mlps, rows, labels, |_, e| on_epoch(e));
        reports.pop().expect("one report per network")
    }
}

/// Train every network of `mlps` on `(rows, labels)` in lockstep: one
/// shuffle per epoch and one gather per batch feed them all. After each
/// epoch `on_epoch(r, epoch)` runs for r = 0, 1, … in order, and the
/// first `false` stops every network after that epoch. Returns each
/// network's report, in order.
///
/// # Panics
///
/// Panics if `mlps` is empty or their topologies differ, and as
/// [`SgdTrainer::train`] does.
fn train_lockstep(
    config: &TrainConfig,
    mlps: &mut [DenseMlp],
    rows: &[Vec<f32>],
    labels: &[usize],
    mut on_epoch: impl FnMut(u64, usize) -> bool,
) -> Vec<TrainReport> {
    assert_eq!(rows.len(), labels.len());
    assert!(!rows.is_empty(), "training data must be non-empty");
    let topology = mlps.first().expect("at least one network").topology();
    assert!(
        mlps.iter().all(|mlp| mlp.topology() == topology),
        "the networks must share one topology"
    );
    assert!(
        rows.iter().all(|row| row.len() == topology.inputs()),
        "input width mismatch"
    );
    assert!(
        labels.iter().all(|&l| l < topology.outputs()),
        "label out of range"
    );

    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xa076_1d64_78bd_642f);
    let batch_size = config.batch_size.max(1);
    let mut batch = Batch::new(topology.inputs(), batch_size.min(rows.len()));
    let width = batch.width;
    let mut nets: Vec<Net> = mlps.iter().map(|mlp| Net::new(mlp, width)).collect();

    let mut order: Vec<usize> = (0..rows.len()).collect();
    let mut evaluations = 0u64;

    let mut executed = 0usize;
    for epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(batch_size) {
            let n = chunk.len();
            evaluations += n as u64;
            batch.gather(chunk.iter().map(|&idx| rows[idx].as_slice()));
            let scale = config.learning_rate / n as f32;
            for net in &mut nets {
                net.forward(&batch.act, n);
                net.softmax(n);
                // dL/dlogit = softmax - onehot.
                let delta = net.deltas.last_mut().expect("at least one layer");
                for (s, &idx) in chunk.iter().enumerate() {
                    delta[labels[idx] * width + s] -= 1.0;
                }
                net.backward(&batch.rows, n);
                net.step(config.momentum, scale);
            }
        }
        executed = epoch + 1;
        if !(0..nets.len() as u64).all(|r| on_epoch(r, epoch)) {
            break;
        }
    }

    let scores = evaluate(&mut nets, &mut batch, rows, labels);
    let trained = mlps.iter_mut().zip(nets).zip(scores);
    trained
        .map(|((mlp, net), (train_accuracy, train_loss))| {
            *mlp = unflatten(mlp.topology().clone(), net.layers);
            TrainReport {
                epochs: executed,
                train_accuracy,
                train_loss,
                evaluations,
            }
        })
        .collect()
}

/// One layer's parameters, gradients or momenta, one neuron per row of
/// [`stride`]`(fan_in)` values: the `fan_in` input weights, then the
/// bias as the weight of one more input, then zero padding. The batch
/// feeds that extra input a constant 1.0, and `b · 1.0 = b` exactly, so
/// a neuron's sum still ends by adding its bias and the bias gradient is
/// still the plain sum of the batch's deltas.
#[derive(Clone)]
struct FlatLayer {
    fan_in: usize,
    w: Vec<f32>,
}

impl FlatLayer {
    fn zeros_like(&self) -> Self {
        Self {
            fan_in: self.fan_in,
            w: vec![0.0; self.w.len()],
        }
    }

    /// One momentum step: `v = momentum·v − scale·g`, then `p += v`.
    fn step(&mut self, grad: &FlatLayer, velocity: &mut FlatLayer, momentum: f32, scale: f32) {
        let params = self.w.iter_mut().zip(&grad.w).zip(&mut velocity.w);
        for ((p, &g), v) in params {
            *v = momentum * *v - scale * g;
            *p += *v;
        }
    }
}

/// Columns per register block in [`combine`].
const LANES: usize = 8;

/// Row length for `fan_in` inputs plus the constant 1.0, in whole
/// [`LANES`] blocks.
fn stride(fan_in: usize) -> usize {
    (fan_in + 1).next_multiple_of(LANES)
}

fn flatten(mlp: &DenseMlp) -> Vec<FlatLayer> {
    let layers = mlp.weights().iter().zip(mlp.biases());
    layers
        .zip(mlp.topology().sizes())
        .map(|((rows, biases), &fan_in)| {
            let mut w = vec![0.0; rows.len() * stride(fan_in)];
            let neurons = w
                .chunks_exact_mut(stride(fan_in))
                .zip(rows.iter().zip(biases));
            for (flat, (row, &bias)) in neurons {
                flat[..fan_in].copy_from_slice(row);
                flat[fan_in] = bias;
            }
            FlatLayer { fan_in, w }
        })
        .collect()
}

fn unflatten(topology: Topology, layers: Vec<FlatLayer>) -> DenseMlp {
    let (weights, biases) = layers
        .iter()
        .map(|layer| {
            let fan_in = layer.fan_in;
            let neurons = layer.w.chunks_exact(stride(fan_in));
            neurons
                .map(|row| (row[..fan_in].to_vec(), row[fan_in]))
                .unzip()
        })
        .unzip();
    DenseMlp::from_parameters(topology, weights, biases)
}

/// `out[c] = init + Σ_k coefs[k] · rows[k * stride + c]` for every `c`,
/// in whole [`LANES`] blocks. Every element sums its terms in `k` order,
/// exactly as a scalar loop would; a block's sums run side by side in
/// one register accumulator the compiler vectorizes.
fn combine(
    out: &mut [f32],
    init: f32,
    coefs: impl Iterator<Item = f32> + Clone,
    rows: &[f32],
    stride: usize,
) {
    debug_assert_eq!(out.len() % LANES, 0);
    for (block, out) in out.chunks_exact_mut(LANES).enumerate() {
        let mut acc = [init; LANES];
        for (x, row) in coefs.clone().zip(rows.chunks_exact(stride)) {
            let ys = &row[block * LANES..][..LANES];
            for (a, &y) in acc.iter_mut().zip(ys) {
                *a += x * y;
            }
        }
        out.copy_from_slice(&acc);
    }
}

/// `units` feature-major rows of `width` samples, then one row of
/// constant 1.0 for the bias.
fn with_bias_row(units: usize, width: usize) -> Vec<f32> {
    let mut act = vec![0.0; (units + 1) * width];
    act[units * width..].fill(1.0);
    act
}

/// `width` sample-major rows of [`stride`]`(units)`: the units, the
/// constant 1.0 for the bias, zero padding.
fn with_bias_column(units: usize, width: usize) -> Vec<f32> {
    let mut rows = vec![0.0; width * stride(units)];
    for row in rows.chunks_exact_mut(stride(units)) {
        row[units] = 1.0;
    }
    rows
}

/// One gathered batch of up to `width` samples (`width` a multiple of
/// [`LANES`]), the input every network of a lockstep run reads. The
/// feature-major buffers compute whole blocks of samples; lanes past
/// the batch hold stale values that nothing reads.
struct Batch {
    width: usize,
    /// The rows feature-major ([`with_bias_row`]): the first layer's
    /// forward input.
    act: Vec<f32>,
    /// The rows sample-major ([`with_bias_column`]): the first layer's
    /// weight gradients run along them.
    rows: Vec<f32>,
}

impl Batch {
    fn new(inputs: usize, batch: usize) -> Self {
        let width = batch.next_multiple_of(LANES);
        Self {
            width,
            act: with_bias_row(inputs, width),
            rows: with_bias_column(inputs, width),
        }
    }

    /// Copy up to `width` rows into both layouts.
    fn gather<'r>(&mut self, rows: impl Iterator<Item = &'r [f32]>) {
        let (width, stride) = (self.width, self.rows.len() / self.width);
        for (s, row) in rows.enumerate() {
            for (i, &x) in row.iter().enumerate() {
                self.act[i * width + s] = x;
            }
            self.rows[s * stride..][..row.len()].copy_from_slice(row);
        }
    }
}

/// One network of a lockstep run: its parameters, one batch's gradients
/// and the momenta, and its per-batch buffers, sized for batches of up
/// to `width` samples.
struct Net {
    width: usize,
    layers: Vec<FlatLayer>,
    grads: Vec<FlatLayer>,
    velocities: Vec<FlatLayer>,
    /// `acts[l]`, feature-major (row stride `width`): layer `l`'s
    /// output. A hidden layer's is post-ReLU, with one last row of
    /// constant 1.0 for the next layer's bias ([`with_bias_row`]); the
    /// final entry holds the logits.
    acts: Vec<Vec<f32>>,
    /// `inputs[l]`: the hidden units of `acts[l]` sample-major
    /// ([`with_bias_column`]), so layer `l + 1`'s weight gradients run
    /// along contiguous rows.
    inputs: Vec<Vec<f32>>,
    /// `deltas[l]`, feature-major: the loss gradient at layer `l`'s
    /// pre-activations. The last entry doubles as the softmax output.
    deltas: Vec<Vec<f32>>,
    /// Per-sample softmax maximum and denominator.
    max: Vec<f32>,
    sum: Vec<f32>,
}

impl Net {
    fn new(mlp: &DenseMlp, width: usize) -> Self {
        let layers = flatten(mlp);
        let grads: Vec<FlatLayer> = layers.iter().map(FlatLayer::zeros_like).collect();
        let units = &mlp.topology().sizes()[1..];
        let (hidden, classes) = units.split_at(units.len() - 1);
        let mut acts: Vec<Vec<f32>> = hidden.iter().map(|&u| with_bias_row(u, width)).collect();
        acts.push(vec![0.0; classes[0] * width]);
        Self {
            width,
            velocities: grads.clone(),
            layers,
            grads,
            acts,
            inputs: hidden.iter().map(|&u| with_bias_column(u, width)).collect(),
            deltas: units.iter().map(|&u| vec![0.0; u * width]).collect(),
            max: vec![0.0; width],
            sum: vec![0.0; width],
        }
    }

    /// Forward the first `n` samples of `batch` (a [`Batch`]'s
    /// feature-major rows): a (neuron, sample) sum starts at −0.0, as
    /// `Iterator::sum` does, and adds the products in input order, then
    /// the bias.
    fn forward(&mut self, batch: &[f32], n: usize) {
        let (width, blocks) = (self.width, n.next_multiple_of(LANES));
        let last = self.layers.len() - 1;
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, todo) = self.acts.split_at_mut(l);
            let input = done.last().map_or(batch, Vec::as_slice);
            let output = &mut todo[0];
            let neurons = layer.w.chunks_exact(stride(layer.fan_in));
            for (j, row) in neurons.enumerate() {
                let out = &mut output[j * width..][..blocks];
                combine(
                    out,
                    -0.0,
                    row[..=layer.fan_in].iter().copied(),
                    input,
                    width,
                );
                if l < last {
                    for o in out.iter_mut() {
                        *o = o.max(0.0);
                    }
                }
            }
        }
    }

    /// Softmax of the first `n` samples' logits into the last `deltas`
    /// entry, each sample as a numerically-stable per-row softmax
    /// computes it with [`pe_arith::math::expf`].
    fn softmax(&mut self, n: usize) {
        let width = self.width;
        let logits = self.acts.last().expect("at least one layer");
        let probs = self.deltas.last_mut().expect("at least one layer");
        let (max, sum) = (&mut self.max[..n], &mut self.sum[..n]);
        let classes = logits.len() / width;
        max.fill(f32::NEG_INFINITY);
        for j in 0..classes {
            for (m, &z) in max.iter_mut().zip(&logits[j * width..][..n]) {
                *m = m.max(z);
            }
        }
        sum.fill(-0.0);
        for j in 0..classes {
            let p = &mut probs[j * width..][..n];
            for ((p, &z), &m) in p.iter_mut().zip(&logits[j * width..][..n]).zip(&*max) {
                *p = z - m;
            }
            expf_in_place(p);
            for (s, &p) in sum.iter_mut().zip(&*p) {
                *s += p;
            }
        }
        for s in sum.iter_mut() {
            *s = s.max(f32::MIN_POSITIVE);
        }
        for j in 0..classes {
            for (p, &s) in probs[j * width..][..n].iter_mut().zip(&*sum) {
                *p /= s;
            }
        }
    }

    /// Back-propagate the output deltas of the first `n` forwarded
    /// samples and sum each parameter's gradient over them, in sample
    /// order from +0.0, into `grads`; `batch` holds the batch's rows
    /// sample-major. A back-propagated delta starts at +0.0 and walks
    /// the neurons in order.
    fn backward(&mut self, batch: &[f32], n: usize) {
        let (width, blocks) = (self.width, n.next_multiple_of(LANES));
        let layers = self.layers.iter().zip(self.grads.iter_mut()).enumerate();
        for (l, (layer, grad)) in layers.rev() {
            let (fan_in, stride) = (layer.fan_in, stride(layer.fan_in));
            let input: &[f32] = match l.checked_sub(1) {
                None => batch,
                Some(below) => {
                    let (act, input) = (&self.acts[below], &mut self.inputs[below]);
                    for (s, row) in input.chunks_exact_mut(stride).take(n).enumerate() {
                        for (i, x) in row[..fan_in].iter_mut().enumerate() {
                            *x = act[i * width + s];
                        }
                    }
                    input
                }
            };
            let (lower, upper) = self.deltas.split_at_mut(l);
            let delta = &upper[0];
            for (j, g) in grad.w.chunks_exact_mut(stride).enumerate() {
                combine(
                    g,
                    0.0,
                    delta[j * width..][..n].iter().copied(),
                    input,
                    stride,
                );
            }
            if let Some(next) = lower.last_mut() {
                // Propagate through the weights and the ReLU of layer
                // l-1's output.
                let act = &self.acts[l - 1];
                for i in 0..fan_in {
                    let out = &mut next[i * width..][..blocks];
                    let column = layer.w[i..].iter().step_by(stride).copied();
                    combine(out, 0.0, column, delta, width);
                    for (o, &a) in out.iter_mut().zip(&act[i * width..]) {
                        if a <= 0.0 {
                            *o = 0.0;
                        }
                    }
                }
            }
        }
    }

    /// One momentum step of every layer with the batch's gradients.
    fn step(&mut self, momentum: f32, scale: f32) {
        let steps = self.layers.iter_mut().zip(&self.grads);
        for ((layer, grad), velocity) in steps.zip(&mut self.velocities) {
            layer.step(grad, velocity, momentum, scale);
        }
    }
}

/// Accuracy and mean cross-entropy of each network over all rows, in
/// one batched pass that gathers each chunk of rows once: argmax of the
/// logits (first on ties) and `−ln max(p_label, 1e-12)` summed in row
/// order.
fn evaluate(
    nets: &mut [Net],
    batch: &mut Batch,
    rows: &[Vec<f32>],
    labels: &[usize],
) -> Vec<(f64, f64)> {
    let width = batch.width;
    let mut scores = vec![(0usize, 0.0f64); nets.len()];
    for (chunk, chunk_labels) in rows.chunks(width).zip(labels.chunks(width)) {
        let n = chunk.len();
        batch.gather(chunk.iter().map(Vec::as_slice));
        for (net, (hits, total)) in nets.iter_mut().zip(&mut scores) {
            net.forward(&batch.act, n);
            let logits = net.acts.last().expect("at least one layer");
            let classes = logits.len() / width;
            for (s, &label) in chunk_labels.iter().enumerate() {
                let mut best = 0;
                for j in 1..classes {
                    if logits[j * width + s] > logits[best * width + s] {
                        best = j;
                    }
                }
                *hits += usize::from(best == label);
            }
            net.softmax(n);
            let probs = net.deltas.last().expect("at least one layer");
            for (s, &label) in chunk_labels.iter().enumerate() {
                *total -= f64::from(probs[label * width + s].max(1e-12)).ln();
            }
        }
    }
    let count = rows.len() as f64;
    let score = |(hits, total): (usize, f64)| (hits as f64 / count, total / count);
    scores.into_iter().map(score).collect()
}

/// Train `restarts` randomly initialized networks and keep the one with
/// the lowest final training loss (the first on ties).
///
/// The paper's topologies have as few as two hidden units, where single
/// initializations occasionally die (all-ReLU-dead); best-of-N restarts
/// is the standard remedy and stays deterministic in `seed`. The
/// restarts differ only in their initial weights and train in lockstep
/// on the same batches (see the [module docs](self)).
///
/// # Panics
///
/// Panics if `restarts` is zero or the data is empty.
#[must_use]
pub fn train_best_of(
    topology: &Topology,
    rows: &[Vec<f32>],
    labels: &[usize],
    config: &TrainConfig,
    restarts: u64,
) -> (DenseMlp, TrainReport) {
    train_best_of_observed(topology, rows, labels, config, restarts, |_, _| true)
}

/// [`train_best_of`] with a per-epoch observer. The restarts train in
/// lockstep, so after each epoch `on_epoch(restart, epoch)` runs for
/// restart 0, 1, … in order and returns whether to keep training. The
/// first `false` ends the calls and stops every restart after that
/// epoch; the best of the restarts, each trained through that epoch, is
/// still returned (callers deciding to cancel typically discard it).
///
/// # Panics
///
/// Panics if `restarts` is zero or the data is empty.
#[must_use]
pub fn train_best_of_observed(
    topology: &Topology,
    rows: &[Vec<f32>],
    labels: &[usize],
    config: &TrainConfig,
    restarts: u64,
    on_epoch: impl FnMut(u64, usize) -> bool,
) -> (DenseMlp, TrainReport) {
    assert!(restarts > 0, "at least one restart required");
    let mut mlps: Vec<DenseMlp> = (0..restarts)
        .map(|r| DenseMlp::random(topology.clone(), config.seed ^ (r * 0x9e37_79b9)))
        .collect();
    let reports = train_lockstep(config, &mut mlps, rows, labels, on_epoch);
    let mut best: Option<(DenseMlp, TrainReport)> = None;
    for (mlp, report) in mlps.into_iter().zip(reports) {
        if best
            .as_ref()
            .is_none_or(|(_, b)| report.train_loss < b.train_loss)
        {
            best = Some((mlp, report));
        }
    }
    best.expect("restarts > 0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_arith::math::expf;
    use proptest::prelude::*;
    use rand::Rng;

    /// Numerically-stable per-row softmax (the oracle's), through the
    /// scalar `expf` port, so no test reads the host's libm.
    fn softmax(logits: &[f32]) -> Vec<f32> {
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|&v| expf(v - max)).collect();
        let sum: f32 = exps.iter().sum();
        exps.iter()
            .map(|&e| e / sum.max(f32::MIN_POSITIVE))
            .collect()
    }

    /// Mean softmax cross-entropy of `mlp` over a labelled set, row by
    /// row (the oracle's).
    fn mean_cross_entropy(mlp: &DenseMlp, rows: &[Vec<f32>], labels: &[usize]) -> f64 {
        assert_eq!(rows.len(), labels.len());
        if rows.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f64;
        for (row, &l) in rows.iter().zip(labels) {
            let probs = softmax(&mlp.logits(row));
            total -= f64::from(probs[l].max(1e-12)).ln();
        }
        total / rows.len() as f64
    }

    /// The textbook per-sample trainer, kept as the parity oracle: nested
    /// `Vec` gradients per batch, and a `forward_trace`, softmax and
    /// delta `Vec` per sample.
    fn oracle_train_observed(
        config: &TrainConfig,
        mlp: &mut DenseMlp,
        rows: &[Vec<f32>],
        labels: &[usize],
        mut on_epoch: impl FnMut(usize) -> bool,
    ) -> TrainReport {
        assert_eq!(rows.len(), labels.len());
        assert!(!rows.is_empty(), "training data must be non-empty");
        let classes = mlp.topology().outputs();
        assert!(labels.iter().all(|&l| l < classes), "label out of range");

        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xa076_1d64_78bd_642f);
        let layer_count = mlp.topology().layer_count();

        // Momentum buffers mirroring the parameter shapes.
        let mut vel_w: Vec<Vec<Vec<f32>>> = mlp
            .weights()
            .iter()
            .map(|l| l.iter().map(|r| vec![0.0; r.len()]).collect())
            .collect();
        let mut vel_b: Vec<Vec<f32>> = mlp.biases().iter().map(|l| vec![0.0; l.len()]).collect();

        let mut order: Vec<usize> = (0..rows.len()).collect();
        let mut evaluations = 0u64;

        let mut executed = 0usize;
        for epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(config.batch_size.max(1)) {
                // Accumulate gradients over the batch.
                let mut grad_w: Vec<Vec<Vec<f32>>> = mlp
                    .weights()
                    .iter()
                    .map(|l| l.iter().map(|r| vec![0.0; r.len()]).collect())
                    .collect();
                let mut grad_b: Vec<Vec<f32>> =
                    mlp.biases().iter().map(|l| vec![0.0; l.len()]).collect();

                for &idx in batch {
                    evaluations += 1;
                    let trace = mlp.forward_trace(&rows[idx]);
                    let logits = trace.last().expect("trace non-empty");
                    let probs = softmax(logits);
                    // dL/dlogit = softmax - onehot.
                    let mut delta: Vec<f32> = probs;
                    delta[labels[idx]] -= 1.0;

                    for l in (0..layer_count).rev() {
                        let input = &trace[l];
                        for (j, d) in delta.iter().enumerate() {
                            grad_b[l][j] += d;
                            for (i, &v) in input.iter().enumerate() {
                                grad_w[l][j][i] += d * v;
                            }
                        }
                        if l > 0 {
                            // Propagate through weights and the ReLU of
                            // layer l-1's output.
                            let prev_out = &trace[l];
                            let mut next = vec![0.0f32; prev_out.len()];
                            for (j, d) in delta.iter().enumerate() {
                                for (i, n) in next.iter_mut().enumerate() {
                                    *n += d * mlp.weights()[l][j][i];
                                }
                            }
                            for (n, &o) in next.iter_mut().zip(prev_out) {
                                if o <= 0.0 {
                                    *n = 0.0;
                                }
                            }
                            delta = next;
                        }
                    }
                }

                let scale = config.learning_rate / batch.len() as f32;
                let mut weights = mlp.weights().to_vec();
                let mut biases = mlp.biases().to_vec();
                for l in 0..layer_count {
                    for j in 0..weights[l].len() {
                        for i in 0..weights[l][j].len() {
                            let v = &mut vel_w[l][j][i];
                            *v = config.momentum * *v - scale * grad_w[l][j][i];
                            weights[l][j][i] += *v;
                        }
                        let vb = &mut vel_b[l][j];
                        *vb = config.momentum * *vb - scale * grad_b[l][j];
                        biases[l][j] += *vb;
                    }
                }
                *mlp = DenseMlp::from_parameters(mlp.topology().clone(), weights, biases);
            }
            executed = epoch + 1;
            if !on_epoch(epoch) {
                break;
            }
        }

        let train_accuracy = mlp.accuracy(rows, labels);
        let train_loss = mean_cross_entropy(mlp, rows, labels);
        TrainReport {
            epochs: executed,
            train_accuracy,
            train_loss,
            evaluations,
        }
    }

    /// `Err` naming the first parameter whose bits differ. `DenseMlp`'s
    /// derived `PartialEq` would treat −0.0 and +0.0 as equal.
    fn same_bits(a: &DenseMlp, b: &DenseMlp) -> Result<(), String> {
        if a.topology() != b.topology() {
            return Err("topologies differ".into());
        }
        for (l, (wa, wb)) in a.weights().iter().zip(b.weights()).enumerate() {
            for (j, (ra, rb)) in wa.iter().zip(wb).enumerate() {
                for (i, (x, y)) in ra.iter().zip(rb).enumerate() {
                    if x.to_bits() != y.to_bits() {
                        return Err(format!("weight [{l}][{j}][{i}]: {x:e} vs {y:e}"));
                    }
                }
            }
        }
        for (l, (ba, bb)) in a.biases().iter().zip(b.biases()).enumerate() {
            for (j, (x, y)) in ba.iter().zip(bb).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Err(format!("bias [{l}][{j}]: {x:e} vs {y:e}"));
                }
            }
        }
        Ok(())
    }

    /// A report's fields, floats as bits.
    fn report_bits(r: &TrainReport) -> (usize, u64, u64, u64) {
        (
            r.epochs,
            r.evaluations,
            r.train_accuracy.to_bits(),
            r.train_loss.to_bits(),
        )
    }

    /// One random parity case.
    struct Case {
        topology: Topology,
        rows: Vec<Vec<f32>>,
        labels: Vec<usize>,
        config: TrainConfig,
        /// The initial networks, one per restart; with `kill`, every
        /// width-1 hidden layer's neuron starts with non-positive
        /// weights, so on non-negative inputs its ReLU is dead from the
        /// first sample.
        inits: Vec<DenseMlp>,
    }

    fn case(
        seed: u64,
        hidden: &[usize],
        batch_size: usize,
        momentum: f32,
        kill: bool,
        restarts: usize,
    ) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = rng.gen_range(1..=8);
        let classes = rng.gen_range(2..=5);
        let mut sizes = vec![inputs];
        sizes.extend_from_slice(hidden);
        sizes.push(classes);
        let topology = Topology::new(sizes);
        // Row counts the batch size does not divide (unless it is 1),
        // some below one batch.
        let mut count = rng.gen_range(1..=90);
        if batch_size > 1 && count % batch_size == 0 {
            count += 1;
        }
        let rows: Vec<Vec<f32>> = (0..count)
            .map(|_| {
                (0..inputs)
                    .map(|_| {
                        if rng.gen_range(0..8) == 0 {
                            0.0
                        } else {
                            rng.gen_range(0.0f32..1.0)
                        }
                    })
                    .collect()
            })
            .collect();
        let labels = (0..count).map(|_| rng.gen_range(0..classes)).collect();
        let config = TrainConfig {
            learning_rate: [0.02f32, 0.05, 0.3][rng.gen_range(0..3usize)],
            momentum,
            epochs: rng.gen_range(1..=6),
            batch_size,
            seed: rng.gen(),
        };
        let inits = (0..restarts)
            .map(|_| {
                let init = DenseMlp::random(topology.clone(), rng.gen());
                if !kill {
                    return init;
                }
                let mut weights = init.weights().to_vec();
                for (l, layer) in weights.iter_mut().enumerate() {
                    if l + 1 < topology.layer_count() && layer.len() == 1 {
                        for w in &mut layer[0] {
                            *w = -w.abs();
                        }
                    }
                }
                DenseMlp::from_parameters(topology.clone(), weights, init.biases().to_vec())
            })
            .collect();
        Case {
            topology,
            rows,
            labels,
            config,
            inits,
        }
    }

    /// Trains `case`'s networks in lockstep, once to the end and once
    /// stopped by the observer at `stop` = (restart, epoch), and
    /// compares every network and report with the oracle run once per
    /// restart: to the end, and through the stopping epoch.
    fn check_parity(case: &Case, stop: (u64, usize)) -> Result<(), String> {
        let (rows, labels, config) = (&case.rows, &case.labels, &case.config);
        let check = |what: &str, fast: &[DenseMlp], reports: &[TrainReport], stop_at: usize| {
            let runs = case.inits.iter().zip(fast.iter().zip(reports));
            for (r, (init, (fast, report))) in runs.enumerate() {
                let mut oracle = init.clone();
                let expected =
                    oracle_train_observed(config, &mut oracle, rows, labels, |e| e < stop_at);
                same_bits(fast, &oracle).map_err(|e| format!("{what}, restart {r}: {e}"))?;
                if report_bits(report) != report_bits(&expected) {
                    return Err(format!("{what}, restart {r}: {report:?} vs {expected:?}"));
                }
            }
            Ok(())
        };

        let mut fast = case.inits.clone();
        let reports = train_lockstep(config, &mut fast, rows, labels, |_, _| true);
        check("full run", &fast, &reports, usize::MAX)?;

        // Early stop: every restart through epoch `stop.1`, and the
        // observer called for each restart of each epoch until `stop`.
        let mut calls = Vec::new();
        let mut fast = case.inits.clone();
        let reports = train_lockstep(config, &mut fast, rows, labels, |r, e| {
            calls.push((r, e));
            (r, e) != stop
        });
        let restarts = case.inits.len() as u64;
        let mut expected: Vec<(u64, usize)> = (0..stop.1)
            .flat_map(|e| (0..restarts).map(move |r| (r, e)))
            .collect();
        expected.extend((0..=stop.0).map(|r| (r, stop.1)));
        if calls != expected {
            return Err(format!("stopped at {stop:?}: calls {calls:?}"));
        }
        check(&format!("stopped at {stop:?}"), &fast, &reports, stop.1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The lockstep trainer reproduces the per-sample oracle, run
        /// once per restart, bit for bit: every weight and bias of every
        /// restart, the reports, and an early-stopped prefix. 1, 3 and
        /// 5 restarts; one to three hidden layers, width-1 layers (dead
        /// ReLUs with `kill`), batch sizes 1, 7, 32 and 33 over row
        /// counts they do not divide, momentum 0 and 0.9.
        #[test]
        fn batched_training_matches_the_per_sample_oracle(
            seed in any::<u64>(),
            hidden in proptest::collection::vec(1usize..=5, 1..=3),
            batch_size in prop_oneof![Just(1usize), Just(7), Just(32), Just(33)],
            momentum in prop_oneof![Just(0.0f32), Just(0.9)],
            kill in any::<bool>(),
            restarts in prop_oneof![Just(1usize), Just(3), Just(5)],
            stop_restart in 0u64..5,
            stop_at in 0usize..6,
        ) {
            let case = case(seed, &hidden, batch_size, momentum, kill, restarts);
            let stop = (
                stop_restart.min(restarts as u64 - 1),
                stop_at.min(case.config.epochs - 1),
            );
            let outcome = check_parity(&case, stop);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }

        /// `train_best_of_observed` cancelled at a random (restart,
        /// epoch) makes the same observer calls as the lockstep order
        /// (every restart of each earlier epoch, then the cancelling
        /// epoch's restarts up to the cancelling one) and returns the
        /// same network and report as best-of over the oracle, every
        /// restart trained through the cancelling epoch.
        #[test]
        fn cancelled_best_of_matches_the_oracle(
            seed in any::<u64>(),
            hidden in proptest::collection::vec(1usize..=4, 1..=2),
            cancel_restart in 0u64..3,
            cancel_epoch in 0usize..6,
        ) {
            let case = case(seed, &hidden, 7, 0.9, false, 0);
            let epochs = case.config.epochs;
            let cancel_epoch = cancel_epoch.min(epochs - 1);
            let (rows, labels, cfg) = (&case.rows, &case.labels, &case.config);
            let mut calls = 0u64;
            let (mlp, report) =
                train_best_of_observed(&case.topology, rows, labels, cfg, 3, |r, e| {
                    calls += 1;
                    (r, e) != (cancel_restart, cancel_epoch)
                });
            prop_assert_eq!(calls, cancel_epoch as u64 * 3 + cancel_restart + 1);

            let mut best: Option<(DenseMlp, TrainReport)> = None;
            for r in 0..3 {
                let init_seed = cfg.seed ^ (r * 0x9e37_79b9);
                let mut oracle = DenseMlp::random(case.topology.clone(), init_seed);
                let expected = oracle_train_observed(cfg, &mut oracle, rows, labels, |e| {
                    e != cancel_epoch
                });
                if best.as_ref().is_none_or(|(_, b)| expected.train_loss < b.train_loss) {
                    best = Some((oracle, expected));
                }
            }
            let (oracle, expected) = best.expect("at least one restart");
            let outcome = same_bits(&mlp, &oracle);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
            prop_assert_eq!(report_bits(&report), report_bits(&expected));
        }
    }

    /// The parity cases are not vacuous: training moves the weights, and
    /// `kill` really leaves a width-1 hidden layer dead.
    #[test]
    fn parity_cases_train_and_kill() {
        let case = case(3, &[1, 4], 7, 0.9, true, 3);
        let mut mlps = case.inits.clone();
        let _ = train_lockstep(&case.config, &mut mlps, &case.rows, &case.labels, |_, _| {
            true
        });
        for (mlp, init) in mlps.iter().zip(&case.inits) {
            assert!(same_bits(mlp, init).is_err(), "training moved nothing");
            assert!(case.rows.iter().all(|r| mlp.forward_trace(r)[1][0] == 0.0));
            assert_eq!(
                mlp.weights()[0],
                init.weights()[0],
                "a dead neuron learns nothing"
            );
        }
        assert!(
            same_bits(&mlps[0], &mlps[1]).is_err(),
            "the restarts start apart"
        );
    }

    /// Tied logits count as a prediction of the first class, as
    /// `DenseMlp::predict` breaks ties.
    #[test]
    fn the_report_breaks_logit_ties_toward_the_first_class() {
        let zero = DenseMlp::from_parameters(
            Topology::new(vec![2, 3, 3]),
            vec![vec![vec![0.0; 2]; 3], vec![vec![0.0; 3]; 3]],
            vec![vec![0.0; 3]; 2],
        );
        let rows = vec![vec![0.5, 0.25]; 6];
        let labels = [0, 1, 0, 2, 0, 1];
        let config = TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        };
        let report = SgdTrainer::new(config.clone()).train(&mut zero.clone(), &rows, &labels);
        let expected = oracle_train_observed(&config, &mut zero.clone(), &rows, &labels, |_| true);
        assert_eq!(report.train_accuracy, 0.5);
        assert_eq!(report_bits(&report), report_bits(&expected));
    }

    /// Two well-separated blobs in 2D.
    fn toy_problem() -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let t = (i % 20) as f32 / 20.0;
            if i < 20 {
                rows.push(vec![0.1 + 0.2 * t, 0.2]);
                labels.push(0);
            } else {
                rows.push(vec![0.7 + 0.2 * t, 0.8]);
                labels.push(1);
            }
        }
        (rows, labels)
    }

    #[test]
    fn learns_separable_blobs() {
        let (rows, labels) = toy_problem();
        let mut mlp = DenseMlp::random(Topology::new(vec![2, 4, 2]), 3);
        let report = SgdTrainer::new(TrainConfig {
            epochs: 150,
            learning_rate: 0.1,
            ..TrainConfig::default()
        })
        .train(&mut mlp, &rows, &labels);
        assert!(
            report.train_accuracy > 0.95,
            "accuracy {}",
            report.train_accuracy
        );
        assert!(report.train_loss < 0.3, "loss {}", report.train_loss);
    }

    #[test]
    fn loss_decreases_with_training() {
        let (rows, labels) = toy_problem();
        let topo = Topology::new(vec![2, 4, 2]);
        let untrained = DenseMlp::random(topo.clone(), 3);
        let before = mean_cross_entropy(&untrained, &rows, &labels);
        let mut trained = untrained.clone();
        let _ = SgdTrainer::new(TrainConfig {
            epochs: 50,
            ..TrainConfig::default()
        })
        .train(&mut trained, &rows, &labels);
        let after = mean_cross_entropy(&trained, &rows, &labels);
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn training_is_deterministic() {
        let (rows, labels) = toy_problem();
        let run = || {
            let mut mlp = DenseMlp::random(Topology::new(vec![2, 3, 2]), 5);
            let _ = SgdTrainer::new(TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            })
            .train(&mut mlp, &rows, &labels);
            mlp
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observed_training_can_stop_early_and_matches_the_full_prefix() {
        let (rows, labels) = toy_problem();
        let cfg = TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        };
        let mut observed = DenseMlp::random(Topology::new(vec![2, 3, 2]), 5);
        let report =
            SgdTrainer::new(cfg.clone()).train_observed(&mut observed, &rows, &labels, |e| e < 4);
        assert_eq!(report.epochs, 5);
        assert_eq!(report.evaluations, 5 * rows.len() as u64);

        // Identical to simply configuring 5 epochs.
        let mut direct = DenseMlp::random(Topology::new(vec![2, 3, 2]), 5);
        let _ =
            SgdTrainer::new(TrainConfig { epochs: 5, ..cfg }).train(&mut direct, &rows, &labels);
        assert_eq!(observed, direct);
    }

    #[test]
    fn best_of_observed_stops_across_restarts() {
        let (rows, labels) = toy_problem();
        let cfg = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        let mut calls = 0u64;
        let (_, report) = train_best_of_observed(
            &Topology::new(vec![2, 3, 2]),
            &rows,
            &labels,
            &cfg,
            3,
            |restart, _| {
                calls += 1;
                restart == 0 // cancel at the first epoch restart 1 ends
            },
        );
        // Restart 0's epoch 0, then restart 1's, which cancels: every
        // restart stops after epoch 0, and restart 2 is not asked.
        assert_eq!(calls, 2);
        assert_eq!(report.epochs, 1);
    }

    /// The batched softmax sums to one per sample, keeps the logits'
    /// order, and equals the per-row softmax bit for bit.
    #[test]
    fn softmax_sums_to_one() {
        let samples = [[1.0f32, 2.0, 3.0], [0.0, -0.0, 0.0], [-50.0, 40.0, 39.5]];
        let width = LANES;
        let mut net = Net::new(&DenseMlp::random(Topology::new(vec![1, 3]), 0), width);
        for (s, logits) in samples.iter().enumerate() {
            for (j, &z) in logits.iter().enumerate() {
                net.acts[0][j * width + s] = z;
            }
        }
        net.softmax(samples.len());
        for (s, logits) in samples.iter().enumerate() {
            let p: Vec<f32> = (0..3).map(|j| net.deltas[0][j * width + s]).collect();
            let sum: f32 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&p), bits(&softmax(logits)));
        }
        let p = softmax(&samples[0]);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn evaluation_count_matches_epochs_times_samples() {
        let (rows, labels) = toy_problem();
        let mut mlp = DenseMlp::random(Topology::new(vec![2, 3, 2]), 5);
        let report = SgdTrainer::new(TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        })
        .train(&mut mlp, &rows, &labels);
        assert_eq!(report.evaluations, 3 * rows.len() as u64);
    }
}
